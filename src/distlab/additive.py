"""Approximate labels with bounded additive error.

For error budget r >= 2 the encoder works on three structures:

1. the power graph, which joins every pair at distance <= floor(r/2);
2. a greedy dominating set S of the power graph's high-degree nodes --
   every node stores its true distance to all of S, so any pair whose
   shortest path touches a high-degree node decodes within 2*floor(r/2) of
   the truth via the best shared dominator;
3. for low-degree nodes, the exact ball of radius D inside the subgraph
   induced by low-degree nodes, which answers close pairs whose shortest
   path avoids high-degree nodes entirely;

plus an embedded threshold-D label (exact for far pairs).  The decoder takes
the minimum over every available candidate: each candidate is individually
an upper bound, and for every connected pair at least one candidate is
within r, so the reported value always lands in [dist, dist + r].

The textbook parameters t = ceil(r * ln(n)^10) and D = floor(r ln n / (4 ln t))
degenerate at desk scale (ln(n)^10 dwarfs n), so both are first-class
overridable knobs and the test corpus drives explicit (r, t, D) triples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bits import Bits, SetReader, concat_ragged, fixed_bits
from .errors import GraphError
from .graph import INF, Graph, _far, _integer, _node_ids, _within
from .labels import LabelSet, Scheme, gamma_fields, register, required
from .preserving import (
    FullLabel, PreservingParams, _full_labels, _full_pieces, _header_bits, _matrix, _mix, _pair,
    _read_headers, _read_tables, _route_values, _table_bits,
)

__all__ = [
    "AdditiveParams",
    "power_graph",
    "high_degree_set",
    "greedy_dominating_set",
    "ball_in_induced",
    "encode_additive",
]


@dataclass(frozen=True)
class AdditiveParams:
    """Error budget r plus optional overrides for the degree threshold t and
    the embedded exactness threshold D; None means the defaults above."""

    r: int
    t: int | None = None
    D: int | None = None
    seed: int = 0

    def __post_init__(self):  # NumPy integers are stored as ints; t and D may stay None
        for key in ("r", "t", "D", "seed"):
            value = getattr(self, key)
            if value is not None or key in ("r", "seed"):
                object.__setattr__(self, key, _integer(value, f"additive param {key}"))
        if self.r < 2:
            raise GraphError(f"additive error budget r must be >= 2, got {self.r}")
        if self.t is not None and self.t < 1:
            raise GraphError("degree threshold t must be >= 1")
        if self.D is not None and self.D < 2:
            raise GraphError("threshold D must be >= 2")

    def resolve(self, n: int) -> tuple[int, int, int]:
        """Concrete (r, t, D) for a graph on n nodes, defaults clamped to
        stay meaningful at small n."""
        r = self.r
        if n > 1 and r > n ** 0.1:
            warnings.warn(
                f"r={r} exceeds n^(1/10)={n ** 0.1:.2f}; proceeding anyway",
                stacklevel=2,
            )
        ln = math.log(n) if n > 1 else 1.0
        t = self.t if self.t is not None else math.ceil(r * ln**10)
        t = max(1, min(t, n))
        if self.D is not None:
            d = self.D
        elif t >= 2:
            d = math.floor(r * ln / (4.0 * math.log(t)))
        else:
            d = 2
        d = max(2, min(d, max(n, 2)))
        return r, t, d


def _check_unit(g: Graph, what: str) -> None:
    if not g.is_unit_weight():
        raise GraphError(f"{what} expects a unit-weight graph")


def _induced(g: Graph, excluded) -> tuple[np.ndarray, Graph]:
    """The nodes of g outside `excluded` (ascending) and the subgraph they
    induce, node i of which is the i-th of them."""
    keep = np.ones(g.n, dtype=bool)
    keep[list(excluded)] = False
    ends = np.asarray(g.edges, dtype=np.int64).reshape(-1, 3)[:, :2]
    ends = ends[keep[ends].all(axis=1)]
    return np.flatnonzero(keep), Graph(int(keep.sum()), (np.cumsum(keep) - 1)[ends].tolist())


def power_graph(g: Graph, radius: int) -> Graph:
    """Graph with an edge between every pair at distance 1..radius in g."""
    _check_unit(g, "power graph")
    if _integer(radius, "power-graph radius") < 1:
        raise GraphError(f"power-graph radius must be >= 1, got {radius}")
    us, vs = np.nonzero(np.triu(_within(g.tables()[0], radius), 1))
    return Graph(g.n, zip(us.tolist(), vs.tolist()))


def high_degree_set(gr: Graph, t: int) -> set[int]:
    """Nodes of degree >= t in the power graph."""
    t = _integer(t, "degree threshold t")
    return {u for u in range(gr.n) if gr.degree(u) >= t}


def greedy_dominating_set(gr: Graph, targets) -> set[int]:
    """Greedy max-coverage dominating set: every target ends up in S or
    adjacent to S.  Candidates are all nodes; ties break to the smallest id.
    Finding a minimum dominating set is NP-hard; greedy is the usual
    ln-factor stand-in and keeps S small in practice."""
    targets = _node_ids(gr, targets, "target id")
    if not targets:
        return set()
    index = {v: i for i, v in enumerate(targets)}
    cover = [0] * gr.n
    for i, v in enumerate(targets):
        bit = 1 << i
        cover[v] |= bit
        for nb, _ in gr.adj[v]:
            cover[nb] |= bit
    remaining = (1 << len(targets)) - 1
    chosen: set[int] = set()
    while remaining:
        best, best_gain = -1, 0
        for v in range(gr.n):
            gain = (cover[v] & remaining).bit_count()
            if gain > best_gain:
                best, best_gain = v, gain
        assert best >= 0, "a target always dominates itself"
        chosen.add(best)
        remaining &= ~cover[best]
    return chosen


def ball_in_induced(g: Graph, excluded, u: int, depth: int) -> dict[int, int]:
    """Distances from u within the subgraph induced by V minus `excluded`,
    truncated at the given radius."""
    _check_unit(g, "induced ball")
    excluded = set(_node_ids(g, excluded, "excluded id"))
    (u,) = _node_ids(g, [u], "ball center")
    if _integer(depth, "ball depth") < 0:
        raise GraphError(f"ball depth must be >= 0, got {depth}")
    if u in excluded:
        raise GraphError(f"ball center {u} is in the excluded set")
    ids, sub = _induced(g, excluded)
    row = sub.tables()[0][np.searchsorted(ids, u)]
    near = np.flatnonzero(_within(row, depth))
    return dict(zip(ids[near].tolist(), row[near].tolist()))


@dataclass
class AdditiveLabel:
    n: int
    id: int
    r: int
    t: int
    D: int
    high: bool
    dom: np.ndarray  # distances to the dominators, a view of the route table (_sentinel if absent)
    ball: dict       # node id -> induced distance (low-degree nodes only)
    full: FullLabel

    def __post_init__(self):  # decode candidates, see preserving._pair
        self.routes = [self.dom, *self.full.routes]
        self.tables = [self.ball, *self.full.tables]


def encode_additive(g: Graph, p: AdditiveParams) -> LabelSet:
    """Labels decoding within [dist, dist + r] for every connected pair."""
    _check_unit(g, "additive scheme")
    n = g.n
    if n == 0:
        return LabelSet(
            "additive", 0, {"r": p.r, "t": 1, "D": 2, "dominators": 0}, []
        )
    r, t, D = p.resolve(n)
    gr = power_graph(g, r // 2)
    high = high_degree_set(gr, t)
    dominators = sorted(greedy_dominating_set(gr, high))
    dom_table = g.tables()[0][np.asarray(dominators, dtype=np.intp)].T  # narrow
    full, _, full_meta = _full_pieces(g, PreservingParams(D=D, seed=_mix(p.seed, 313)), n)
    dom_width = max(1, n.bit_length())
    ball_width = max(1, D.bit_length())
    is_high = np.zeros(n, dtype=bool)
    is_high[list(high)] = True
    present = dom_table != _far(dom_table)
    flags = np.column_stack([is_high, present]).astype(np.uint8)  # high bit, dominator bitmap
    # each low-degree node's radius-D ball in the subgraph the low-degree
    # nodes induce; a high-degree node writes none
    low, sub = _induced(g, high)
    sub_weight = sub.tables()[0]
    rows, cols = np.nonzero(_within(sub_weight, D))
    ball_sizes = np.zeros(n, dtype=np.intp)
    ball_sizes[low] = np.bincount(rows, minlength=low.size)
    labels = concat_ragged([
        _header_bits(n, n, r, t, D, len(dominators) + 1),
        (flags.ravel(), np.full(n, flags.shape[1])),
        (fixed_bits(dom_table[present], dom_width), dom_width * present.sum(axis=1)),
        *_table_bits(~is_high, ball_sizes, low[cols], sub_weight[rows, cols], ball_width),
        *full,
    ])
    params = {"r": r, "t": t, "D": D, "dominators": len(dominators)}
    meta = {
        "high_degree": sorted(high),
        "dominators": dominators,
        "ball_sizes": ball_sizes[low].tolist(),
        "full": full_meta,
    }
    return LabelSet("additive", n, params, labels, meta=meta)


def parse_additive_set(labels: list[Bits]) -> list[AdditiveLabel]:
    with SetReader(labels) as rd:
        n, ids, r, t, D, ndom = _read_headers(
            rd, (0, "error budget r"), (0, "degree threshold t"), (0, "threshold D"),
            (1, "dominator count"))
        high = rd.fixed(1).astype(bool)
        present = rd.bitmap(ndom)
        dom = _route_values(rd.packed(present.sum(axis=1), max(1, n.bit_length())), n)
        balls = _read_tables(rd, n, max(1, D.bit_length()), np.flatnonzero(~high))
        # the dominator columns lead the route table, the levels follow
        full, table = _full_labels(rd, n, [(present, dom)])
    return [
        AdditiveLabel(n, i, r, t, D, h, row[:ndom], ball, f)
        for i, h, row, ball, f in zip(ids.tolist(), high.tolist(), table, balls, full)
    ]


def _encode(g: Graph, seed: int, opts: dict) -> LabelSet:
    r = required(opts, "r", "additive")
    return encode_additive(g, AdditiveParams(r=r, t=opts.get("t"), D=opts.get("dd"), seed=seed))


register(Scheme(
    "additive", 7, _encode, parse_additive_set, _pair, _matrix,
    *gamma_fields(("r", 0), ("t", 0), ("D", 0), ("dominators", 1)),
    contract=lambda p, w, h, d: {
        "additive: decoded exceeds dist + r": (w != INF) & (d > w + p["r"]),
        "additive: finite answer for a disconnected pair": (w == INF) & (d != INF),
    },
    bound=lambda n, p: n / p["r"],
    carried=lambda label: {"r": label.r, "t": label.t, "D": label.D, "dominators": label.dom.size},
))
