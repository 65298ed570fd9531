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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bits import BitWriter, Bits, SetReader, pack_values
from .errors import GraphError, LabelError
from .graph import INF, Graph, distances_from
from .labels import LabelSet
from . import preserving
from .preserving import (
    FullLabel, PreservingParams, _full_labels, _full_pair, _min_scatter, _minplus, _mix,
    _read_headers, _read_tables, _shared, full_matrix,
)

__all__ = [
    "AdditiveParams",
    "power_graph",
    "high_degree_set",
    "greedy_dominating_set",
    "ball_in_induced",
    "encode_additive",
    "decode_additive",
]


@dataclass(frozen=True)
class AdditiveParams:
    """Error budget r plus optional overrides for the degree threshold t and
    the embedded exactness threshold D; None means the defaults above."""

    r: int
    t: int | None = None
    D: int | None = None
    seed: int = 0

    def __post_init__(self):
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


def _truncated_ball(g: Graph, u: int, depth: int, excluded=None) -> dict[int, int]:
    """BFS ball of the given hop radius; `excluded` nodes are impassable."""
    dist = {u: 0}
    frontier = deque([u])
    while frontier:
        x = frontier.popleft()
        if dist[x] == depth:
            continue
        for v, _ in g.adj[x]:
            if v not in dist and (excluded is None or v not in excluded):
                dist[v] = dist[x] + 1
                frontier.append(v)
    return dist


def power_graph(g: Graph, radius: int) -> Graph:
    """Graph with an edge between every pair at distance 1..radius in g."""
    _check_unit(g, "power graph")
    if radius < 1:
        raise GraphError(f"power-graph radius must be >= 1, got {radius}")
    if radius == 1:
        return Graph(g.n, list(g.edges))
    edges = []
    for u in range(g.n):
        for v in _truncated_ball(g, u, radius):
            if v > u:
                edges.append((u, v, 1))
    return Graph(g.n, edges)


def high_degree_set(gr: Graph, t: int) -> set[int]:
    """Nodes of degree >= t in the power graph."""
    return {u for u in range(gr.n) if gr.degree(u) >= t}


def greedy_dominating_set(gr: Graph, targets) -> set[int]:
    """Greedy max-coverage dominating set: every target ends up in S or
    adjacent to S.  Candidates are all nodes; ties break to the smallest id.
    Finding a minimum dominating set is NP-hard; greedy is the usual
    ln-factor stand-in and keeps S small in practice."""
    targets = sorted({int(x) for x in targets})
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
    excluded = set(excluded)
    if u in excluded:
        raise GraphError(f"ball center {u} is in the excluded set")
    return _truncated_ball(g, u, depth, excluded)


@dataclass
class AdditiveLabel:
    n: int
    id: int
    r: int
    t: int
    D: int
    high: bool
    dom: np.ndarray  # int64 distances to the dominator list, INF if unreachable
    ball: dict       # node id -> induced distance (low-degree nodes only)
    full: FullLabel


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
    dom_table = distances_from(g, dominators).T if dominators else np.zeros((n, 0), np.int64)
    full_ls = preserving.encode_full(g, PreservingParams(D=D, seed=_mix(p.seed, 313)))
    dom_width = max(1, n.bit_length())
    ball_width = max(1, D.bit_length())
    labels = []
    ball_sizes = []
    for u in range(n):
        w = BitWriter()
        w.write_gamma(n + 1)
        w.write_gamma(u + 1)
        w.write_gamma(r)
        w.write_gamma(t)
        w.write_gamma(D)
        w.write_gamma(len(dominators) + 1)
        w.write_bit(u in high)
        row = dom_table[u]
        present = row != INF
        val, wd = pack_values(present.astype(np.int64), 1)
        w.write(val, wd)
        val, wd = pack_values(row[present], dom_width)
        w.write(val, wd)
        if u not in high:
            ball = _truncated_ball(g, u, D, high)
            ball_sizes.append(len(ball))
            ids = sorted(ball)
            w.write_id_set(ids)
            val, wd = pack_values(np.array([ball[i] for i in ids], np.int64), ball_width)
            w.write(val, wd)
        w.write_bits(full_ls.labels[u])
        labels.append(w.getvalue())
    params = {"r": r, "t": t, "D": D, "dominators": len(dominators)}
    meta = {
        "high_degree": sorted(high),
        "dominators": dominators,
        "ball_sizes": ball_sizes,
        "full": full_ls.meta,
    }
    return LabelSet("additive", n, params, labels, meta=meta)


def parse_additive_set(labels: list[Bits]) -> list[AdditiveLabel]:
    rd = SetReader(labels)
    n, ids = _read_headers(rd)
    r = _shared(rd.gamma(), "error budget r")
    t = _shared(rd.gamma(), "degree threshold t")
    D = _shared(rd.gamma(), "threshold D")
    ndom = _shared(rd.gamma() - 1, "dominator count")
    high = rd.fixed(1).astype(bool)
    present = rd.bitmap(ndom)
    dom = np.full(present.shape, INF, dtype=np.int64)
    dom[present] = rd.packed(present.sum(axis=1), max(1, n.bit_length()))
    balls = _read_tables(rd, n, max(1, D.bit_length()), np.flatnonzero(~high))
    return [
        AdditiveLabel(n, i, r, t, D, h, row, ball, f)
        for i, h, row, ball, f in zip(ids.tolist(), high.tolist(), dom, balls, _full_labels(rd))
    ]


def parse_additive(bits: Bits) -> AdditiveLabel:
    return parse_additive_set([bits])[0]


def _encoding(a: AdditiveLabel) -> tuple:
    return a.n, a.r, a.t, a.D, a.dom.size


def _additive_pair(a: AdditiveLabel, b: AdditiveLabel) -> int:
    if _encoding(a) != _encoding(b):
        raise LabelError("additive labels come from different encodings")
    best = INF
    hit = a.ball.get(b.id)
    if hit is not None and hit < best:
        best = hit
    hit = b.ball.get(a.id)
    if hit is not None and hit < best:
        best = hit
    if a.dom.size:
        m = int(np.add(a.dom, b.dom).min())
        if m < INF and m < best:
            best = m
    cand = _full_pair(a.full, b.full)
    return cand if cand < best else best


def decode_additive(a: Bits, b: Bits) -> int:
    """Minimum over the ball hits, the best shared dominator route, and the
    embedded threshold decode; always within [dist, dist + r] when the pair
    is connected, INF otherwise."""
    return _additive_pair(parse_additive(a), parse_additive(b))


def additive_matrix(parsed: list[AdditiveLabel]) -> np.ndarray:
    if not parsed:
        return np.zeros((0, 0), dtype=np.int64)
    if any(_encoding(p) != _encoding(parsed[0]) for p in parsed):
        raise LabelError("additive labels come from different encodings")
    out = full_matrix([p.full for p in parsed])
    np.minimum(out, _minplus([[p.dom] for p in parsed]), out=out)
    return _min_scatter(out, enumerate(p.ball for p in parsed))
