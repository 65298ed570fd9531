"""Exact distance labels for bounded-degree and sparse graphs.

High-degree nodes are split into a chain of copies joined by 0-weight edges,
which bounds the degree while preserving every pairwise distance (the chain
adds hops but no weight).  On the transformed graph each node stores a small
near table (everything within hop distance < D, with true weighted
distances) next to a threshold-D label from `preserving`; the near table
answers close pairs, the threshold label answers everything else, so the
combined scheme is exact for all pairs.

The sparse wrapper picks the split parameter k = max(ceil(m/n), 3), labels
the transformed graph with degree bound k, and writes only the labels of the
first copies, which reuse the original node ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bits import Bits, SetReader, concat_ragged
from .errors import GraphError
from .graph import Graph, _integer, _within
from .labels import LabelSet, Scheme, gamma_fields, register
from .preserving import (
    FullLabel, PreservingParams, _exact_everywhere, _full_labels, _full_pieces, _header_bits,
    _matrix, _mix, _pair, _read_headers, _read_tables, _table_bits,
)

__all__ = [
    "SplitResult",
    "split_transform",
    "encode_bounded_degree",
    "encode_sparse",
    "bounded_degree_threshold",
]


@dataclass
class SplitResult:
    """Degree-reduction output.

    gprime: the transformed graph (weights in {0, 1}, max degree <= k).
    rep:    original node -> id of its first copy (always the identity here;
            originals keep ids 0..n-1).
    origin: transformed node -> (original node, copy index).
    """

    gprime: Graph
    rep: list[int]
    origin: list[tuple[int, int]]


def split_transform(g: Graph, k: int) -> SplitResult:
    """Split every node of degree > k into ceil(deg/(k-2)) chained copies.

    Copies are joined consecutively by 0-weight edges and each original edge
    endpoint is assigned first-fit to a copy whose degree is still below k.
    Distances between first copies equal the original distances.
    """
    if _integer(k, "split parameter k") < 3:
        raise GraphError(f"split parameter k must be >= 3, got {k}")
    if not g.is_unit_weight():
        raise GraphError("split transform expects a unit-weight input graph")
    n = g.n
    deg = g.degrees()
    copies: list[list[int]] = [[u] for u in range(n)]
    origin: list[tuple[int, int]] = [(u, 0) for u in range(n)]
    next_id = n
    for u in range(n):
        if deg[u] > k:
            extra = math.ceil(deg[u] / (k - 2)) - 1
            for i in range(extra):
                copies[u].append(next_id)
                origin.append((u, i + 1))
                next_id += 1
    edges: list[tuple[int, int, int]] = []
    capacity: dict[int, int] = {}
    for u in range(n):
        chain = copies[u]
        for a, b in zip(chain, chain[1:]):
            edges.append((a, b, 0))
        for idx, c in enumerate(chain):
            chain_deg = 0 if len(chain) == 1 else (1 if idx in (0, len(chain) - 1) else 2)
            capacity[c] = k - chain_deg
    cursor = [0] * n
    ends: list[int] = []
    for u, v, _ in g.edges:
        for x in (u, v):
            while capacity[copies[x][cursor[x]]] == 0:
                cursor[x] += 1
            c = copies[x][cursor[x]]
            capacity[c] -= 1
            ends.append(c)
    for i in range(0, len(ends), 2):
        edges.append((ends[i], ends[i + 1], 1))
    return SplitResult(Graph(next_id, edges), list(range(n)), origin)


def bounded_degree_threshold(n: int, delta: int) -> int:
    """Exactness threshold for degree bound delta: ceil(ln n / (1 + 2 ln delta)),
    clamped to at least 2 so the doubling levels stay meaningful."""
    if n <= 1:
        return 2
    return max(2, math.ceil(math.log(n) / (1.0 + 2.0 * math.log(max(delta, 1)))))


@dataclass
class BoundedLabel:
    n: int
    id: int
    delta: int
    D: int
    near: dict  # node id -> true weighted distance, for hop distance < D
    full: FullLabel

    def __post_init__(self):  # decode candidates, see preserving._pair
        self.routes, self.tables = self.full.routes, [self.near, *self.full.tables]


def encode_bounded_degree(g: Graph, delta: int, seed: int = 0, *, _count=None) -> LabelSet:
    """Near table (hop-radius D-1 ball, true weighted distances) plus a
    threshold-D label.  Exact for all pairs on graphs of max degree <= delta.

    `_count` (internal) writes only the labels of nodes 0.._count-1; the
    threshold levels are still certified on all of g.
    """
    delta = _integer(delta, "degree bound")
    if delta < 0:
        raise GraphError("degree bound must be >= 0")
    for u in range(g.n):
        if g.degree(u) > delta:
            raise GraphError(f"node {u} has degree {g.degree(u)} > bound {delta}")
    n = g.n
    count = n if _count is None else _count
    D = bounded_degree_threshold(n, delta)
    weight, hops = g.tables()
    full, _, full_meta = _full_pieces(g, PreservingParams(D=D, seed=_mix(seed, 71)), count)
    near_width = max(1, (D - 1).bit_length() + 1)
    rows, cols = np.nonzero(_within(hops[:count], D - 1))
    near_sizes = np.bincount(rows, minlength=count)
    labels = concat_ragged([
        _header_bits(n, count, delta + 1, D),
        *_table_bits(np.ones(count, dtype=bool), near_sizes, cols, weight[rows, cols], near_width),
        *full,
    ])
    params = {"delta": delta, "D": D, "k": delta}
    meta = {"near_sizes": near_sizes.tolist(), "full": full_meta}
    return LabelSet("bdeg", n, params, labels, meta=meta)


def parse_bounded_set(labels: list[Bits]) -> list[BoundedLabel]:
    with SetReader(labels) as rd:
        n, ids, delta, D = _read_headers(rd, (1, "degree bound"), (0, "threshold"))
        near = _read_tables(rd, n, max(1, (D - 1).bit_length() + 1), np.arange(len(labels)))
        full = _full_labels(rd)
    return [BoundedLabel(n, i, delta, D, d, f) for i, d, f in zip(ids.tolist(), near, full)]


def encode_sparse(g: Graph, seed: int = 0) -> LabelSet:
    """Exact labels for any unit-weight graph, sized for sparse inputs.

    Applies the split transform with k = max(ceil(m/n), 3), labels the
    bounded-degree result, and assigns each original node the label of its
    first copy.
    """
    if not g.is_unit_weight():
        raise GraphError("sparse scheme expects a unit-weight input graph")
    if g.n == 0:
        return LabelSet("sparse", 0, {"delta": 3, "D": 2, "k": 3}, [])
    k = max(math.ceil(g.m / g.n), 3)
    split = split_transform(g, k)
    inner = encode_bounded_degree(split.gprime, k, seed, _count=g.n)
    params = {"delta": k, "D": inner.params["D"], "k": k}
    meta = {
        "split_nodes": split.gprime.n,
        "split_edges": split.gprime.m,
        "inner": inner.meta,
    }
    return LabelSet("sparse", g.n, params, inner.labels, meta=meta)


def _encode_bdeg(g: Graph, seed: int, opts: dict) -> LabelSet:
    delta = opts.get("delta")
    return encode_bounded_degree(g, max(2, g.max_degree()) if delta is None else delta, seed)


_bdeg = Scheme(
    "bdeg", 5, _encode_bdeg, parse_bounded_set, _pair, _matrix,
    *gamma_fields(("delta", 1), ("D", 0), ("k", 0)),
    contract=_exact_everywhere, bound=lambda n, p: float(n),
    carried=lambda label: {"delta": label.delta, "D": label.D, "k": label.delta},
)
register(_bdeg)
register(replace(_bdeg, name="sparse", tag=6, encode=lambda g, seed, opts: encode_sparse(g, seed)))
