"""Undirected graphs with edge weights in {0, 1}.

Provides the graph type, 0-1 BFS shortest paths (weight plus hop count),
bit-parallel all-pairs distance tables used as the verification oracle, the
all-sources shortest-path DAG that landmark certification runs on, seeded
generators (uniform G(n, m), structured families, and the
bipartite-with-tails family whose distances encode an adjacency matrix),
and the plain-text edge-list format.

A Graph is immutable after construction: shortest-path queries on a shared
instance are safe to run concurrently and generators are pure functions of
(parameters, seed).
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_right
from collections import deque
from typing import NamedTuple

import numpy as np

from .errors import GraphError

__all__ = [
    "INF",
    "Graph",
    "build_graph",
    "sssp",
    "all_pairs",
    "all_pairs_with_hops",
    "distances_from",
    "gen_gnm",
    "gen_path",
    "gen_cycle",
    "gen_grid",
    "gen_star",
    "gen_structured",
    "gen_lower_bound_family",
    "parse_edge_list",
    "format_edge_list",
    "load_edge_list",
    "save_edge_list",
]

INF = 2**31 - 1
"""Unreachable sentinel: strictly larger than any feasible distance (> n)
and stable under integer (de)serialization."""


class Graph:
    """Undirected graph on nodes 0..n-1 with edge weights in {0, 1}.

    Construction validates the edge list and builds the adjacency structure;
    malformed input is rejected rather than silently repaired.
    """

    __slots__ = ("n", "edges", "adj", "_apsp", "_dag")

    def __init__(self, n: int, edge_list=()):
        n = int(n)
        if n < 0:
            raise GraphError(f"node count must be >= 0, got {n}")
        self.n = n
        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int, int]] = []
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in edge_list:
            if len(e) == 2:
                u, v, w = int(e[0]), int(e[1]), 1
            elif len(e) == 3:
                u, v, w = int(e[0]), int(e[1]), int(e[2])
            else:
                raise GraphError(f"edge {e!r}: expected (u, v) or (u, v, w)")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}, {w}): node id out of range 0..{n - 1}")
            if u == v:
                raise GraphError(f"edge ({u}, {v}, {w}): self-loops are not allowed")
            if w not in (0, 1):
                raise GraphError(f"edge ({u}, {v}, {w}): weight must be 0 or 1")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"edge ({u}, {v}, {w}): duplicate undirected edge")
            seen.add(key)
            edges.append((u, v, w))
            adj[u].append((v, w))
            adj[v].append((u, w))
        self.edges = edges
        self.adj = adj
        self._apsp = None
        self._dag = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adj]

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)

    def is_unit_weight(self) -> bool:
        return all(w == 1 for _, _, w in self.edges)

    def apsp(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached all-pairs (weight, hops) tables; see all_pairs_with_hops."""
        if self._apsp is None:
            self._apsp = _apsp_tables(self)
        return self._apsp

    def sp_dag(self) -> "ShortestPathDag":
        """Cached shortest-path DAG of the 0-weight-contracted graph; see
        ShortestPathDag."""
        if self._dag is None:
            self._dag = _sp_dag(self)
        return self._dag

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list) -> Graph:
    """Validate and construct a Graph from an (u, v[, w]) edge list."""
    return Graph(n, edge_list)


def _source_id(g: Graph, s) -> int:
    """s as a node id of g; GraphError unless it is an integer in 0..n-1."""
    try:
        i = operator.index(s)
    except TypeError:
        raise GraphError(f"source {s!r} is not an integer node id") from None
    if not 0 <= i < g.n:
        raise GraphError(f"source {i} out of range 0..{g.n - 1}")
    return i


def sssp(g: Graph, s: int) -> tuple[list[int], list[int]]:
    """Single-source shortest paths on 0/1 weights via double-ended-queue BFS.

    Returns (weight, hops) lists: minimum path weight from s, and minimum
    edge count among the minimum-weight paths, with (INF, INF) for
    unreachable nodes.  Zero-weight edges relax to the front of the deque;
    hop count breaks ties among equal-weight paths.
    """
    s = _source_id(g, s)
    dist = [INF] * g.n
    hops = [INF] * g.n
    dist[s] = hops[s] = 0
    dq = deque([(0, 0, s)])
    adj = g.adj
    while dq:
        dw, dh, u = dq.popleft()
        if dw != dist[u] or dh != hops[u]:
            continue  # stale entry
        for v, w in adj[u]:
            nw, nh = dw + w, dh + 1
            if nw < dist[v] or (nw == dist[v] and nh < hops[v]):
                dist[v] = nw
                hops[v] = nh
                if w == 0:
                    dq.appendleft((nw, nh, v))
                else:
                    dq.append((nw, nh, v))
    return dist, hops


# ---------------------------------------------------------------------------
# All-pairs oracle: a multi-source BFS that moves 64 sources per machine word.
# A bitset table has one row per node and one bit per source (source s at bit
# s % 64 of word s // 64).  The keys (weight, hops) are visited in
# lexicographic order, and the frontier of key (w, h) -- the (node, source)
# pairs at exactly that distance -- is
#
#     (N0(frontier(w, h-1)) | N1(frontier(w-1, h-1))) & ~reached
#
# where N0 / N1 OR together the rows of a node's 0-weight / 1-weight
# neighbours.  Weight and hops are kept as bit planes (plane b holds the pairs
# whose key has bit b set) and unpacked once at the end.  The work is
# O(L * (n^2 + m*n) / 64) word operations for L distinct keys, so graphs with
# a long hop diameter are the slow case.


def _csr(n: int, a: np.ndarray, b: np.ndarray):
    """Symmetric adjacency of the edges a[i]-b[i] on nodes 0..n-1 as
    (rows, starts, cols): node rows[k] has the neighbours
    cols[starts[k]:starts[k + 1]].  Only nodes with a neighbour are listed,
    because reduceat reads an empty segment as one element, not as no
    elements."""
    src = np.concatenate([a, b])
    cols = np.concatenate([b, a])[np.argsort(src, kind="stable")]
    counts = np.bincount(src, minlength=n)
    rows = np.flatnonzero(counts)
    return rows, (np.cumsum(counts) - counts)[rows], cols


def _or_neighbours(bits: np.ndarray, csr) -> np.ndarray:
    """Row v of the result ORs the rows of `bits` at v's neighbours."""
    rows, starts, cols = csr
    out = np.zeros_like(bits)
    if rows.size:
        out[rows] = np.bitwise_or.reduceat(bits[cols], starts, axis=0)
    return out


def _record(planes: list, key: int, bits: np.ndarray) -> None:
    """OR `bits` into plane b for every set bit b of key."""
    for b in range(key.bit_length()):
        if b == len(planes):
            planes.append(np.zeros_like(bits))
        if key >> b & 1:
            planes[b] |= bits


def _unpack(planes: list, unreached: np.ndarray) -> np.ndarray:
    """Read-only int64 table whose bit b is plane b's bit, INF where unreached."""
    n = unreached.shape[0]
    dt = np.min_scalar_type((1 << len(planes)) - 1)
    acc = np.zeros((n, n), dtype=dt)
    for b, plane in enumerate(planes):
        bit = np.unpackbits(plane.view(np.uint8), axis=1, count=n, bitorder="little")
        acc |= bit.astype(dt) << dt.type(b)
    out = acc.astype(np.int64)
    out[np.unpackbits(unreached.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)] = INF
    out.setflags(write=False)
    return out


def _apsp_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    n = g.n
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 3)
    unit = e[:, 2] == 1
    zero = None if unit.all() else _csr(n, e[~unit, 0], e[~unit, 1])
    one = _csr(n, e[unit, 0], e[unit, 1])
    ids = np.arange(n)
    start = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    start[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
    unreached = np.full_like(start, ~np.uint64(0))
    wplanes: list[np.ndarray] = []
    hplanes: list[np.ndarray] = []
    arriving = {0: start}  # h -> bits entering weight w at hop h (the sources at w = 0)
    w = 0
    while arriving:
        level = []
        h, last = min(arriving), max(arriving)
        front = None
        while front is not None or h <= last:
            cand = arriving.pop(h, None)
            if front is not None and zero is not None:
                z = _or_neighbours(front, zero)
                cand = z if cand is None else cand | z
            front = None
            if cand is not None:
                cand &= unreached
                if cand.any():
                    front = cand
                    unreached &= ~front
                    _record(wplanes, w, front)
                    if zero is not None:
                        _record(hplanes, h, front)
                    level.append((h, front))
            h += 1
        arriving = {h + 1: _or_neighbours(front, one) for h, front in level}
        w += 1
    weight = _unpack(wplanes, unreached)
    # without 0-weight edges every minimum-weight path has as many hops as weight
    return weight, weight if zero is None else _unpack(hplanes, unreached)


# ---------------------------------------------------------------------------
# Shortest-path DAG.  Members of one 0-weight component share a weight row,
# so shortest paths are asked about on the contracted unit-weight graph.  Its
# DAG for source s holds the edge x -> v when d(s, v) = d(s, x) + 1; one
# bitset per directed edge holds the sources whose DAG has it.


class ShortestPathDag(NamedTuple):
    """Graph-only state for shortest-path queries over many sources at once.

    comp maps each node to its 0-weight component (components numbered by
    smallest member); csr is the contracted unit-weight adjacency (rows,
    starts, cols) without loops or parallel edges; masks[p] is the source
    bitset of the edge cols[p] -> v, for the v whose segment holds p;
    unreached[v] is the bitset of the sources that cannot reach component
    v.  A bitset has one bit per source component s, at bit s % 64 of word
    s // 64, so unreached has shape (components, words).  Memory is
    O(m * components / 8) bytes.
    """

    comp: np.ndarray
    csr: tuple
    masks: np.ndarray
    unreached: np.ndarray


def _sp_dag(g: Graph) -> ShortestPathDag:
    weight = g.apsp()[0]
    # the members of a 0-weight component are the nodes at weight 0 from each
    # other, so the first 0 of a row is its component's smallest member
    rep, comp = np.unique((weight == 0).argmax(axis=1), return_inverse=True)
    ncomp = rep.size
    words = (ncomp + 63) // 64
    # a narrow copy of the contracted table, sources padded to whole words;
    # unreachable pairs (and the padding) hold top + 2, which no finite
    # distance plus one can equal
    top = int(weight.max(initial=0, where=weight < INF))
    table = np.full((ncomp, 64 * words), top + 2, dtype=np.min_scalar_type(top + 3))
    step = max(1, (1 << 19) // g.n)  # rows per block of a few MB
    block = np.empty((step, g.n), dtype=table.dtype)
    for i in range(0, ncomp, step):
        ids = rep[i:i + step]
        part = block[:ids.size]
        np.minimum(weight[ids], top + 2, out=part, casting="unsafe")
        table[i:i + ids.size, :ncomp] = np.take(part, rep, axis=1)
    # contracted unit-weight edges, once each, as keys lo * ncomp + hi
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 3)
    lo, hi = np.sort(comp[e[e[:, 2] == 1, :2]], axis=1).T
    keys = np.unique((lo * ncomp + hi)[lo != hi])
    csr = _csr(ncomp, keys // ncomp, keys % ncomp)
    rows, starts, cols = csr
    heads = np.repeat(rows, np.diff(np.append(starts, cols.size)))
    masks = np.empty((cols.size, words), dtype=np.uint64)
    for i in range(0, cols.size, step):
        tail = table[cols[i:i + step]]
        tail += 1
        masks[i:i + step] = np.packbits(
            table[heads[i:i + step]] == tail, axis=1, bitorder="little"
        ).view(np.uint64)
    unreached = np.packbits(table == top + 2, axis=1, bitorder="little").view(np.uint64)
    return ShortestPathDag(comp, csr, masks, unreached)


def all_pairs_with_hops(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs (weight, hops) tables as read-only int64 arrays with INF
    for unreachable pairs.  Agrees with n runs of sssp; this is the oracle
    the test harness trusts."""
    return g.apsp()


def all_pairs(g: Graph) -> np.ndarray:
    """All-pairs minimum path weights (the DistanceMatrix oracle)."""
    return g.apsp()[0]


def distances_from(g: Graph, sources) -> np.ndarray:
    """Weight rows from the given source nodes, as a (len(sources), n) table
    sliced from the cached all-pairs table.  Raises GraphError unless every
    source is an integer node id."""
    sources = [_source_id(g, s) for s in sources]
    if not sources:
        return np.zeros((0, g.n), dtype=np.int64)
    return g.apsp()[0][sources]


# ---------------------------------------------------------------------------
# Generators


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly m unit-weight edges, seeded."""
    total = n * (n - 1) // 2
    if m > total:
        raise GraphError(f"m={m} exceeds the {total} possible edges on {n} nodes")
    if m < 0:
        raise GraphError("m must be >= 0")
    rng = random.Random(seed)
    starts = [u * n - u * (u + 1) // 2 for u in range(max(n - 1, 0))]
    edges = []
    for t in rng.sample(range(total), m):
        u = bisect_right(starts, t) - 1
        v = t - starts[u] + u + 1
        edges.append((u, v, 1))
    edges.sort()
    return Graph(n, edges)


def gen_path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1, 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n, 1) for i in range(n)])


def gen_grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise GraphError("grid needs rows >= 1 and cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1, 1))
            if r + 1 < rows:
                edges.append((u, u + cols, 1))
    return Graph(rows * cols, edges)


def gen_star(leaves: int) -> Graph:
    if leaves < 0:
        raise GraphError("star needs leaves >= 0")
    return Graph(leaves + 1, [(0, i, 1) for i in range(1, leaves + 1)])


def gen_structured(kind: str, params: dict) -> Graph:
    """Dispatch for the structured families: path, cycle, grid, star."""
    if kind == "path":
        return gen_path(int(params["n"]))
    if kind == "cycle":
        return gen_cycle(int(params["n"]))
    if kind == "grid":
        return gen_grid(int(params["rows"]), int(params["cols"]))
    if kind == "star":
        return gen_star(int(params["leaves"]))
    raise GraphError(f"unknown structured kind {kind!r}")


def gen_lower_bound_family(k: int, tail: int, adj) -> tuple[Graph, list[int], list[int]]:
    """Bipartite (L, R) graph where each right node starts a path of `tail` nodes.

    Edge (L_i, R_j) exists iff adj[i][j] is 1.  Returns the graph, the ids of
    the left nodes, and the id of each path's last node w_j.  By construction
    dist(L_i, w_j) equals tail exactly when adj[i][j] = 1 and exceeds it (or
    is unreachable) otherwise, so the whole adjacency matrix can be read back
    from distance queries on 2k nodes.
    """
    if k < 1 or tail < 1:
        raise GraphError("need k >= 1 and a path length >= 1")
    adj = [[int(x) for x in row] for row in adj]
    if len(adj) != k or any(len(row) != k for row in adj):
        raise GraphError(f"adjacency matrix must be {k}x{k}")
    if any(x not in (0, 1) for row in adj for x in row):
        raise GraphError("adjacency entries must be 0 or 1")
    n = k + k * tail
    left = list(range(k))
    ends = []
    edges = []
    for j in range(k):
        start = k + j * tail
        for t in range(tail - 1):
            edges.append((start + t, start + t + 1, 1))
        ends.append(start + tail - 1)
    for i in range(k):
        for j in range(k):
            if adj[i][j]:
                edges.append((i, k + j * tail, 1))
    return Graph(n, edges), left, ends


# ---------------------------------------------------------------------------
# Edge-list text format: first line "n m", then m lines "u v w" (w optional,
# default 1), ASCII decimal, '#' starts a comment.


def parse_edge_list(text: str) -> Graph:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        payload = line.split("#", 1)[0].strip()
        if payload:
            rows.append((lineno, payload.split()))
    if not rows:
        raise GraphError("empty edge-list input")
    lineno, header = rows[0]
    if len(header) != 2:
        raise GraphError(f"line {lineno}: expected header 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError as exc:
        raise GraphError(f"line {lineno}: non-numeric header") from exc
    if len(rows) - 1 != m:
        raise GraphError(f"header promises {m} edges, found {len(rows) - 1}")
    edges = []
    for lineno, tok in rows[1:]:
        if len(tok) not in (2, 3):
            raise GraphError(f"line {lineno}: expected 'u v' or 'u v w'")
        try:
            edges.append(tuple(int(t) for t in tok))
        except ValueError as exc:
            raise GraphError(f"line {lineno}: non-numeric edge") from exc
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v} {w}" for u, v, w in g.edges]
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read())


def save_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_edge_list(g))
