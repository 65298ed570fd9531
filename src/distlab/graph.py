"""Undirected graphs with edge weights in {0, 1}.

Provides the graph type, 0-1 BFS shortest paths (weight plus hop count), the
bit-parallel all-pairs oracle (hop distances as BFS bit planes and weights
on the 0-weight contraction, which the encoders read, and the narrow tables
unpacked from them, which verification reads), the all-sources
shortest-path DAG that landmark certification runs on, seeded
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

    __slots__ = ("n", "edges", "adj", "_con", "_planes", "_tables", "_apsp", "_dag")

    def __init__(self, n: int, edge_list=()):
        n = _integer(n, "node count")
        if n < 0:
            raise GraphError(f"node count must be >= 0, got {n}")
        self.n = n
        seen: set[tuple[int, int]] = set()
        edges: list[tuple[int, int, int]] = []
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        index = operator.index
        for e in edge_list:
            try:
                size = len(e)
                if size not in (2, 3):
                    raise TypeError
                u, v, w = index(e[0]), index(e[1]), index(e[2]) if size == 3 else 1
            except TypeError:
                raise GraphError(f"edge {e!r}: expected (u, v) or (u, v, w) of integers") from None
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
        self._con = None
        self._planes = None
        self._tables = None
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

    def _contraction(self) -> "_Contraction":
        """Cached 0-weight contraction and its narrow weight table, which
        the encoders read weights from (through comp), and tables() and
        sp_dag() read."""
        if self._con is None:
            self._con = _contract(self)
        return self._con

    def _hops(self) -> "_HopPlanes":
        """Cached hop oracle as the BFS's bit planes, which the encoders
        compare through _HopPlanes.at_most; see _hop_planes."""
        if self._planes is None:
            self._planes = _hop_planes(self)
        return self._planes

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached narrow all-pairs (weight, hops) tables: the narrowest
        unsigned dtype that holds every finite distance below its max, which
        marks unreachable pairs (see _far and _within).  Without 0-weight
        edges both are the contraction's table; with them, the weights are
        expanded from it through comp and the hops unpacked from the cached
        planes (_hops).  This is the verify and public view of the oracle:
        the encoders read the planes and the contraction instead, so they
        never build an n x n byte table of a graph with 0-weight edges."""
        if self._tables is None:
            self._tables = _apsp_tables(self)
        return self._tables

    def top_hop(self) -> int:
        """The largest hop distance between two nodes that reach each
        other, 0 without an edge: the depth of the plane BFS (_hops), the
        largest finite entry of the hops table of tables()."""
        return self._hops().depth

    def apsp(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached read-only int64 (weight, hops) tables with INF for
        unreachable pairs, widened from tables(); see all_pairs_with_hops."""
        if self._apsp is None:
            weight, hops = self.tables()
            wide = _widen(weight)
            self._apsp = (wide, wide if hops is weight else _widen(hops))
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


def _integer(x, what: str) -> int:
    """x as a Python int; GraphError unless it is an integer (a bool, a NumPy
    bool or a NumPy integer counts; a float, a string or None does not)."""
    if isinstance(x, np.bool_):  # no __index__ on NumPy 2, a deprecated one before
        return int(x)
    try:
        return operator.index(x)
    except TypeError:
        raise GraphError(f"{what} {x!r} is not an integer") from None


def _source_id(g: Graph, s) -> int:
    """s as a node id of g; GraphError unless it is an integer in 0..n-1."""
    i = _integer(s, "source")
    if not 0 <= i < g.n:
        raise GraphError(f"source {i} out of range 0..{g.n - 1}")
    return i


def _node_ids(g: Graph, ids, what: str) -> list[int]:
    """The distinct ids, sorted; GraphError unless each is an integer in 0..n-1."""
    out = sorted({_integer(x, what) for x in ids})
    if out and not (0 <= out[0] and out[-1] < g.n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise GraphError(f"{what} {bad} out of range 0..{g.n - 1}")
    return out


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
# All-pairs oracle.  Members of one 0-weight component are at weight 0 from
# each other, so they share a weight row: the weight table is a unit-weight
# BFS on the contracted graph (one node per component, each unit edge between
# two components once), expanded through the component map.  A path has
# minimum weight exactly when each of its edges x -> v is tight for the
# source s, d(s, v) = d(s, x) + w(x, v).  A 0-weight edge always is, and a
# unit edge inside one component never is, so the hops table is a plain BFS
# on the original graph in which each edge only carries the sources it is
# tight for: a unit edge between two components carries the shortest-path
# DAG mask of its contracted edge, with the source bits mapped from
# components to nodes.
#
# Both passes are one multi-source BFS that moves 64 sources per machine
# word.  A bitset table has one row per node and one bit per source (source s
# at bit s % 64 of word s // 64).  Each distance level ORs every node's
# neighbours' frontier rows, each ANDed with its edge's source bitset when
# the edges have them, and drops the pairs already reached.  Distances are
# kept as bit planes (plane b holds the pairs whose distance has bit b set),
# next to the unreached set and the BFS depth, the largest finite distance.
# For n_c components, Lw weight levels and Lh hop levels the work is
# O(Lw * (n_c^2 + m*n_c) / 64) plus O(Lh * (n^2 + m*n) / 64) word
# operations, and an O(m * n) mask build; without 0-weight edges the graph
# is its own contraction and weight is hops.
#
# The encoders read the oracle in two parts, neither of them an n x n table
# of the graph: the hops as the cached planes (Graph._hops), compared by
# _HopPlanes.at_most into bitset rows at P/8 bytes per pair for P planes,
# and the weights from the contraction's table through comp (_weights).  A
# graph without 0-weight edges keeps its contraction BFS's planes, so every
# graph takes this one path, and Graph.top_hop() is the BFS depth.
#
# Graph.tables() is the verify and public view: narrow tables unpacked on
# demand, each the narrowest unsigned dtype in which every finite distance
# lies below the dtype's max, and the max marks unreachable pairs, so it
# costs n^2 bytes per table on graphs whose distances fit in a byte (two
# tables with 0-weight edges, one without).  The library compares them
# through _within, which never counts the sentinel as a distance; only the
# public API (Graph.apsp and the functions below that read it) widens them
# to int64 with INF.


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


def _heads(csr) -> np.ndarray:
    """heads[p] is the node whose segment holds p, for the edge cols[p] -> heads[p]."""
    rows, starts, cols = csr
    return np.repeat(rows, np.diff(np.append(starts, cols.size)))


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component of each node under the edges a[i]-b[i], numbered in order of
    smallest member."""
    low = np.arange(n)  # a node of v's component, never above v
    while a.size:
        nxt = low.copy()
        np.minimum.at(nxt, a, low[b])
        np.minimum.at(nxt, b, low[a])
        nxt = nxt[nxt]  # pointer jumping: paths of 0-weight edges take log steps
        if np.array_equal(nxt, low):
            break
        low = nxt
    return np.unique(low, return_inverse=True)[1]


def _bitset(bits: np.ndarray) -> np.ndarray:
    """Rows of a boolean (rows, k) array as bitsets, column j at bit j % 64
    of word j // 64."""
    out = np.zeros((len(bits), (bits.shape[1] + 63) // 64), dtype=np.uint64)
    out.view(np.uint8)[:, :(bits.shape[1] + 7) // 8] = np.packbits(bits, axis=1, bitorder="little")
    return out


def _unbits(bits: np.ndarray, k: int) -> np.ndarray:
    """Inverse of _bitset: the first k bits of each row, one uint8 per bit."""
    return np.unpackbits(bits.view(np.uint8), axis=1, count=k, bitorder="little")


def _record(planes: list, key: int, bits: np.ndarray) -> None:
    """OR `bits` into plane b for every set bit b of key."""
    for b in range(key.bit_length()):
        if b == len(planes):
            planes.append(np.zeros_like(bits))
        if key >> b & 1:
            planes[b] |= bits


def _tail(k: int) -> np.uint64:
    """The bits of a bitset row's last word that hold one of k columns."""
    return np.uint64((1 << (k % 64 or 64)) - 1)


class _HopPlanes(NamedTuple):
    """Hop distances between every two of n nodes as bitset rows (see
    _bitset), one (n, words) uint64 array per bit: planes[b] holds the pairs
    whose distance has bit b set, unreached the pairs that do not reach each
    other (padding bits zero in both), and depth is the largest finite
    distance, 0 without an edge."""

    planes: list
    unreached: np.ndarray
    depth: int

    def at_most(self, bound: int, rows=slice(None), k: int | None = None) -> np.ndarray:
        """hops <= bound as bitset rows of the given rows (a slice or ids),
        over columns 0..k-1 (every column when None), bits k and above zero.
        Unreachable pairs are never within the bound, and a negative bound
        holds for no pair.  One bit-sliced compare, lowest plane first: after
        plane b, `over` holds the pairs whose distance, cut to its low b + 1
        bits, exceeds the bound cut the same way."""
        k = len(self.unreached) if k is None else k
        cols = slice(0, (k + 63) // 64)
        out = np.invert(self.unreached[rows, cols])
        if bound < 0:
            out[:] = 0
        elif bound >> len(self.planes) == 0:  # else every distance, below 2^planes, is within
            over = np.zeros_like(out)
            for b, plane in enumerate(self.planes):
                if bound >> b & 1:
                    over &= plane[rows, cols]
                else:
                    over |= plane[rows, cols]
            out &= np.invert(over, out=over)
        if out.shape[1]:
            out[:, -1] &= _tail(k)
        return out


def _bfs(n: int, csr, masks=None) -> _HopPlanes:
    """Hop distances between every two nodes of 0..n-1 over the edges of
    csr, as bit planes.  The edge cols[p] -> v carries the sources whose bit
    is set in masks[p], or every source when masks is None."""
    rows, starts, cols = csr
    ids = np.arange(n)
    front = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
    front[ids, ids // 64] = np.uint64(1) << (ids % 64).astype(np.uint64)
    unreached = ~front
    if n:
        unreached[:, -1] &= _tail(n)
    planes: list[np.ndarray] = []
    depth = 0
    while True:
        nxt = np.zeros_like(front)
        if rows.size:
            gathered = front[cols]
            if masks is not None:
                gathered &= masks
            nxt[rows] = np.bitwise_or.reduceat(gathered, starts, axis=0)
            del gathered
        nxt &= unreached
        if not nxt.any():
            break
        depth += 1
        unreached &= ~nxt
        _record(planes, depth, nxt)
        front = nxt
    return _HopPlanes(planes, unreached, depth)


def _unpack(hops: _HopPlanes) -> np.ndarray:
    """The planes as a narrow (n, n) table holding _far(table) for
    unreachable pairs, unpacked a few MB at a time."""
    n = len(hops.unreached)
    dt = np.min_scalar_type(hops.depth + 1)  # its max, the sentinel, lies above the depth
    table = np.zeros((n, n), dtype=dt)
    step = max(1, (1 << 20) // max(n, 1))
    for i in range(0, n, step):
        block = table[i:i + step]
        for b, plane in enumerate(hops.planes):
            bit = _unbits(plane[i:i + step], n).astype(dt, copy=False)
            bit <<= dt.type(b)
            block |= bit
        block[_unbits(hops.unreached[i:i + step], n).view(bool)] = _far(table)
    return table


def _far(table: np.ndarray) -> int:
    """The value a narrow oracle table holds for unreachable pairs: the max
    of its dtype, above every finite distance in it."""
    return int(np.iinfo(table.dtype).max)


def _within(table: np.ndarray, bound: int) -> np.ndarray:
    """table <= bound as a boolean array, False for unreachable pairs however
    large the bound (the bound is never cast to the table's dtype)."""
    return table <= min(bound, _far(table) - 1)


def _int64(values: np.ndarray) -> np.ndarray:
    """int64 copy of narrow oracle entries, with INF for unreachable pairs."""
    out = np.array(values, dtype=np.int64)
    out[values == _far(values)] = INF
    return out


def _widen(table: np.ndarray) -> np.ndarray:
    """Read-only int64 copy of a whole narrow table, with INF for unreachable
    pairs: the public oracle, built only by Graph.apsp()."""
    out = _int64(table)
    out.setflags(write=False)
    return out


def _tight(table: np.ndarray, heads: np.ndarray, tails: np.ndarray, sources=None) -> np.ndarray:
    """Source bitsets of the edges tails[i] -> heads[i] between components of
    a contracted weight table: bit j is set when the edge lies on a shortest
    path from source j, table[heads[i], j] = table[tails[i], j] + w with both
    finite, where w is 0 inside one component and 1 between two.  `sources`,
    if given, maps each bit to its column of the table.  Built a few MB at a
    time."""
    width = table.shape[1] if sources is None else sources.size
    out = np.empty((heads.size, (width + 63) // 64), dtype=np.uint64)
    step = max(1, (1 << 19) // max(width, 1))
    far = _far(table)
    for i in range(0, heads.size, step):
        h, t = heads[i:i + step], tails[i:i + step]
        tail = table[t]
        reached = tail != far
        tail += (h != t)[:, None]  # the sentinel wraps to 0 here; `reached` drops it
        tight = table[h] == tail
        tight &= reached
        out[i:i + step] = _bitset(tight if sources is None else np.take(tight, sources, axis=1))
    return out


class _Contraction(NamedTuple):
    """The graph with each 0-weight component contracted to one node: comp
    maps each node to its component (numbered by smallest member), csr is
    the contracted unit-weight adjacency (rows, starts, cols) without loops
    or parallel edges, and table is its narrow weight table, unpacked from
    its BFS planes (see _bfs).  planes are kept only without 0-weight edges:
    then comp is the identity, the planes are the graph's hop oracle and
    table is its weight and hops table, Graph.tables() itself."""

    comp: np.ndarray
    csr: tuple
    table: np.ndarray
    planes: _HopPlanes | None


def _contract(g: Graph) -> _Contraction:
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 3)
    zero = e[e[:, 2] == 0]
    comp = _components(g.n, zero[:, 0], zero[:, 1])
    ncomp = int(comp.max(initial=-1)) + 1
    # contracted unit-weight edges, once each, as keys lo * ncomp + hi
    a, b = comp[e[e[:, 2] == 1, :2]].T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # deduplicated by a sort and a neighbour compare: on NumPy 2, np.unique
    # imports numpy.ma, which costs a process's first tables() more than the BFS
    keys = np.sort((lo * ncomp + hi)[lo != hi])
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    keys = keys[fresh]
    csr = _csr(ncomp, keys // ncomp, keys % ncomp)
    planes = _bfs(ncomp, csr)
    return _Contraction(comp, csr, _unpack(planes), planes if ncomp == g.n else None)


def _hop_planes(g: Graph) -> _HopPlanes:
    """The hop oracle of Graph._hops: without 0-weight edges the
    contraction's own planes, else a BFS on the graph in which each edge
    carries the sources it is tight for."""
    comp, _, table, planes = g._contraction()
    if planes is not None:  # no 0-weight edge: every minimum-weight path has as many hops as weight
        return planes
    # every 0-weight edge, and each unit edge between two components (one
    # inside a component lies on no minimum-weight path)
    e = np.asarray(g.edges, dtype=np.int64).reshape(-1, 3)
    e = e[(e[:, 2] == 0) | (comp[e[:, 0]] != comp[e[:, 1]])]
    csr = _csr(g.n, e[:, 0], e[:, 1])
    return _bfs(g.n, csr, _tight(table, comp[_heads(csr)], comp[csr[2]], comp))


def _apsp_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    comp, _, table, planes = g._contraction()
    if planes is not None:
        return table, table
    return np.take(np.take(table, comp, axis=0), comp, axis=1), _unpack(g._hops())


def _weights(g: Graph, rows, cols) -> np.ndarray:
    """The weights from the nodes `rows` to the nodes `cols` (id arrays or
    slices) as a narrow block of tables()[0], read from the contraction's
    table through comp.  Without 0-weight edges comp is the identity and
    the table is read as it is, so a slice of it costs no copy."""
    comp, _, table, planes = g._contraction()
    if planes is None:
        rows, cols = comp[rows], comp[cols]
    return table[:, cols][rows]


def _pair_weights(g: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The weights of the pairs (u[i], v[i]) as narrow entries of
    tables()[0], read from the contraction's table through comp."""
    comp, _, table, _ = g._contraction()
    return table[comp[u], comp[v]]


# ---------------------------------------------------------------------------
# Shortest-path DAG of every source at once, on the contraction: it holds the
# edge x -> v for source s when d(s, v) = d(s, x) + 1, and one bitset per
# directed contracted edge holds the sources whose DAG has it.


class ShortestPathDag(NamedTuple):
    """Graph-only state for shortest-path queries over many sources at once.

    comp maps each node to its 0-weight component (components numbered by
    smallest member); csr is the contracted unit-weight adjacency (rows,
    starts, cols) without loops or parallel edges; masks[p] is the source
    bitset of the edge cols[p] -> v, for the v whose segment holds p;
    unreached[v] is the bitset of the sources that cannot reach component
    v.  A bitset has one bit per source component s, at bit s % 64 of word
    s // 64, so unreached has shape (components, words).  All of it is read
    off the contraction's narrow weight table (the masks by the same
    tight-edge test the hops table uses, unreached where the table holds
    its sentinel), a few MB of temporaries at a time, in O(m * components)
    time.  Memory is O(m * components / 8) bytes.
    """

    comp: np.ndarray
    csr: tuple
    masks: np.ndarray
    unreached: np.ndarray


def _sp_dag(g: Graph) -> ShortestPathDag:
    comp, csr, table, _ = g._contraction()
    return ShortestPathDag(comp, csr, _tight(table, _heads(csr), csr[2]), _bitset(table == _far(table)))


def all_pairs_with_hops(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs (weight, hops) tables as read-only int64 arrays with INF
    for unreachable pairs (one array for both on a graph without 0-weight
    edges).  Agrees with n runs of sssp; this is the oracle the test harness
    trusts.  It is widened once per graph from the narrow tables the library
    reads (Graph.tables), at 8 bytes per pair and table."""
    return g.apsp()


def all_pairs(g: Graph) -> np.ndarray:
    """All-pairs minimum path weights (the DistanceMatrix oracle)."""
    return g.apsp()[0]


def distances_from(g: Graph, sources) -> np.ndarray:
    """Weight rows from the given source nodes, as a (len(sources), n) int64
    table with INF for unreachable pairs, widened from those rows of the
    narrow weight table.  Raises GraphError unless every source is an integer
    node id."""
    rows = np.array([_source_id(g, s) for s in sources], dtype=np.intp)
    return _int64(g.tables()[0][rows])


# ---------------------------------------------------------------------------
# Generators


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly m unit-weight edges, seeded."""
    n, m = _integer(n, "node count"), _integer(m, "edge count")
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
    if _integer(n, "node count") < 1:
        raise GraphError("path needs n >= 1")
    return Graph(n, [(i, i + 1, 1) for i in range(n - 1)])


def gen_cycle(n: int) -> Graph:
    if _integer(n, "node count") < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n, 1) for i in range(n)])


def gen_grid(rows: int, cols: int) -> Graph:
    if _integer(rows, "grid rows") < 1 or _integer(cols, "grid cols") < 1:
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
    if _integer(leaves, "leaf count") < 0:
        raise GraphError("star needs leaves >= 0")
    return Graph(leaves + 1, [(0, i, 1) for i in range(1, leaves + 1)])


def gen_structured(kind: str, params: dict) -> Graph:
    """Dispatch for the structured families: path, cycle, grid, star."""
    if kind == "path":
        return gen_path(params["n"])
    if kind == "cycle":
        return gen_cycle(params["n"])
    if kind == "grid":
        return gen_grid(params["rows"], params["cols"])
    if kind == "star":
        return gen_star(params["leaves"])
    raise GraphError(f"unknown structured kind {kind!r}")


def gen_lower_bound_family(k: int, tail: int, adj) -> tuple[Graph, list[int], list[int]]:
    """Bipartite (L, R) graph where each right node starts a path of `tail` nodes.

    Edge (L_i, R_j) exists iff adj[i][j] is 1.  Returns the graph, the ids of
    the left nodes, and the id of each path's last node w_j.  By construction
    dist(L_i, w_j) equals tail exactly when adj[i][j] = 1 and exceeds it (or
    is unreachable) otherwise, so the whole adjacency matrix can be read back
    from distance queries on 2k nodes.
    """
    k, tail = _integer(k, "family size k"), _integer(tail, "path length")
    if k < 1 or tail < 1:
        raise GraphError("need k >= 1 and a path length >= 1")
    adj = [[_integer(x, "adjacency entry") for x in row] for row in adj]
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
