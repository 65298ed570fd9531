"""Undirected graphs with edge weights in {0, 1}.

Provides the graph type, 0-1 BFS shortest paths (weight plus hop count),
brute-force all-pairs distance tables used as the verification oracle,
seeded generators (uniform G(n, m), structured families, and the
bipartite-with-tails family whose distances encode an adjacency matrix),
and the plain-text edge-list format.

A Graph is immutable after construction: shortest-path queries on a shared
instance are safe to run concurrently and generators are pure functions of
(parameters, seed).
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

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

    __slots__ = ("n", "edges", "adj", "_apsp")

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

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list) -> Graph:
    """Validate and construct a Graph from an (u, v[, w]) edge list."""
    return Graph(n, edge_list)


def sssp(g: Graph, s: int) -> tuple[list[int], list[int]]:
    """Single-source shortest paths on 0/1 weights via double-ended-queue BFS.

    Returns (weight, hops) lists: minimum path weight from s, and minimum
    edge count among the minimum-weight paths, with (INF, INF) for
    unreachable nodes.  Zero-weight edges relax to the front of the deque;
    hop count breaks ties among equal-weight paths.
    """
    if not 0 <= s < g.n:
        raise GraphError(f"source {s} out of range 0..{g.n - 1}")
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


# Weights are folded into a single Dijkstra cost big*w + 1 per edge, so the
# minimized total big*weight + hops orders paths by weight, then hop count.


def _edge_cost_matrix(g: Graph, big: int) -> csr_matrix:
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for u, v, w in g.edges:
        c = float(big * w + 1)
        rows += (u, v)
        cols += (v, u)
        data += (c, c)
    return csr_matrix((data, (rows, cols)), shape=(g.n, g.n))


def _decode_costs(res: np.ndarray, big: int) -> tuple[np.ndarray, np.ndarray]:
    weight = np.full(res.shape, INF, dtype=np.int64)
    hops = np.full(res.shape, INF, dtype=np.int64)
    fin = np.isfinite(res)
    w = np.floor(res[fin] / big)
    weight[fin] = w.astype(np.int64)
    hops[fin] = (res[fin] - w * big).astype(np.int64)
    return weight, hops


def _apsp_tables(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    n = g.n
    if n == 0:
        empty = np.zeros((0, 0), dtype=np.int64)
        return empty, empty
    big = n + 1
    res = _sp_dijkstra(_edge_cost_matrix(g, big), directed=True)
    weight, hops = _decode_costs(res, big)
    weight.setflags(write=False)
    hops.setflags(write=False)
    return weight, hops


def all_pairs_with_hops(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """All-pairs (weight, hops) tables as read-only int64 arrays with INF
    for unreachable pairs.  Agrees with n runs of sssp; this is the oracle
    the test harness trusts."""
    return g.apsp()


def all_pairs(g: Graph) -> np.ndarray:
    """All-pairs minimum path weights (the DistanceMatrix oracle)."""
    return g.apsp()[0]


def distances_from(g: Graph, sources) -> np.ndarray:
    """Weight rows from the given source nodes, as a (len(sources), n) table."""
    sources = list(sources)
    if not sources:
        return np.zeros((0, g.n), dtype=np.int64)
    if g._apsp is not None:
        return np.array(g._apsp[0][sources], dtype=np.int64)
    big = g.n + 1
    res = _sp_dijkstra(_edge_cost_matrix(g, big), directed=True, indices=sources)
    return _decode_costs(np.atleast_2d(res), big)[0]


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
