"""Graph construction, 0-1 BFS against an independent Dijkstra reference,
oracle self-consistency, generators, and edge-list I/O."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import distlab
from distlab import (
    INF,
    Graph,
    all_pairs,
    all_pairs_with_hops,
    build_graph,
    distances_from,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_lower_bound_family,
    gen_path,
    gen_star,
    gen_structured,
    load_edge_list,
    parse_edge_list,
    save_edge_list,
    split_transform,
    sssp,
)
from distlab.errors import GraphError
from distlab.graph import format_edge_list

from conftest import dijkstra_ref, random_01_graph


# --- construction ---------------------------------------------------------

def test_build_single_edge():
    g = build_graph(2, [(0, 1, 1)])
    assert all_pairs(g)[0, 1] == 1


def test_build_empty_graph_all_unreachable():
    g = build_graph(3, [])
    w = all_pairs(g)
    assert w[0, 1] == w[1, 2] == w[0, 2] == INF
    assert w[0, 0] == 0


def test_build_zero_weight_edge_contributes_zero():
    g = build_graph(4, [(0, 1, 1), (1, 2, 0), (2, 3, 1)])
    assert all_pairs(g)[0, 3] == 2


@pytest.mark.parametrize(
    "n,edges,msg",
    [
        (3, [(0, 3, 1)], "out of range"),
        (3, [(1, 1, 1)], "self-loop"),
        (3, [(0, 1, 1), (1, 0, 1)], "duplicate"),
        (3, [(0, 1, 2)], "weight"),
    ],
)
def test_build_rejects_malformed(n, edges, msg):
    with pytest.raises(GraphError, match=msg):
        build_graph(n, edges)


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(0, 1, 1.5)]),
        (3, [(0, 1, 1.0)]),
        (3, [(1.9, 2)]),
        (2.7, []),
        ("3", []),
        (None, []),
        (2, [("0", "1")]),
        (2, [(None, 1)]),
        (2, [(0, np.float64(1))]),
    ],
    ids=["float-weight", "integral-float-weight", "float-id", "float-n", "str-n", "none-n",
         "str-ids", "none-id", "numpy-float-id"],
)
def test_build_rejects_non_integers(n, edges):
    with pytest.raises(GraphError, match="integer"):
        Graph(n, edges)


_P10 = gen_path(10)


@pytest.mark.filterwarnings("ignore:r=.*exceeds")
@pytest.mark.parametrize("call,error", [
    (lambda: distlab.encode_full(_P10, distlab.PreservingParams(D=2.5)), GraphError),
    (lambda: distlab.encode_additive(_P10, distlab.AdditiveParams(r=4, t=4, D=2.5)), GraphError),
    (lambda: distlab.PreservingParams(D="3"), GraphError),
    (lambda: distlab.PreservingParams(D=3, seed=1.5), GraphError),
    (lambda: distlab.AdditiveParams(r=2.5), GraphError),
    (lambda: distlab.AdditiveParams(r=4, t=4.5), GraphError),
    (lambda: distlab.AdditiveParams(r=4, seed=1.5), GraphError),
    (lambda: distlab.encode_bounded_degree(_P10, 9.5), GraphError),
    (lambda: gen_gnm(10.5, 12, 1), GraphError),
    (lambda: gen_gnm(10, 12.5, 1), GraphError),
    (lambda: gen_path(2.5), GraphError),
    (lambda: gen_grid(2.5, 3), GraphError),
    (lambda: gen_grid(3, 2.5), GraphError),
    (lambda: gen_star(2.5), GraphError),
    (lambda: gen_cycle("5"), GraphError),
    (lambda: distlab.sample_landmarks(_P10, 2.5, 1), GraphError),
    (lambda: split_transform(_P10, 3.5), GraphError),
    (lambda: distlab.power_graph(_P10, 1.5), GraphError),
    (lambda: distlab.verify_labels(_P10, distlab.encode_trivial(_P10), mode="sampled",
                                   sample_count=2.5), ValueError),
    (lambda: gen_structured("path", {"n": 5.7}), GraphError),
    (lambda: gen_structured("grid", {"rows": 2.5, "cols": 3}), GraphError),
    (lambda: distlab.encode_warmup(_P10, distlab.PreservingParams(D=2, seed=1),
                                   landmarks=[2.9, 4.2]), GraphError),
    (lambda: distlab.classify_nodes(_P10, [0, 2.9], D=2), GraphError),
    (lambda: gen_lower_bound_family(2, 2, [[1.5, 0], [0, 1]]), GraphError),
    (lambda: gen_lower_bound_family(2.0, 2, [[1, 0], [0, 1]]), GraphError),
    (lambda: gen_lower_bound_family(2, 1.5, [[1, 0], [0, 1]]), GraphError),
], ids=["full-D", "additive-D", "preserving-D-str", "preserving-seed", "additive-r",
        "additive-t", "additive-seed", "bdeg-delta", "gnm-n", "gnm-m", "path-n", "grid-rows",
        "grid-cols", "star-leaves", "cycle-n-str", "sample-size", "split-k", "power-radius",
        "verify-sample-count", "structured-path-n", "structured-grid-rows", "warmup-landmarks",
        "classify-landmarks", "family-adjacency", "family-k", "family-tail"])
def test_non_integer_arguments_are_refused(call, error):
    with pytest.raises(error, match="integer"):
        call()


@pytest.mark.filterwarnings("ignore:r=.*exceeds")
def test_numpy_integer_arguments_are_accepted():
    g = gen_gnm(np.int64(24), np.int64(48), 1)
    assert (g.n, g.m) == (24, 48)
    p = distlab.PreservingParams(D=np.int64(3), seed=np.int64(2))
    assert distlab.encode_full(g, p) == distlab.encode_full(g, distlab.PreservingParams(D=3, seed=2))
    wide = distlab.AdditiveParams(r=np.int64(4), t=np.int64(4), D=np.int64(2), seed=np.int64(1))
    plain = distlab.AdditiveParams(r=4, t=4, D=2, seed=1)
    assert distlab.encode_additive(g, wide) == distlab.encode_additive(g, plain)
    assert distlab.AdditiveParams(r=np.int64(4)).resolve(g.n)[0] == 4
    assert distlab.encode_bounded_degree(g, np.int64(9), 1).params["delta"] == 9
    assert split_transform(g, np.int64(4)).gprime.n >= g.n
    rep = distlab.verify_labels(g, distlab.encode_trivial(g), mode="sampled",
                                sample_count=np.int64(5))
    assert rep.passed and rep.pairs_checked == 5
    p = distlab.PreservingParams(D=2, seed=1)
    assert distlab.encode_warmup(g, p, landmarks=np.array([2, 4])) == distlab.encode_warmup(
        g, p, landmarks=[2, 4])
    assert distlab.classify_nodes(g, np.arange(3), D=2) == distlab.classify_nodes(g, [0, 1, 2], 2)
    adj = np.array([[True, False], [True, True]])
    family = gen_lower_bound_family(np.int64(2), np.int64(2), adj)
    plain = gen_lower_bound_family(2, 2, adj.astype(int).tolist())
    assert family[0].edges == plain[0].edges and family[1:] == plain[1:]


@pytest.mark.parametrize("edge", [5, (0,), (0, 1, 1, 1)], ids=["int", "short", "long"])
def test_build_rejects_an_edge_of_the_wrong_shape(edge):
    with pytest.raises(GraphError, match="expected"):
        Graph(3, [edge])


def test_build_accepts_numpy_integers():
    g = Graph(np.int64(3), [(np.int32(0), np.uint8(1), np.int64(0)), (np.intp(1), np.int16(2))])
    assert g.n == 3 and g.edges == [(0, 1, 0), (1, 2, 1)]
    assert all(type(x) is int for x in (g.n, *(x for e in g.edges for x in e)))


# --- sssp -------------------------------------------------------------------

def test_sssp_unit_path():
    g = gen_path(3)
    w, h = sssp(g, 0)
    assert w == [0, 1, 2] and h == [0, 1, 2]


def test_sssp_zero_weight_counts_hops():
    g = build_graph(3, [(0, 1, 0), (1, 2, 1)])
    w, h = sssp(g, 0)
    assert w[2] == 1 and h[2] == 2


def test_sssp_matches_dijkstra_reference():
    for seed in range(6):
        g = random_01_graph(64, 128, seed)
        ref_w, ref_h = dijkstra_ref(g, seed % g.n)
        got_w, got_h = sssp(g, seed % g.n)
        assert got_w == ref_w
        assert got_h == ref_h


def test_sssp_relaxation_fixpoint_property():
    g = random_01_graph(80, 200, seed=4)
    w, _ = sssp(g, 0)
    for u, v, wt in g.edges:
        if w[u] != INF or w[v] != INF:
            assert abs(w[u] - w[v]) <= wt


def test_sssp_hops_equal_weights_on_unit_graphs():
    g = gen_gnm(60, 150, seed=8)
    w, h = sssp(g, 5)
    assert w == h


def test_sssp_bad_source():
    for bad in (3, -1, 1.5):
        with pytest.raises(GraphError, match="source"):
            sssp(gen_path(3), bad)


# --- all-pairs oracle -----------------------------------------------------

def test_all_pairs_cycle():
    assert all_pairs(gen_cycle(4))[0, 2] == 2


def test_all_pairs_two_components():
    g = build_graph(4, [(0, 1, 1), (2, 3, 1)])
    w = all_pairs(g)
    assert w[0, 2] == INF and w[1, 3] == INF and w[0, 1] == 1


def test_all_pairs_matches_repeated_sssp():
    cases = [
        ("01-32", random_01_graph(32, 64, seed=2)),
        # source counts just below, at and just past one 64-bit word, then three words
        *((f"01-{n}", random_01_graph(n, 2 * n, seed=n)) for n in (63, 64, 65)),
        ("01-130", random_01_graph(130, 150, seed=130)),
        ("disconnected", random_01_graph(70, 40, seed=5)),
        ("n0", build_graph(0, [])),
        ("n1", build_graph(1, [])),
        ("n2", build_graph(2, [(0, 1, 0)])),
        ("split-star", split_transform(gen_star(40), 3).gprime),  # 40 copies on a 0-weight chain
        ("path130", gen_path(130)),  # 129 distance levels
        ("path300", gen_path(300)),  # distances past one byte
        ("split-gnm200", split_transform(gen_gnm(200, 800, seed=7), 4).gprime),
        # a unit edge inside one 0-component is on no minimum-weight path
        ("unit-in-0-comp", build_graph(4, [(0, 1, 0), (1, 2, 0), (0, 2, 1), (2, 3, 1)])),
        # two unit edges between the same pair of 0-components
        ("parallel-units", build_graph(5, [(0, 1, 0), (2, 3, 0), (0, 2, 1), (1, 3, 1), (3, 4, 1)])),
        ("zero-only", build_graph(6, [(0, 1, 0), (1, 2, 0), (3, 4, 0), (2, 5, 0)])),
        # 0-components that cannot reach each other
        ("0-comps-apart", build_graph(7, [(0, 1, 0), (1, 2, 1), (3, 4, 0), (5, 6, 0), (4, 5, 1)])),
    ]
    for name, g in cases:
        w, h = all_pairs_with_hops(g)
        assert w.shape == h.shape == (g.n, g.n), name
        for s in range(g.n):
            ws, hs = sssp(g, s)
            assert w[s].tolist() == ws, (name, s)
            assert h[s].tolist() == hs, (name, s)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.integers(min_value=1, max_value=40).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, 1)),
             min_size=n, max_size=3 * n),
)))
def test_all_pairs_matches_dijkstra_on_random_01_graphs(case):
    n, raw = case
    edges = {}
    for u, v, w in raw:
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), w)
    g = build_graph(n, [(u, v, w) for (u, v), w in edges.items()])
    w, h = all_pairs_with_hops(g)
    for s in range(n):
        ws, hs = dijkstra_ref(g, s)
        assert w[s].tolist() == ws, s
        assert h[s].tolist() == hs, s


@pytest.mark.parametrize("g", [build_graph(0, []), build_graph(1, []), build_graph(5, [])],
                         ids=["n0", "n1", "edgeless"])
def test_sp_dag_of_graphs_without_edges(g):
    dag = g.sp_dag()
    assert dag.comp.tolist() == list(range(g.n))
    assert dag.csr[2].size == 0 and dag.masks.shape == (0, (g.n + 63) // 64)
    # every node reaches only itself
    reach = np.unpackbits(dag.unreached.view(np.uint8), axis=1, count=g.n, bitorder="little")
    assert reach.shape == (g.n, g.n) and (reach == 1 - np.eye(g.n, dtype=np.uint8)).all()


def test_all_pairs_symmetric_and_triangle():
    g = gen_gnm(48, 96, seed=5)
    w = all_pairs(g)
    assert (w == w.T).all()
    rng = random.Random(0)
    for _ in range(300):
        a, b, c = rng.randrange(48), rng.randrange(48), rng.randrange(48)
        if INF not in (w[a, b], w[b, c], w[a, c]):
            assert w[a, c] <= w[a, b] + w[b, c]


def test_distances_from_rows_match_oracle():
    g = gen_gnm(40, 80, seed=6)
    rows = distances_from(g, [3, 17])
    w = all_pairs(g)
    assert (rows[0] == w[3]).all() and (rows[1] == w[17]).all()


@pytest.mark.parametrize("cached", [False, True], ids=["fresh", "cached"])
@pytest.mark.parametrize("bad", [-1, 5, 1.5])
def test_distances_from_rejects_bad_sources(bad, cached):
    g = gen_path(5)
    if cached:
        g.apsp()
    with pytest.raises(GraphError, match="source"):
        distances_from(g, [0, bad])


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(distlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, distlab, distlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_first_tables_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on NumPy 2, which the oracle build does not
    # need (NumPy 1 imports it with numpy itself)
    src = os.path.dirname(os.path.dirname(distlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, distlab; before = 'numpy.ma' in sys.modules; "
            "distlab.gen_gnm(64, 128, 1).tables(); print(before, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    before, after = out.stdout.split()
    assert after == before
    if int(np.__version__.split(".")[0]) >= 2:
        assert after == "False"


def _zero_chains() -> Graph:
    # two 0-weight chains joined by unit edges, a unit edge inside a chain,
    # an isolated node and a 0-weight pair that nothing else reaches
    return build_graph(14, [
        (0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 1), (0, 3, 1), (4, 5, 0), (5, 6, 0),
        (6, 7, 1), (7, 8, 1), (8, 9, 0), (11, 12, 0),
    ])


HOP_PLANE_GRAPHS = {
    "gnm16": lambda: gen_gnm(16, 24, seed=1),
    "gnm65": lambda: gen_gnm(65, 130, seed=2),
    "gnm130-sparse": lambda: gen_gnm(130, 120, seed=3),
    "split-k3": lambda: split_transform(gen_gnm(40, 120, seed=4), 3).gprime,
    "split-k4": lambda: split_transform(gen_gnm(70, 200, seed=6), 4).gprime,
    "zero-chains": _zero_chains,
    "disconnected-01": lambda: random_01_graph(70, 40, seed=5),
    "edgeless": lambda: build_graph(3, []),
}


@pytest.mark.parametrize("make", HOP_PLANE_GRAPHS.values(), ids=HOP_PLANE_GRAPHS.keys())
def test_hop_planes_compare_like_the_hops_table(make):
    # the encoders' hop oracle: bit v of row u of at_most(h) is hops(u, v) <= h,
    # never for an unreachable pair, with the bits past the columns zero
    from distlab.graph import _bitset, _far, _within

    g = make()
    planes = g._hops()
    hops = g.tables()[1]
    finite = hops[hops != _far(hops)]
    assert g.top_hop() == planes.depth == int(finite.max(initial=0))
    rng = np.random.default_rng(g.n)
    for h in range(-1, g.top_hop() + 2):
        want = _bitset(_within(hops, h))
        got = planes.at_most(h)
        assert got.dtype == np.uint64 and np.array_equal(got, want), h
        # any rows, and the columns cut to the first k
        ids = np.sort(rng.choice(g.n, size=max(1, g.n // 3), replace=False))
        for k in (1, g.n // 2, g.n):
            assert np.array_equal(planes.at_most(h, ids, k), _bitset(_within(hops[np.ix_(ids, np.arange(k))], h))), (h, k)
        assert np.array_equal(planes.at_most(h, slice(0, g.n // 2)), want[:g.n // 2])


@pytest.mark.parametrize("make", HOP_PLANE_GRAPHS.values(), ids=HOP_PLANE_GRAPHS.keys())
def test_weights_read_the_contraction_like_the_weight_table(make):
    # the encoders' weight reads: blocks and pairs of tables()[0], taken from
    # the contraction's table, which a graph without 0-weight edges reads
    # as it is
    from distlab.graph import _pair_weights, _weights

    g = make()
    weight = g.tables()[0]
    rng = np.random.default_rng(g.n)
    rows = rng.choice(g.n, size=max(1, g.n // 3), replace=False)
    cols = [int(c) for c in rng.choice(g.n, size=max(1, g.n // 4), replace=False)]
    for r, c in [(rows, cols), (slice(g.n // 2), cols), (slice(None), slice(None))]:
        block = _weights(g, r, c)
        assert block.dtype == weight.dtype and np.array_equal(block, weight[r][:, c])
    assert np.array_equal(_pair_weights(g, rows, rows[::-1]), weight[rows, rows[::-1]])
    every = _weights(g, slice(None), slice(None))
    assert np.shares_memory(every, g._contraction()[2]) == (g.m == 0 or min(w for *_, w in g.edges) > 0)


# --- generators ---------------------------------------------------------------

def test_gnm_complete_graph_forced():
    g = gen_gnm(4, 6, seed=99)
    assert sorted((u, v) for u, v, _ in g.edges) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)
    ]


def test_gnm_edgeless_and_determinism():
    assert gen_gnm(10, 0, seed=1).m == 0
    a = gen_gnm(100, 200, seed=42)
    b = gen_gnm(100, 200, seed=42)
    assert a.edges == b.edges
    c = gen_gnm(100, 200, seed=43)
    assert a.edges != c.edges


def test_gnm_too_many_edges():
    with pytest.raises(GraphError):
        gen_gnm(4, 7, seed=0)


def test_structured_examples():
    assert all_pairs(gen_path(5))[0, 4] == 4
    assert all_pairs(gen_cycle(8))[0, 4] == 4
    assert all_pairs(gen_grid(3, 3))[0, 8] == 4
    star = gen_star(5)
    assert all_pairs(star)[1, 2] == 2
    assert gen_structured("path", {"n": 5}).m == 4
    with pytest.raises(GraphError):
        gen_structured("torus", {"n": 5})
    with pytest.raises(GraphError):
        gen_cycle(2)


# --- adjacency-encoding family -------------------------------------------------

def test_family_identity_adjacency():
    g, left, ends = gen_lower_bound_family(2, 2, [[1, 0], [0, 1]])
    assert g.n == 6
    w = all_pairs(g)
    assert w[left[0], ends[0]] == 2
    assert w[left[0], ends[1]] == INF  # different component under identity wiring


def test_family_single_pair():
    g, left, ends = gen_lower_bound_family(1, 1, [[1]])
    assert all_pairs(g)[left[0], ends[0]] == 1


def test_family_distance_encodes_adjacency_exhaustively():
    rng = random.Random(12)
    for k, tail in [(3, 3), (5, 4), (8, 8)]:
        adj = [[rng.getrandbits(1) for _ in range(k)] for _ in range(k)]
        g, left, ends = gen_lower_bound_family(k, tail, adj)
        w = all_pairs(g)
        for i in range(k):
            for j in range(k):
                d = w[left[i], ends[j]]
                if adj[i][j]:
                    assert d == tail
                else:
                    assert d == INF or d >= tail + 1


# --- edge-list format ---------------------------------------------------------

def test_edge_list_roundtrip(tmp_path):
    g = random_01_graph(30, 60, seed=9)
    path = tmp_path / "g.edges"
    save_edge_list(g, path)
    h = load_edge_list(path)
    assert h.n == g.n and h.edges == g.edges


def test_edge_list_comments_and_default_weight():
    g = parse_edge_list("# header comment\n3 2\n0 1   # unit edge\n1 2 0\n")
    assert g.edges == [(0, 1, 1), (1, 2, 0)]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3\n",
        "3 2\n0 1\n",                # promises 2 edges, has 1
        "3 1\n0 x\n",
        "2 1\n0 1 1 9\n",
        "2 2\n0 1\n1 0\n",           # duplicate rejected, not deduped
    ],
)
def test_edge_list_rejects_malformed(text):
    with pytest.raises(GraphError):
        parse_edge_list(text)


def test_format_edge_list_deterministic():
    g = gen_gnm(20, 40, seed=3)
    assert format_edge_list(g) == format_edge_list(gen_gnm(20, 40, seed=3))
