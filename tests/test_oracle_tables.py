"""The narrow all-pairs oracle.

The library reads `Graph.tables()`: per graph one weight and one hops table
in the narrowest unsigned dtype whose max lies above every finite distance,
with that max as the only unreachable value.  Only the public API
(`Graph.apsp`, `all_pairs`, `all_pairs_with_hops`, `distances_from`) widens
to int64 with INF.  These tests pin the dtype switch, the sentinel handling
of every comparison (on NumPy 2, `uint8_table <= 600` holds at the sentinel
and `uint8_table + 300` raises), and that encoding and verifying never build
the int64 copy.
"""

import numpy as np
import pytest

import distlab.graph as G
import distlab.preserving as P
from distlab import (
    INF,
    PreservingParams,
    all_pairs,
    all_pairs_with_hops,
    build_graph,
    classify_nodes,
    distances_from,
    encode_full,
    encode_warmup,
    gen_gnm,
    gen_path,
    split_transform,
    sssp,
    verify_labels,
)
from distlab.graph import _far, _tight, _within
from distlab.labels import SCHEMES

from conftest import random_01_graph


def _zero_chain() -> G.Graph:
    # a chain of 0-weight edges, unit edges hanging off it and between two
    # of its members, and a 0-weight pair nothing reaches
    return build_graph(12, [
        (0, 1, 0), (1, 2, 0), (2, 3, 0), (3, 4, 0), (4, 5, 1), (5, 6, 0), (6, 7, 1),
        (0, 4, 1), (7, 8, 1), (8, 9, 0), (10, 11, 0),
    ])


BOUNDARY = {
    # longest distances 252..257: the uint8 -> uint16 switch lies at n = 256
    **{f"path{n}": (lambda n=n: gen_path(n)) for n in range(253, 259)},
    "zero-chain": _zero_chain,
    "disconnected-01": lambda: random_01_graph(70, 40, seed=5),
    "disconnected-unit": lambda: gen_gnm(50, 30, seed=4),
    "split": lambda: split_transform(gen_gnm(60, 150, seed=2), 3).gprime,
    "n0": lambda: build_graph(0, []),
    "n1": lambda: build_graph(1, []),
}


@pytest.mark.parametrize("make", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_public_tables_keep_their_contract(make):
    g = make()
    w, h = all_pairs_with_hops(g)
    assert w.dtype == h.dtype == np.int64 and w.shape == h.shape == (g.n, g.n)
    assert not w.flags.writeable and not h.flags.writeable
    assert (w is h) == g.is_unit_weight()
    assert all_pairs(g) is w and g.apsp() == (w, h)
    for s in range(g.n):
        ws, hs = sssp(g, s)
        assert w[s].tolist() == ws and h[s].tolist() == hs, s
    picked = [g.n - 1, 0] if g.n else []
    rows = distances_from(g, picked)
    assert rows.dtype == np.int64 and rows.shape == (len(picked), g.n)
    assert (rows == w[picked]).all() and rows.flags.writeable


@pytest.mark.parametrize("make", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_narrow_tables_mark_unreachable_with_the_dtype_max(make):
    g = make()
    weight, hops = g.tables()
    for narrow, wide in zip((weight, hops), g.apsp()):
        assert narrow.dtype.kind == "u"
        far = _far(narrow)
        finite = narrow[narrow != far]
        # the narrowest dtype: the largest finite distance needs every step of it
        assert narrow.dtype == np.min_scalar_type(int(finite.max(initial=0)) + 1)
        assert ((narrow == far) == (wide == INF)).all()
        assert (finite == wide[wide != INF]).all()
    if g.is_unit_weight():
        assert weight is hops is g._contraction().table


@pytest.mark.parametrize("n", [253, 254, 255, 256, 257, 258])
def test_path_tables_switch_to_uint16_past_distance_254(n):
    weight, _ = gen_path(n).tables()
    assert weight.dtype == (np.uint8 if n <= 255 else np.uint16)
    assert int(weight[0, n - 1]) == n - 1 < _far(weight)


@pytest.mark.parametrize("make", BOUNDARY.values(), ids=BOUNDARY.keys())
def test_sp_dag_matches_its_definition(make):
    # masks[p]: the sources s with d(s, head) = d(s, tail) + 1, both finite;
    # unreached[c]: the sources that cannot reach component c
    g = make()
    dag = g.sp_dag()
    ncomp = int(dag.comp.max(initial=-1)) + 1
    first = np.unique(dag.comp, return_index=True)[1]
    w = g.apsp()[0][np.ix_(first, first)]
    heads, tails = G._heads(dag.csr), dag.csr[2]
    tight = (w[tails] != INF) & (w[heads] == w[tails] + 1)
    assert (G._unbits(dag.masks, ncomp).view(bool) == tight).all()
    assert (G._unbits(dag.unreached, ncomp).view(bool) == (w == INF)).all()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_tight_never_reads_the_sentinel_plus_one_as_a_distance(dtype):
    far = np.iinfo(dtype).max
    # two components that cannot reach each other, and an edge 1 -> 0 between
    # them: far + 1 wraps to 0 = d(0, 0), which must not make it tight for source 0
    apart = np.array([[0, far], [far, 0]], dtype=dtype)
    bits = _tight(apart, np.array([0]), np.array([1]))
    assert G._unbits(bits, 2).tolist() == [[0, 0]]
    near = np.array([[0, 1], [1, 0]], dtype=dtype)
    assert G._unbits(_tight(near, np.array([0]), np.array([1])), 2).tolist() == [[0, 1]]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_within_excludes_the_sentinel_for_any_bound(dtype):
    far = int(np.iinfo(dtype).max)
    t = np.array([0, 1, far - 1, far], dtype=dtype)
    for bound, want in [(-1, [0, 0, 0, 0]), (0, [1, 0, 0, 0]), (far - 2, [1, 1, 0, 0]),
                        (far - 1, [1, 1, 1, 0]), (far, [1, 1, 1, 0]), (far + 1, [1, 1, 1, 0]),
                        (2 * far + 600, [1, 1, 1, 0])]:
        assert _within(t, bound).tolist() == [bool(x) for x in want], bound


def _brute_classify(g, landmarks, D):
    """classify_nodes by its definition, on the public int64 oracle."""
    w, h = all_pairs_with_hops(g)
    covered = w == INF
    for x in sorted(set(landmarks)):
        covered |= w[:, [x]] + w[[x], :] == w
    unc = (h >= D) & ~covered
    sick = {u for u in range(g.n) if unc[u].sum() > g.n / D}
    return sick, {u: np.flatnonzero(unc[u]).tolist() for u in range(g.n)}


@pytest.mark.parametrize("make", [
    lambda: gen_gnm(16, 24, seed=1),
    lambda: gen_gnm(65, 130, seed=2),
    lambda: gen_gnm(130, 200, seed=3),
    lambda: split_transform(gen_gnm(40, 120, seed=4), 3).gprime,
], ids=["n16", "n65", "n130", "split"])
def test_classify_rows_are_the_packed_uncovered_matrix(make):
    # bit v of row u (bit v % 64 of word v // 64) is the uncovered pair
    # (u, v); the bits past n in a row's last word are zero
    g = make()
    for landmarks in ([], [0, g.n // 2]):
        for D in (2, 3):
            sick, unc = P._classify(g, landmarks, D)
            want_sick, uc = _brute_classify(g, landmarks, D)
            matrix = np.zeros((g.n, g.n), dtype=bool)
            for u, vs in uc.items():
                matrix[u, vs] = True
            packed = np.packbits(matrix, axis=1, bitorder="little")
            assert unc.dtype == np.uint64 and unc.shape == (g.n, (g.n + 63) // 64)
            octets = unc.view(np.uint8)
            assert np.array_equal(octets[:, :packed.shape[1]], packed), (landmarks, D)
            assert not octets[:, packed.shape[1]:].any()
            assert set(sick) == want_sick


@pytest.mark.parametrize("make,Ds", [
    (lambda: gen_path(250), [2, 125, 249, 254, 255, 256, 300, 600]),  # uint8 tables
    (lambda: gen_path(258), [254, 255, 256, 257, 258, 300]),          # uint16 tables
    (_zero_chain, [1, 2, 3, 255, 300]),
    (lambda: random_01_graph(70, 40, seed=5), [1, 2, 3, 300]),
], ids=["path250", "path258", "zero-chain", "disconnected-01"])
def test_classify_with_thresholds_past_the_dtype_max_matches_brute_force(make, Ds):
    g = make()
    for landmarks in ([], [0], [g.n // 2, g.n - 1]):
        for D in Ds:
            assert classify_nodes(g, landmarks, D) == _brute_classify(g, landmarks, D), (landmarks, D)


@pytest.mark.parametrize("D", [130, 254, 255, 300])
def test_encoders_with_windows_past_the_dtype_max_stay_exact(D):
    # 2D and D reach past the uint8 sentinel of a path(250) table
    g = gen_path(250)
    for ls in (encode_full(g, PreservingParams(D=D, seed=1)), encode_warmup(g, PreservingParams(D=D, seed=1))):
        assert verify_labels(gen_path(250), ls).violation_count == 0, ls.scheme


@pytest.mark.filterwarnings("ignore:r=2 exceeds")
@pytest.mark.parametrize("name", list(SCHEMES))
def test_encode_and_exhaustive_verify_never_build_the_int64_oracle(name, monkeypatch):
    def forbidden(table):
        raise AssertionError("the library built the int64 oracle")

    monkeypatch.setattr(G, "_widen", forbidden)
    opts = {"D": 3, "r": 2, "t": 6, "dd": 2}
    ls = SCHEMES[name].encode(gen_gnm(60, 120, seed=3), 1, opts)
    report = verify_labels(gen_gnm(60, 120, seed=3), ls)
    assert report.mode == "exhaustive" and report.violation_count == 0
    with pytest.raises(AssertionError, match="int64 oracle"):
        gen_gnm(60, 120, seed=3).apsp()


def test_unit_weight_tables_are_the_contraction_table():
    g = gen_gnm(200, 400, seed=2)
    weight, hops = g.tables()
    assert weight is hops is g._contraction().table
    assert g.tables() is g.tables()
