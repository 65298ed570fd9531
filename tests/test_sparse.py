"""Split transform and the bounded-degree / sparse exact schemes."""

import math

import numpy as np
import pytest

from distlab import (
    INF,
    all_pairs,
    decode_matrix,
    encode_bounded_degree,
    encode_sparse,
    gen_gnm,
    gen_cycle,
    gen_path,
    gen_star,
    split_transform,
    verify_labels,
)
from distlab.errors import GraphError, LabelError
from distlab.labels import SET_PARSERS, LabelSet, decode_pair
from distlab.sparse import bounded_degree_threshold


def triu(n):
    return np.triu_indices(n, 1)


# --- split transform ---------------------------------------------------------

def test_split_star_center_into_chain():
    star = gen_star(5)
    res = split_transform(star, 3)
    # center degree 5 > 3 -> ceil(5/1) = 5 copies, chained with 0-weight edges
    assert res.gprime.n == 10
    assert res.gprime.max_degree() <= 3
    w = all_pairs(res.gprime)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert w[i, j] == 2
    assert res.origin[6] == (0, 1)


def test_split_noop_when_degrees_small():
    g = gen_gnm(20, 30, seed=1)
    if g.max_degree() <= 6:
        res = split_transform(g, max(6, 3))
        assert res.gprime.n == g.n
        assert res.gprime.edges == g.edges
        assert res.rep == list(range(g.n))


def test_split_preserves_all_distances_and_degree_bound():
    g = gen_gnm(64, 512, seed=2)
    res = split_transform(g, 8)
    assert res.gprime.max_degree() <= 8
    w0 = all_pairs(g)
    w1 = all_pairs(res.gprime)
    reps = np.array(res.rep)
    assert (w1[np.ix_(reps, reps)] == w0).all()


def test_split_node_count_bound():
    for seed in range(4):
        g = gen_gnm(96, 384, seed=seed)
        for k in (3, 4, 6):
            res = split_transform(g, k)
            assert res.gprime.n <= 2 * g.m / (k - 2) + g.n
            assert res.gprime.max_degree() <= k


def test_split_zero_weight_chains_in_copy_order():
    star = gen_star(7)
    res = split_transform(star, 3)
    chain = [u for u, (orig, _) in enumerate(res.origin) if orig == 0]
    zero_edges = {(u, v) for u, v, w in res.gprime.edges if w == 0}
    for a, b in zip(chain, chain[1:]):
        assert (a, b) in zero_edges or (b, a) in zero_edges


def test_split_rejects_bad_k_and_weights():
    with pytest.raises(GraphError):
        split_transform(gen_path(4), 2)
    from distlab import build_graph

    zero = build_graph(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(GraphError):
        split_transform(zero, 3)


# --- bounded degree -------------------------------------------------------------

def test_bounded_path_near_tables_and_exactness():
    g = gen_path(64)
    ls = encode_bounded_degree(g, 2, seed=1)
    D = ls.params["D"]
    assert max(ls.meta["near_sizes"]) <= 2 * D - 1
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = triu(64)
    assert (dec[iu, iv] == w[iu, iv]).all()
    assert decode_pair("bdeg", ls.labels[0], ls.labels[63]) == 63


def test_bounded_near_table_within_ball_bound():
    for n, m, seed in [(64, 64, 1), (96, 192, 2)]:
        g = gen_gnm(n, m, seed)
        delta = max(2, g.max_degree())
        ls = encode_bounded_degree(g, delta, seed)
        D = ls.params["D"]
        assert max(ls.meta["near_sizes"]) <= delta**D


def test_bounded_adjacent_pair_from_near_table():
    g = gen_gnm(40, 60, seed=3)
    ls = encode_bounded_degree(g, max(2, g.max_degree()), 3)
    u, v, _ = g.edges[0]
    assert decode_pair("bdeg", ls.labels[u], ls.labels[v]) == 1


def test_bounded_rejects_degree_violation():
    g = gen_star(5)
    with pytest.raises(GraphError, match="node 0"):
        encode_bounded_degree(g, 3, 0)


def degree_capped_graph(n, m, cap, seed):
    """Random unit-weight graph with every degree <= cap."""
    import random

    from distlab import build_graph

    rng = random.Random(seed)
    edges = set()
    deg = [0] * n
    tries = 0
    while len(edges) < m and tries < 50 * m:
        tries += 1
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in edges or deg[u] >= cap or deg[v] >= cap:
            continue
        edges.add(key)
        deg[u] += 1
        deg[v] += 1
    return build_graph(n, [(u, v, 1) for u, v in sorted(edges)])


def test_bounded_exact_on_low_degree_corpus():
    for seed in range(20):
        g = degree_capped_graph(128, 192, 4, seed=500 + seed)
        assert g.max_degree() <= 4
        ls = encode_bounded_degree(g, 4, seed)
        w = all_pairs(g)
        dec = decode_matrix(ls)
        iu, iv = triu(128)
        assert (dec[iu, iv] == w[iu, iv]).all()


def test_bounded_threshold_formula():
    assert bounded_degree_threshold(64, 2) == max(
        2, math.ceil(math.log(64) / (1 + 2 * math.log(2)))
    )
    assert bounded_degree_threshold(1, 5) == 2


# --- sparse -----------------------------------------------------------------------

def test_sparse_equals_bounded_when_no_split_needed():
    # m <= 3n and max degree <= 3: the transform is a no-op and the sparse
    # wrapper must produce the bounded-degree labels verbatim
    g = degree_capped_graph(48, 66, 3, seed=800)
    assert g.max_degree() <= 3 and g.m <= 3 * g.n
    direct = encode_bounded_degree(g, 3, seed=5)
    wrapped = encode_sparse(g, seed=5)
    assert wrapped.labels == direct.labels


def test_sparse_exact_random_graph():
    g = gen_gnm(128, 256, seed=4)
    ls = encode_sparse(g, seed=4)
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = triu(128)
    assert (dec[iu, iv] == w[iu, iv]).all()
    assert decode_pair("sparse", ls.labels[0], ls.labels[1]) == w[0, 1]


def test_sparse_exact_star_with_heavy_split():
    star = gen_star(64)
    ls = encode_sparse(star, seed=6)
    assert ls.n == 65 and len(ls.labels) == 65
    w = all_pairs(star)
    dec = decode_matrix(ls)
    iu, iv = triu(65)
    assert (dec[iu, iv] == w[iu, iv]).all()


def test_sparse_disconnected_pairs_report_unreachable():
    g = gen_gnm(40, 20, seed=7)
    ls = encode_sparse(g, seed=7)
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = triu(40)
    disc = w[iu, iv] == INF
    assert (dec[iu, iv][disc] == INF).all()


def test_sparse_rejects_zero_weight_input():
    from distlab import build_graph

    g = build_graph(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(GraphError):
        encode_sparse(g)


def test_sparse_label_growth_sublinear_trend():
    ratios = []
    for n in (64, 128, 256):
        g = gen_gnm(n, 2 * n, seed=1)
        ls = encode_sparse(g, seed=1)
        ratios.append(ls.max_bits / n)
    assert ratios[-1] < ratios[0]


def test_sparse_incompatible_labels_rejected():
    a = encode_sparse(gen_gnm(32, 64, seed=1), seed=1)
    b = encode_sparse(gen_gnm(32, 128, seed=1), seed=1)
    with pytest.raises(LabelError):
        decode_pair("sparse", a.labels[0], b.labels[1])


def test_bounded_degree_mixed_delta_rejected():
    g = gen_cycle(40)
    a = encode_bounded_degree(g, 2, seed=1)
    b = encode_bounded_degree(g, 3, seed=1)
    mixed = LabelSet(a.scheme, g.n, a.params, a.labels[:20] + b.labels[20:])
    with pytest.raises(LabelError):
        mixed.decode(0, 30)
    with pytest.raises(LabelError):
        decode_matrix(mixed)
    rep = verify_labels(g, mixed)
    assert rep.violation_count == 1
    assert rep.violations[0][4].startswith("decode error")


def test_sparse_matrix_matches_pair_decoder():
    g = gen_gnm(40, 120, seed=9)
    ls = encode_sparse(g, seed=9)
    dec = decode_matrix(ls)
    parsed = [SET_PARSERS["sparse"]([b])[0] for b in ls.labels]
    assert all(p.id == i for i, p in enumerate(parsed))
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert dec[u, v] == ls.decode(u, v)
