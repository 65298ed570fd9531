"""Additive-error scheme: power graph, dominators, balls, and the
[dist, dist + r] decoding contract."""

import numpy as np
import pytest

from distlab import (
    INF,
    AdditiveParams,
    all_pairs,
    build_graph,
    decode_matrix,
    encode_additive,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_path,
    gen_star,
    greedy_dominating_set,
    high_degree_set,
    ball_in_induced,
    power_graph,
    verify_labels,
)
from distlab.errors import GraphError, LabelError
from distlab.labels import LabelSet, decode_pair

pytestmark = pytest.mark.filterwarnings("ignore:r=.*exceeds")


def triu(n):
    return np.triu_indices(n, 1)


# --- power graph ----------------------------------------------------------

def test_power_radius_one_is_same_graph():
    g = gen_gnm(30, 60, seed=1)
    gr = power_graph(g, 1)
    assert sorted(gr.edges) == sorted(g.edges)


def test_power_path_radius_two():
    g = gen_path(4)
    gr = power_graph(g, 2)
    assert sorted((u, v) for u, v, _ in gr.edges) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


def test_power_adjacency_matches_distance_predicate():
    g = gen_gnm(40, 70, seed=2)
    radius = 3
    gr = power_graph(g, radius)
    w = all_pairs(g)
    have = {(u, v) for u, v, _ in gr.edges}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            expect = 1 <= w[u, v] <= radius
            assert ((u, v) in have) == expect


def test_power_rejects_bad_radius():
    with pytest.raises(GraphError):
        power_graph(gen_path(3), 0)


# --- high-degree set and dominators ------------------------------------------

def test_high_degree_thresholds():
    g = gen_gnm(20, 40, seed=3)
    assert high_degree_set(g, 1) == {u for u in range(20) if g.degree(u) > 0}
    assert high_degree_set(g, 20) == set()
    star = gen_star(5)
    assert high_degree_set(star, 3) == {0}


def test_high_degree_rejects_non_integer_threshold():
    with pytest.raises(GraphError, match="degree threshold t"):
        high_degree_set(gen_path(4), 2.5)


@pytest.mark.parametrize("targets", [[100], [-1], [1.5]])
def test_dominating_rejects_bad_target_ids(targets):
    # an id past n, a negative id and a non-integer id name no node
    with pytest.raises(GraphError, match="target id"):
        greedy_dominating_set(gen_path(4), targets)


def test_dominating_empty_targets():
    assert greedy_dominating_set(gen_path(4), []) == set()


def test_dominating_star_center_wins():
    star = gen_star(8)
    assert greedy_dominating_set(star, range(9)) == {0}


def test_dominating_covers_all_targets():
    for seed in range(5):
        g = gen_gnm(60, 120, seed=seed)
        targets = set(range(0, 60, 3))
        s = greedy_dominating_set(g, targets)
        assert len(s) <= len(targets)
        for t in targets:
            assert t in s or any(nb in s for nb, _ in g.adj[t])


# --- induced balls -------------------------------------------------------------

def test_ball_no_exclusions_is_plain_ball():
    g = gen_grid(4, 4)
    ball = ball_in_induced(g, set(), 0, 2)
    w = all_pairs(g)
    assert ball == {v: int(w[0, v]) for v in range(16) if w[0, v] <= 2}


def test_ball_cut_by_exclusion():
    g = gen_path(5)
    assert ball_in_induced(g, {2}, 0, 4) == {0: 0, 1: 1}


def test_ball_center_must_not_be_excluded():
    with pytest.raises(GraphError):
        ball_in_induced(gen_path(3), {0}, 0, 2)


@pytest.mark.parametrize("excluded,center", [
    ({3}, 0), ({-1}, 0), ({1, 7}, 0), (set(), 3), (set(), -1),
])
def test_ball_ids_out_of_range_rejected(excluded, center):
    with pytest.raises(GraphError, match="out of range"):
        ball_in_induced(gen_path(3), excluded, center, 2)


@pytest.mark.parametrize("excluded,center,depth,what", [
    ([1.5], 0, 2, "excluded id"), ([], 0.0, 2, "ball center"), ([], 0, 2.5, "ball depth"),
])
def test_ball_rejects_non_integer_arguments(excluded, center, depth, what):
    with pytest.raises(GraphError, match=f"{what} .* is not an integer"):
        ball_in_induced(gen_path(3), excluded, center, depth)


# --- encode/decode --------------------------------------------------------------

def check_error_window(g, ls, r):
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = triu(g.n)
    fin = w[iu, iv] != INF
    assert (dec[iu, iv] >= w[iu, iv]).all()
    assert (dec[iu, iv][fin] <= w[iu, iv][fin] + r).all()
    assert (dec[iu, iv][~fin] == INF).all()


def test_additive_explicit_triples_random_graph():
    g = gen_gnm(256, 512, seed=4)
    for r, t, d in [(2, 8, 2), (4, 16, 4), (8, 16, 6)]:
        ls = encode_additive(g, AdditiveParams(r=r, t=t, D=d, seed=4))
        check_error_window(g, ls, r)


def test_additive_power_complete_case():
    # r at least twice the diameter: the power graph is complete
    g = gen_grid(4, 4)
    diam = 6
    ls = encode_additive(g, AdditiveParams(r=2 * diam, t=8, D=3, seed=1))
    check_error_window(g, ls, 2 * diam)


def test_additive_no_high_degree_case():
    g = gen_cycle(32)
    ls = encode_additive(g, AdditiveParams(r=4, t=64, D=4, seed=2))
    assert ls.params["dominators"] == 0
    assert ls.meta["high_degree"] == []
    check_error_window(g, ls, 4)


def test_additive_adjacent_low_degree_pair_exact():
    g = gen_path(16)
    ls = encode_additive(g, AdditiveParams(r=4, t=50, D=3, seed=3))
    assert decode_pair("additive", ls.labels[3], ls.labels[4]) == 1


def test_additive_far_pairs_exact_via_embedded_threshold():
    g = gen_gnm(128, 256, seed=5)
    d = 4
    ls = encode_additive(g, AdditiveParams(r=4, t=16, D=d, seed=5))
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = triu(g.n)
    far = (w[iu, iv] >= d) & (w[iu, iv] != INF)
    assert (dec[iu, iv][far] == w[iu, iv][far]).all()


def test_additive_completeness_case_split():
    # three decode cases: far pair (threshold label exact); shortest path
    # touching a high node (dominator route within 2*floor(r/2)); all-low
    # shortest path between low endpoints (ball hit exact)
    g = gen_gnm(96, 240, seed=6)
    r, t, d = 4, 30, 4
    ls = encode_additive(g, AdditiveParams(r=r, t=t, D=d, seed=6))
    w = all_pairs(g)
    high = set(ls.meta["high_degree"])
    parsed = ls.parsed()
    cases = {"far": 0, "high": 0, "low": 0}
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if w[u, v] == INF:
                continue
            dec = ls.decode(u, v)
            if w[u, v] >= d:
                cases["far"] += 1
                assert dec == w[u, v]
            elif any(
                w[u, z] + w[z, v] == w[u, v] and z in high for z in range(g.n)
            ):
                cases["high"] += 1
                assert dec <= w[u, v] + 2 * (r // 2)
            elif u not in high and v not in high:
                cases["low"] += 1
                assert parsed[u].ball.get(v) == w[u, v] or parsed[v].ball.get(u) == w[u, v]
                assert dec <= w[u, v] + r
    assert all(count > 0 for count in cases.values()), cases


def test_additive_ball_size_bound_with_defaults():
    g = gen_gnm(64, 128, seed=7)
    p = AdditiveParams(r=2, seed=7)
    r, t, d = p.resolve(g.n)
    ls = encode_additive(g, p)
    if ls.meta["ball_sizes"]:
        bound = t ** -(-2 * d // r)  # t^ceil(2D/r)
        assert max(ls.meta["ball_sizes"]) <= bound


def test_additive_degenerate_huge_r_still_sound():
    g = gen_gnm(48, 96, seed=8)
    ls = encode_additive(g, AdditiveParams(r=2 * 48, t=8, D=2, seed=8))
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = triu(g.n)
    assert (dec[iu, iv] >= w[iu, iv]).all()


def test_additive_default_parameter_resolution():
    p = AdditiveParams(r=2)
    r, t, d = p.resolve(1000)
    assert r == 2 and t == 1000 and d >= 2  # ln(n)^10 >> n, so t clamps to n


def test_additive_rejects_bad_params_and_weights():
    with pytest.raises(GraphError):
        AdditiveParams(r=1)
    zero = build_graph(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(GraphError):
        encode_additive(zero, AdditiveParams(r=2, t=4, D=2))


def test_additive_incompatible_labels():
    g = gen_gnm(32, 64, seed=9)
    a = encode_additive(g, AdditiveParams(r=2, t=8, D=2, seed=9))
    b = encode_additive(g, AdditiveParams(r=4, t=8, D=2, seed=9))
    with pytest.raises(LabelError):
        decode_pair("additive", a.labels[0], b.labels[1])
    # dominator tables of different lengths: the bulk decoder must refuse the
    # mix with a typed error, and verify must report it, not crash
    g = gen_gnm(32, 64, seed=1)
    a = encode_additive(g, AdditiveParams(r=2, t=3, D=2, seed=1))
    b = encode_additive(g, AdditiveParams(r=2, t=8, D=2, seed=1))
    assert a.params["dominators"] != b.params["dominators"]
    mixed = LabelSet("additive", g.n, a.params, a.labels[:16] + b.labels[16:])
    with pytest.raises(LabelError):
        decode_matrix(mixed)
    rep = verify_labels(g, mixed)
    assert rep.violation_count == 1
    assert rep.violations[0][4].startswith("decode error")


def test_additive_matrix_matches_pair_decoder():
    g = gen_gnm(36, 90, seed=10)
    ls = encode_additive(g, AdditiveParams(r=4, t=12, D=3, seed=10))
    dec = decode_matrix(ls)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert dec[u, v] == ls.decode(u, v)
