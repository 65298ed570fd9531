"""Threshold-scheme tests: landmark sampling, sick/healthy classification,
window exactness, soundness, label sizes, and bulk/per-pair agreement."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

from distlab import (
    INF,
    AdditiveParams,
    Graph,
    all_pairs,
    all_pairs_with_hops,
    build_graph,
    classify_nodes,
    encode_additive,
    encode_bounded_degree,
    encode_full,
    encode_medium,
    encode_sparse,
    encode_trivial,
    encode_warmup,
    gen_cycle,
    gen_gnm,
    gen_grid,
    gen_lower_bound_family,
    gen_path,
    sample_landmarks,
    split_transform,
    decode_matrix,
    verify_labels,
    PreservingParams,
)
from distlab.bits import gamma_length
from distlab.errors import GraphError, LabelError
from distlab.labels import LabelSet, decode_pair
from distlab.preserving import _matrix, _minplus, _pair, _useful_columns

from conftest import random_01_graph

# Size-bound constant, fitted once over the corpus sweep (max observed ratio
# was ~31 at D=2) and frozen here.
SIZE_CONSTANT = 48.0


def lg(x: float) -> float:
    return max(math.log2(x), 1.0)


def upper_triangle(n):
    return np.triu_indices(n, 1)


# --- sample_landmarks -------------------------------------------------------

def test_sample_seed_must_be_an_integer():
    # a float seed used to reach random.Random as it was
    with pytest.raises(GraphError, match="landmark seed 1.5 is not an integer"):
        sample_landmarks(gen_gnm(24, 48, seed=1), 5, 1.5)


def test_sample_single_node_graph():
    g = gen_path(1)
    assert sample_landmarks(g, 10, seed=4) == [0]


def test_sample_deterministic():
    g = gen_gnm(50, 100, seed=0)
    assert sample_landmarks(g, 20, 7) == sample_landmarks(g, 20, 7)
    assert sample_landmarks(g, 20, 7) != sample_landmarks(g, 20, 8)


def test_sample_eventually_covers_everything():
    g = gen_gnm(50, 0, seed=0)
    seen = set()
    for i in range(1000):
        seen.update(sample_landmarks(g, 50, i))
    assert seen == set(range(50))


# --- warmup -------------------------------------------------------------------

def test_warmup_path_exact_far_pair():
    g = gen_path(5)
    ls = encode_warmup(g, PreservingParams(D=2, seed=0))
    assert decode_pair("warmup", ls.labels[0], ls.labels[4]) == 4


def test_warmup_draw_count_formula():
    g = gen_gnm(16, 24, seed=1)
    ls = encode_warmup(g, PreservingParams(D=16, seed=0))
    assert ls.meta["draws"] == math.ceil(3.0 * (16 / 16) * math.log(16)) == 9
    assert 1 <= ls.params["landmarks"] <= 9


def test_warmup_rejects_zero_weights():
    g = build_graph(3, [(0, 1, 0), (1, 2, 1)])
    with pytest.raises(GraphError, match="unit-weight"):
        encode_warmup(g, PreservingParams(D=2))


def test_warmup_forced_landmark_upper_bound():
    # with the sample pinned to {0} on a path, decode(1, 2) routes through 0
    g = gen_path(5)
    ls = encode_warmup(g, PreservingParams(D=2), landmarks=[0])
    assert decode_pair("warmup", ls.labels[1], ls.labels[2]) == 3
    assert ls.decode(1, 2) >= all_pairs(g)[1, 2]


def test_warmup_self_decode():
    g = gen_gnm(30, 60, seed=2)
    ls = encode_warmup(g, PreservingParams(D=4, seed=2))
    w = all_pairs(g)
    landmarks = ls.meta["landmarks"]
    for u in range(g.n):
        d = decode_pair("warmup", ls.labels[u], ls.labels[u])
        assert d >= 0
        if u in landmarks:
            assert d == 0
        finite = [w[u, l] for l in landmarks if w[u, l] != INF]
        if finite:
            assert d == 2 * min(finite)


def test_warmup_exact_beyond_threshold():
    g = gen_gnm(64, 128, seed=3)
    ls = encode_warmup(g, PreservingParams(D=4, seed=3))
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = upper_triangle(g.n)
    assert (dec[iu, iv] >= w[iu, iv]).all()
    far = w[iu, iv] >= 4
    assert (dec[iu, iv][far] == w[iu, iv][far]).all()


def test_warmup_table_length_mismatch_rejected():
    g = gen_path(6)
    a = encode_warmup(g, PreservingParams(D=2), landmarks=[0])
    b = encode_warmup(g, PreservingParams(D=2), landmarks=[0, 3])
    with pytest.raises(LabelError):
        decode_pair("warmup", a.labels[0], b.labels[1])
    mixed = LabelSet("warmup", g.n, a.params, a.labels[:3] + b.labels[3:])
    with pytest.raises(LabelError):
        decode_matrix(mixed)
    rep = verify_labels(g, mixed)
    assert rep.violation_count == 1
    assert rep.violations[0][4].startswith("decode error")


# --- classification -----------------------------------------------------------

def test_classify_all_landmarks_nothing_uncovered():
    g = gen_gnm(24, 48, seed=5)
    sick, uc = classify_nodes(g, range(24), D=3)
    assert sick == set()
    assert all(not v for v in uc.values())


def test_classify_empty_graph():
    assert classify_nodes(Graph(0), [], 2) == (set(), {})


@pytest.mark.parametrize("D", [0, -1, 2.5])
def test_classify_rejects_bad_threshold(D):
    # the sick rule divides n by D: D must be an integer >= 1
    with pytest.raises(GraphError, match="threshold D"):
        classify_nodes(gen_path(5), [1], D)


def test_classify_no_landmarks_path_start_sick():
    D = 2
    g = gen_path(2 * D + 1)
    sick, uc = classify_nodes(g, [], D=D)
    assert uc[0] == [2, 3, 4]
    assert 0 in sick  # 3 uncovered > n/D = 2.5


def _split_chains():
    # degree-3 split of a denser graph: many 0-weight chains
    return split_transform(gen_gnm(24, 60, seed=3), 3).gprime


@pytest.mark.parametrize(
    "make, D, pick",
    [
        (lambda: gen_cycle(16), 4, lambda g: [0]),
        (_split_chains, 3, lambda g: sample_landmarks(g, 8, 1)),
        (_split_chains, 2, lambda g: []),
        (_split_chains, 2, lambda g: list(range(g.n))),
        (lambda: gen_gnm(40, 30, seed=4), 2, lambda g: sample_landmarks(g, 10, 2)),
        (lambda: gen_gnm(40, 30, seed=4), 2, lambda g: []),
        # distances past 255 do not fit the narrowest table
        (lambda: gen_path(300), 100, lambda g: sample_landmarks(g, 3, 5)),
        (lambda: build_graph(6, []), 1, lambda g: [0, 4]),
        (lambda: gen_path(1), 1, lambda g: [0]),
    ],
    ids=["cycle16", "split-chains", "split-empty", "split-full", "disconnected",
         "disconnected-empty", "path300", "edgeless", "n1"],
)
def test_classify_matches_bruteforce_predicate(make, D, pick):
    g = make()
    n = g.n
    landmarks = pick(g)
    sick, uc = classify_nodes(g, landmarks, D=D)
    w, h = all_pairs_with_hops(g)

    def covered(u, v):
        return any(
            w[u, x] != INF and w[x, v] != INF and w[u, x] + w[x, v] == w[u, v]
            for x in landmarks
        ) or w[u, v] == INF
    expect = {
        u: [v for v in range(n) if h[u, v] >= D and h[u, v] != INF and not covered(u, v)]
        for u in range(n)
    }
    assert uc == expect
    assert sick == {u for u in range(n) if len(expect[u]) > n / D}


@pytest.mark.parametrize("make", [_split_chains, lambda: random_01_graph(60, 120, 4, 0.5)],
                         ids=["split-chains", "zero-weight-edges"])
def test_classify_on_a_shared_graph_matches_a_fresh_graph(make):
    # one Graph keeps its certification state across calls; landmark sets in
    # any order must get the answers a fresh graph gives
    g = make()
    sets = [[], sample_landmarks(g, 10, 3), list(range(g.n))]
    for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0, 1], [2, 1, 0]):
        for i in order:
            assert classify_nodes(g, sets[i], D=2) == classify_nodes(make(), sets[i], D=2)


def test_certification_state_built_once_per_graph(monkeypatch):
    import distlab.graph as G

    # the contraction, the oracle tables and the DAG read off the contraction
    built = {name: [] for name in ("_contract", "_apsp_tables", "_sp_dag")}
    for name, log in built.items():
        real = getattr(G, name)
        monkeypatch.setattr(G, name, lambda g, real=real, log=log: log.append(g) or real(g))
    g = gen_gnm(256, 512, seed=1)
    for _ in range(2):
        ls = encode_full(g, PreservingParams(D=4, seed=1))
    assert sum(lv["attempts"] for lv in ls.meta["levels"]) >= ls.params["levels"] == 7
    assert all(log == [g] for log in built.values())
    # on a split graph the hops table is read off the contraction as well
    split = _split_chains()
    for _ in range(2):
        encode_bounded_degree(split, split.max_degree(), seed=1)
    assert all(log == [g, split] for log in built.values())


def test_hop_bound_computed_once_per_graph(monkeypatch):
    import distlab.graph as G

    # the largest finite hop is one pass over the cached hops table, next to
    # the contraction, the oracle tables and the DAG
    built = {name: [] for name in ("_contract", "_apsp_tables", "_sp_dag", "_top_finite")}
    for name, log in built.items():
        real = getattr(G, name)
        monkeypatch.setattr(G, name, lambda x, real=real, log=log: log.append(x) or real(x))
    g = gen_gnm(256, 512, seed=1)
    for _ in range(2):
        encode_full(g, PreservingParams(D=4, seed=1))
    split = _split_chains()
    for _ in range(2):
        encode_bounded_degree(split, split.max_degree(), seed=1)
    assert all(built[name] == [g, split] for name in ("_contract", "_apsp_tables", "_sp_dag"))
    # on the split graph it is read off the hops table, not the weights
    assert [id(t) for t in built["_top_finite"]] == [id(g.tables()[1]), id(split.tables()[1])]
    for graph in (g, split):
        w, h = all_pairs_with_hops(graph)
        assert graph.top_hop() == h[h != INF].max()
    w, h = all_pairs_with_hops(split)
    assert w[w != INF].max() < split.top_hop()


def _brute_classify(g, landmarks, D):
    """classify_nodes from the definition, over the int64 oracle."""
    w, h = all_pairs_with_hops(g)

    def covered(u, v):
        return w[u, v] == INF or any(
            w[u, x] != INF and w[x, v] != INF and w[u, x] + w[x, v] == w[u, v] for x in landmarks)
    unc = {u: [v for v in range(g.n) if h[u, v] != INF and h[u, v] >= D and not covered(u, v)]
           for u in range(g.n)}
    return {u for u in range(g.n) if len(unc[u]) > g.n / D}, unc


@pytest.mark.parametrize("make", [
    lambda: gen_gnm(40, 30, seed=4),  # isolated nodes and unreachable pairs
    _split_chains,                    # 0-weight edges: hops differ from weights
    lambda: gen_path(12),
], ids=["disconnected", "split-chains", "path"])
@pytest.mark.parametrize("above", [0, 1])
@pytest.mark.parametrize("pick", [
    lambda g: [], lambda g: [0], lambda g: sample_landmarks(g, 4, 7), lambda g: [g.n // 2, g.n - 1],
], ids=["none", "first", "sample", "middle-last"])
def test_classify_at_the_hop_bound_matches_bruteforce(make, above, pick):
    g = make()
    D = g.top_hop() + above
    landmarks = pick(g)
    sick, uc = classify_nodes(g, landmarks, D)
    assert (sick, uc) == _brute_classify(g, landmarks, D)
    if above:  # no pair lies at hop >= D
        assert not sick and not any(uc.values())
    elif not landmarks:  # the pairs at the largest hop have no landmark
        assert any(uc.values())


def _covered_calls_per_level(monkeypatch) -> list:
    """[D, number of _covered calls] for each _level call, in encode order."""
    import distlab.preserving as P

    levels, real_level, real_covered = [], P._level, P._covered

    def level(g, D, *args):
        levels.append([D, 0])
        return real_level(g, D, *args)

    def covered(*args):
        levels[-1][1] += 1
        return real_covered(*args)
    monkeypatch.setattr(P, "_level", level)
    monkeypatch.setattr(P, "_covered", covered)
    return levels


def test_certification_runs_only_up_to_the_hop_bound(monkeypatch):
    g = gen_gnm(256, 512, seed=1)
    calls = _covered_calls_per_level(monkeypatch)
    ls = encode_full(g, PreservingParams(D=4, seed=1))
    h = g.top_hop()
    assert [D for D, _ in calls] == [4 << i for i in range(ls.params["levels"])]
    assert any(D > h for D, _ in calls) and any(D <= h for D, _ in calls)
    for (D, count), lv in zip(calls, ls.meta["levels"]):
        assert lv["certified"] is (D <= h)
        assert count == (lv["attempts"] + len(lv["candidates"]) - 1 if D <= h else 0)
    # meta alone counts the kernel calls
    assert sum(count for _, count in calls) == sum(
        lv["attempts"] + len(lv["candidates"]) - 1 for lv in ls.meta["levels"] if lv["certified"])


@pytest.mark.filterwarnings("ignore:r=.*exceeds")
@pytest.mark.parametrize("scheme", ["sparse", "additive"])
def test_every_level_says_whether_it_was_certified(scheme):
    g = gen_gnm(96, 192, seed=5)
    if scheme == "sparse":
        ls = encode_sparse(g, 5)
        certified, levels = split_transform(g, ls.params["k"]).gprime, ls.meta["inner"]["full"]["levels"]
    else:
        ls = encode_additive(g, AdditiveParams(r=4, t=8, D=3, seed=5))
        certified, levels = g, ls.meta["full"]["levels"]
    flags = [lv["certified"] for lv in levels]
    assert flags == [(ls.params["D"] << i) <= certified.top_hop() for i in range(len(levels))]
    assert flags[0] and not flags[-1]


def test_unit_weight_oracle_builds_no_dag(monkeypatch):
    import distlab.graph as G

    def forbidden(g):
        raise AssertionError("apsp() on a unit-weight graph built the shortest-path DAG")

    monkeypatch.setattr(G, "_sp_dag", forbidden)
    g = gen_gnm(200, 400, seed=2)
    weight, hops = g.apsp()
    assert weight is hops
    # exhaustive verify of a fresh graph reads the oracle tables only
    assert verify_labels(gen_gnm(200, 400, seed=2), encode_trivial(g)).violation_count == 0


@pytest.mark.parametrize("bad", [-1, 16])
def test_classify_rejects_out_of_range_landmarks(bad):
    with pytest.raises(GraphError, match="out of range"):
        classify_nodes(gen_cycle(16), [0, bad], D=4)


@pytest.mark.parametrize("bad", [-1, 16])
def test_warmup_rejects_out_of_range_landmarks(bad):
    with pytest.raises(GraphError, match="out of range"):
        encode_warmup(gen_cycle(16), PreservingParams(D=4), landmarks=[bad])


# --- medium ---------------------------------------------------------------------

def test_medium_small_path_window():
    g = gen_path(3)
    ls = encode_medium(g, PreservingParams(D=2, seed=1))
    assert decode_pair("medium", ls.labels[0], ls.labels[2]) == 2


def test_medium_rejects_d_below_two():
    with pytest.raises(GraphError):
        encode_medium(gen_path(4), PreservingParams(D=1))


def test_medium_isolated_pair_is_unreachable():
    g = build_graph(4, [(0, 1, 1)])
    ls = encode_medium(g, PreservingParams(D=2, seed=0))
    assert decode_pair("medium", ls.labels[2], ls.labels[3]) == INF
    assert decode_pair("medium", ls.labels[0], ls.labels[2]) == INF


def test_medium_window_exact_grid():
    g = gen_grid(8, 8)
    D = 3
    ls = encode_medium(g, PreservingParams(D=D, seed=2))
    w, h = all_pairs_with_hops(g)
    dec = decode_matrix(ls)
    iu, iv = upper_triangle(g.n)
    window = (h[iu, iv] >= D) & (h[iu, iv] <= 2 * D)
    assert (dec[iu, iv][window] == w[iu, iv][window]).all()
    assert (dec[iu, iv] >= w[iu, iv]).all()


def test_medium_window_exact_random_corpus():
    for n, seed in [(32, 1), (64, 2), (128, 3), (96, 4)]:
        g = gen_gnm(n, 2 * n, seed)
        D = 4
        ls = encode_medium(g, PreservingParams(D=D, seed=seed))
        w, h = all_pairs_with_hops(g)
        dec = decode_matrix(ls)
        iu, iv = upper_triangle(n)
        window = (h[iu, iv] >= D) & (h[iu, iv] <= 2 * D)
        assert (dec[iu, iv][window] == w[iu, iv][window]).all()
        assert (dec[iu, iv] >= w[iu, iv]).all()


def test_medium_handles_sick_pairs_via_shared_table():
    # no sampled landmark certifies the far pairs of a long path at small n/D,
    # so far nodes get listed or turn sick; either way the window stays exact
    g = gen_path(9)
    D = 4
    ls = encode_medium(g, PreservingParams(D=D, seed=0))
    w, h = all_pairs_with_hops(g)
    for u in range(9):
        for v in range(u + 1, 9):
            if D <= h[u, v] <= 2 * D:
                assert decode_pair("medium", ls.labels[u], ls.labels[v]) == w[u, v]


def test_medium_certified_pair_is_exact():
    # whenever a sampled landmark sits on a shortest path, the route through
    # the shared table returns the true distance
    g = gen_gnm(48, 96, seed=9)
    ls = encode_medium(g, PreservingParams(D=3, seed=9))
    w = all_pairs(g)
    landmarks = ls.meta["landmarks"]
    hits = 0
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if w[u, v] == INF or w[u, v] > 2 * 3:
                continue
            if any(w[u, x] + w[x, v] == w[u, v] for x in landmarks):
                hits += 1
                assert decode_pair("medium", ls.labels[u], ls.labels[v]) <= w[u, v]
    assert hits > 0


def test_medium_resample_metadata():
    g = gen_gnm(64, 128, seed=7)
    ls = encode_medium(g, PreservingParams(D=4, seed=7))
    assert ls.meta["attempts"] == len(ls.meta["sick_history"]) >= 1
    assert ls.meta["sick_history"][-1] < 2 * 64 / 4


# --- windows ----------------------------------------------------------------------

def _candidates(monkeypatch) -> list:
    """[D, count, candidate] for every landmark set a level scores, in encode order."""
    import distlab.preserving as P

    made = []

    class Spy(P._Candidate):
        def __init__(self, weight, hops, D, count, *rest):
            super().__init__(weight, hops, D, count, *rest)
            made.append([D, count, self])
    monkeypatch.setattr(P, "_Candidate", Spy)
    return made


def _window_reference(g, D, count, landmarks) -> np.ndarray:
    """A level's window pairs from the definition, as a count x count mask:
    the pair is uncovered, its row is healthy, and its hop distance is at
    most 2D."""
    sick, unc = _brute_classify(g, landmarks, D)
    _, h = all_pairs_with_hops(g)
    ref = np.zeros((count, count), dtype=bool)
    for u in range(count):
        if u not in sick:
            for v in unc[u]:
                if v < count and h[u, v] <= 2 * D:
                    ref[u, v] = True
    return ref


@pytest.mark.parametrize("case", ["disconnected", "split"])
def test_window_pairs_match_the_definition(case, monkeypatch):
    made = _candidates(monkeypatch)
    if case == "disconnected":  # isolated nodes and unreachable pairs
        g = gen_gnm(40, 30, seed=4)
        ls = encode_full(g, PreservingParams(D=2, seed=4))
        certified, count = g, g.n
    else:  # the degree-3 split graph: 0-weight edges, and only first copies labelled
        g = gen_gnm(24, 60, seed=3)
        ls = encode_sparse(g, 3)
        certified, count = split_transform(g, ls.params["k"]).gprime, g.n
        assert count < certified.n
    assert {c for _, c, _ in made} == {count}
    for D, _, cand in made:
        ref = _window_reference(certified, D, count, cand.landmarks)
        assert cand.sick_ids == sorted(_brute_classify(certified, cand.landmarks, D)[0])
        rows, cols = cand.pairs
        assert np.array_equal(rows, np.nonzero(ref)[0]) and np.array_equal(cols, np.nonzero(ref)[1])
        assert cand.sizes.tolist() == ref.sum(axis=1).tolist()
        if D > certified.top_hop():  # nothing is uncovered above the hop bound
            assert rows.size == 0
    # the scored sets include levels above the hop bound and windows that list pairs
    assert any(D > certified.top_hop() for D, _, _ in made)
    assert any(cand.pairs[0].size for _, _, cand in made)


def test_written_windows_are_the_kept_candidates_pairs(monkeypatch):
    made = _candidates(monkeypatch)
    g = gen_gnm(64, 100, seed=2)
    ls = encode_medium(g, PreservingParams(D=2, seed=2))
    (kept,) = [cand for _, _, cand in made if cand.landmarks == ls.meta["landmarks"]]
    rows, cols = np.nonzero(_window_reference(g, 2, g.n, kept.landmarks))
    assert rows.size
    w = all_pairs(g)
    for u, label in enumerate(ls.parsed()):
        uc = label.levels[0].uc
        assert list(uc) == cols[rows == u].tolist()
        assert list(uc.values()) == w[u, list(uc)].tolist()


# --- thinning ---------------------------------------------------------------------

def _drawn_samples(monkeypatch) -> list:
    """Records the passing sample _sample returns, one per level in encode order."""
    import distlab.preserving as P

    drawn, real = [], P._sample

    def spy(*args):
        out = real(*args)
        drawn.append(out[0])
        return out
    monkeypatch.setattr(P, "_sample", spy)
    return drawn


@pytest.mark.filterwarnings("ignore:r=.*exceeds")
@pytest.mark.parametrize("scheme", ["full", "sparse", "additive"])
def test_every_level_keeps_a_passing_part_of_its_sample(scheme, monkeypatch):
    g = gen_gnm(96, 192, seed=5)
    drawn = _drawn_samples(monkeypatch)
    if scheme == "full":
        ls = encode_full(g, PreservingParams(D=3, seed=5))
        certified, levels = g, ls.meta["levels"]
    elif scheme == "sparse":
        ls = encode_sparse(g, 5)
        certified, levels = split_transform(g, ls.params["k"]).gprime, ls.meta["inner"]["full"]["levels"]
    else:
        ls = encode_additive(g, AdditiveParams(r=4, t=8, D=3, seed=5))
        certified, levels = g, ls.meta["full"]["levels"]
    assert len(levels) == len(drawn) > 1
    thinned = 0
    for i, (lv, sample) in enumerate(zip(levels, drawn)):
        D = ls.params["D"] << i
        kept = lv["landmarks"]
        assert set(kept) <= set(sample) and lv["sample"] == len(sample)
        # the kept sick set is the one its landmarks leave, and it is small
        sick, _ = classify_nodes(certified, kept, D)
        assert sorted(sick) == lv["sick"] and len(sick) < 2 * certified.n / D
        whole, *prefix = lv["candidates"]
        assert whole["landmarks"] == len(sample)
        if len(kept) < len(sample):
            thinned += 1
            assert len(kept) == prefix[0]["landmarks"] == math.ceil(len(sample) / 8)
            assert (prefix[0]["max_bits"], prefix[0]["mean_bits"]) < (whole["max_bits"], whole["mean_bits"])
    assert thinned


def test_level_keeps_its_sample_when_the_prefix_leaves_too_many_sick(monkeypatch):
    g = gen_gnm(40, 80, seed=6)
    drawn = _drawn_samples(monkeypatch)
    ls = encode_medium(g, PreservingParams(D=3, seed=6))
    whole, prefix = ls.meta["candidates"]
    assert prefix["sick"] >= 2 * g.n / 3 and prefix.get("max_bits") is None
    assert ls.meta["landmarks"] == drawn[0] and whole["landmarks"] == len(drawn[0])


def test_level_keeps_its_sample_when_the_prefix_scores_worse(monkeypatch):
    g = gen_gnm(24, 48, seed=1)
    drawn = _drawn_samples(monkeypatch)
    ls = encode_medium(g, PreservingParams(D=2, seed=1))
    whole, prefix = ls.meta["candidates"]
    assert prefix["sick"] < 2 * g.n / 2
    assert (prefix["max_bits"], prefix["mean_bits"]) >= (whole["max_bits"], whole["mean_bits"])
    assert ls.meta["landmarks"] == drawn[0]


@pytest.mark.parametrize("make", [lambda: gen_gnm(96, 192, seed=3), lambda: gen_grid(8, 9)])
def test_thinning_scores_bound_the_written_level_bodies(make):
    # a medium label is its header, gamma(n + 1) and gamma(u + 1), then one
    # level body; the kept candidate's score bounds the bodies' max and mean
    g = make()
    ls = encode_medium(g, PreservingParams(D=3, seed=3))
    kept = [c for c in ls.meta["candidates"] if c["landmarks"] == len(ls.meta["landmarks"])][0]
    body = ls.bit_sizes() - np.array([gamma_length(g.n + 1) + gamma_length(u + 1) for u in range(g.n)])
    assert any(p.levels[0].uc for p in ls.parsed())
    assert body.max() <= kept["max_bits"] and body.mean() <= kept["mean_bits"]


def test_medium_resample_cap_exhaustion(monkeypatch):
    import distlab.preserving as P
    from distlab.errors import EncodingFailure

    def every_node_sick(g, landmarks, D):
        return list(range(g.n)), np.zeros((g.n, g.n), dtype=bool)

    monkeypatch.setattr(P, "_classify", every_node_sick)
    with pytest.raises(EncodingFailure, match=r"\|S\|=20"):
        encode_medium(gen_gnm(20, 40, seed=1), PreservingParams(D=4, seed=1))


def test_warmup_resample_cap_exhaustion(monkeypatch):
    import distlab.preserving as P
    from distlab.errors import EncodingFailure

    calls = []

    def every_pair_uncovered(g, landmarks, D):
        calls.append(landmarks)
        return [], np.ones((g.n, g.n), dtype=bool)

    monkeypatch.setattr(P, "_classify", every_pair_uncovered)
    with pytest.raises(EncodingFailure, match=r"\|S\|=0 sick nodes and \d+ uncovered"):
        encode_warmup(gen_gnm(20, 40, seed=1), PreservingParams(D=3, seed=1))
    assert len(calls) == P.RESAMPLE_CAP


def test_medium_incompatible_labels():
    g = gen_gnm(20, 40, seed=1)
    a = encode_medium(g, PreservingParams(D=2, seed=1))
    b = encode_medium(g, PreservingParams(D=4, seed=1))
    with pytest.raises(LabelError):
        decode_pair("medium", a.labels[0], b.labels[1])


# --- full ------------------------------------------------------------------------

def test_full_level_progression():
    g = gen_gnm(256, 512, seed=1)
    ls = encode_full(g, PreservingParams(D=4, seed=1))
    assert ls.params["levels"] == 7  # thresholds 4, 8, ..., 256


def test_full_single_level_when_threshold_huge():
    g = gen_gnm(16, 32, seed=2)
    ls = encode_full(g, PreservingParams(D=64, seed=2))
    assert ls.params["levels"] == 1


def test_full_routes_to_trivial_for_tiny_threshold():
    g = gen_gnm(12, 24, seed=3)
    ls = encode_full(g, PreservingParams(D=1))
    assert ls.scheme == "trivial"
    w = all_pairs(g)
    assert ls.decode(0, 5) == w[0, 5]


def test_full_path_pair_at_intermediate_level():
    g = gen_path(9)
    ls = encode_full(g, PreservingParams(D=2, seed=4))
    assert decode_pair("full", ls.labels[0], ls.labels[8]) == 8


def test_full_exact_beyond_threshold_many_seeds():
    for D in (2, 4, 8):
        for seed in range(10):
            g = gen_gnm(128, 256, seed=100 + seed)
            ls = encode_full(g, PreservingParams(D=D, seed=seed))
            w = all_pairs(g)
            dec = decode_matrix(ls)
            iu, iv = upper_triangle(g.n)
            far = (w[iu, iv] >= D) & (w[iu, iv] != INF)
            assert (dec[iu, iv][far] == w[iu, iv][far]).all(), (D, seed)
            assert (dec[iu, iv] >= w[iu, iv]).all(), (D, seed)
            inf_pairs = w[iu, iv] == INF
            assert (dec[iu, iv][inf_pairs] == INF).all()


def test_full_exact_on_01_weights_by_hop_window():
    for seed in range(4):
        g = random_01_graph(64, 160, seed=seed)
        D = 3
        ls = encode_full(g, PreservingParams(D=D, seed=seed))
        w, h = all_pairs_with_hops(g)
        dec = decode_matrix(ls)
        iu, iv = upper_triangle(g.n)
        far = (h[iu, iv] >= D) & (h[iu, iv] != INF)
        assert (dec[iu, iv][far] == w[iu, iv][far]).all()
        assert (dec[iu, iv] >= w[iu, iv]).all()


def test_full_near_pairs_only_upper_bounded():
    g = gen_path(6)
    ls = encode_full(g, PreservingParams(D=4, seed=5))
    w = all_pairs(g)
    assert decode_pair("full", ls.labels[0], ls.labels[1]) >= w[0, 1]


def test_full_reconstructs_adjacency_family():
    rng = random.Random(6)
    k = tail = 8
    adj = [[rng.getrandbits(1) for _ in range(k)] for _ in range(k)]
    g, left, ends = gen_lower_bound_family(k, tail, adj)
    ls = encode_full(g, PreservingParams(D=tail, seed=6))
    for i in range(k):
        for j in range(k):
            got = decode_pair("full", ls.labels[left[i]], ls.labels[ends[j]])
            assert (got == tail) == bool(adj[i][j])


def test_full_level_count_mismatch_rejected():
    a = encode_full(gen_gnm(32, 64, seed=1), PreservingParams(D=2, seed=1))
    b = encode_full(gen_gnm(32, 64, seed=1), PreservingParams(D=8, seed=1))
    with pytest.raises(LabelError):
        decode_pair("full", a.labels[0], b.labels[1])


# --- trivial ---------------------------------------------------------------------

def test_trivial_exact_everywhere():
    g = random_01_graph(40, 90, seed=8)
    ls = encode_trivial(g)
    w = all_pairs(g)
    dec = decode_matrix(ls)
    iu, iv = upper_triangle(g.n)
    assert (dec[iu, iv] == w[iu, iv]).all()


def test_trivial_label_size_formula():
    n = 64
    g = gen_gnm(n, 128, seed=9)
    ls = encode_trivial(g)
    row_bits = n * (math.ceil(math.log2(n + 1)) + 1)
    assert row_bits <= ls.max_bits <= row_bits + 4 * math.ceil(math.log2(n + 2))


def test_trivial_mixed_graphs_rejected():
    g = gen_path(6)
    a = encode_trivial(g)
    b = encode_trivial(gen_path(8))
    with pytest.raises(LabelError):
        decode_pair("trivial", a.labels[0], b.labels[1])
    mixed = LabelSet("trivial", g.n, a.params, a.labels[:3] + b.labels[3:6])
    with pytest.raises(LabelError):
        decode_matrix(mixed)
    rep = verify_labels(g, mixed)
    assert rep.violation_count == 1
    assert rep.violations[0][4].startswith("decode error")


def test_trivial_complete_graph():
    g = gen_gnm(4, 6, seed=0)
    ls = encode_trivial(g)
    for u in range(4):
        for v in range(4):
            if u != v:
                assert decode_pair("trivial", ls.labels[u], ls.labels[v]) == 1


# --- sizes -----------------------------------------------------------------------

def test_full_size_bound_frozen_constant():
    for n, mult, D, seed in [
        (128, 2, 2, 1), (128, 2, 4, 1), (128, 2, 8, 1),
        (256, 2, 8, 2), (256, 4, 4, 2), (64, 1, 2, 3),
    ]:
        g = gen_gnm(n, mult * n, seed)
        ls = encode_full(g, PreservingParams(D=D, seed=seed))
        bound = SIZE_CONSTANT * (n / D) * lg(D) ** 2
        assert ls.max_bits <= bound, (n, mult, D, ls.max_bits, bound)


def test_full_size_doubling_growth():
    for small, big in [(128, 256), (256, 512)]:
        a = encode_full(gen_gnm(small, 2 * small, seed=1), PreservingParams(D=8, seed=1))
        b = encode_full(gen_gnm(big, 2 * big, seed=1), PreservingParams(D=8, seed=1))
        assert b.max_bits <= 2.6 * a.max_bits


# --- bulk vs per-pair decoders -----------------------------------------------------

@pytest.mark.parametrize("scheme,graph", [
    ("warmup", "gnm"), ("medium", "01"), ("full", "01"), ("trivial", "01"),
    # stored values reach 99 >= 64, so the kernel takes its int64 path
    ("warmup", "path"), ("full", "path"),
    # dominator and level values >= 64 share the one int64 min-plus pass
    ("additive", "path"),
    # INF dominator and landmark routes between the components
    ("additive", "split"),
    ("bdeg", "cycle"),
    # split copies in one 0-weight component carry equal landmark columns
    ("sparse", "gnm"),
], ids=["warmup", "medium", "full", "trivial", "warmup-path100", "full-path100",
        "additive-path100", "additive-disconnected", "bdeg-cycle", "sparse-gnm"])
@pytest.mark.filterwarnings("ignore:r=.*exceeds")
def test_matrix_decoder_matches_pair_decoder(scheme, graph):
    g = {
        "gnm": lambda: gen_gnm(28, 64, seed=14),
        "01": lambda: random_01_graph(28, 64, seed=14),
        "path": lambda: gen_path(100),
        "split": lambda: build_graph(28, [
            (u + shift, v + shift) for shift in (0, 14) for u, v, _ in gen_gnm(14, 30, 14).edges
        ]),
        "cycle": lambda: gen_cycle(40),
    }[graph]()
    p = PreservingParams(D=3, seed=14)
    ls = {
        "warmup": lambda: encode_warmup(g, p),
        "medium": lambda: encode_medium(g, p),
        "full": lambda: encode_full(g, p),
        "trivial": lambda: encode_trivial(g),
        "additive": lambda: encode_additive(g, AdditiveParams(r=4, t=4, D=3, seed=14)),
        "bdeg": lambda: encode_bounded_degree(g, 2, 14),
        "sparse": lambda: encode_sparse(g, 14),
    }[scheme]()
    dec = decode_matrix(ls)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert dec[u, v] == dec[v, u] == ls.decode(u, v) == ls.decode(v, u), (scheme, u, v)


def test_pair_and_matrix_read_the_second_labels_table():
    # genuine tables are symmetric, so only stand-ins where b's table alone
    # names a reach the tb[a.id] read; the route sum (10) is the worse answer
    a = SimpleNamespace(id=0, routes=[np.array([5, INF])], tables=[{}])
    b = SimpleNamespace(id=1, routes=[np.array([5, 1])], tables=[{0: 3}])
    assert _pair(a, b) == _pair(b, a) == 3
    out = _matrix([a, b])
    assert out[0, 1] == out[1, 0] == 3


def _minplus_reference(T):
    out = (T[:, None, :] + T[None, :, :]).min(axis=2, initial=INF)
    out[out >= INF] = INF
    return out


@pytest.mark.parametrize("top", [0, 63, 64, 10**6])
@pytest.mark.parametrize("shape", [(0, 0), (0, 5), (7, 0), (1, 1), (9, 4), (40, 31)])
def test_minplus_matches_bruteforce(top, shape):
    rng = np.random.default_rng(top + shape[0] * 131 + shape[1])
    T = rng.integers(0, top + 1, size=shape, dtype=np.int64)
    T[rng.random(shape) < 0.3] = INF
    if T.size:
        T[0] = INF
        T[0, 0] = top  # out[0, 0] = 2 * top, the largest finite sum
    if shape[0] > 2:
        T[1] = INF  # a row with no finite entry
    if shape[1] > 2:
        T[:, 2] = INF  # a column with no finite entry
    # the same table with exact and cut copies of its columns, shuffled in
    picks = rng.integers(0, shape[1], size=2 * shape[1])
    cuts = rng.integers(0, top + 1, size=picks.size)
    copies = np.where(T[:, picks] <= cuts, T[:, picks], INF)
    wide = np.concatenate([T, T[:, picks], copies], axis=1)
    wide = wide[:, rng.permutation(wide.shape[1])]
    for table in (T, wide):
        got = _minplus([np.array_split(row, 3) for row in table])  # rows given as pieces
        assert got.dtype == np.int64
        assert np.array_equal(got, _minplus_reference(T))


def _narrow(columns):
    """The min-plus table with `columns` as its columns, narrowed the way
    _minplus narrows it, plus its sentinel."""
    T = np.array(columns, dtype=np.int64).reshape(len(columns), -1).T
    inf = 2 * int(T.max(initial=0, where=T < INF)) + 1
    return np.minimum(T, inf).astype(np.min_scalar_type(2 * inf)), inf


def test_useful_columns_keep_the_lower_of_equal_columns():
    x, y = [0, 1, 2, 3], [3, 2, 1, 0]
    assert _useful_columns(*_narrow([y, x, y, x, x])).tolist() == [0, 1]


def test_useful_columns_keep_the_widest_level_of_a_landmark():
    # one landmark on three levels: its column cut at 2, at 4 and not at all
    x = np.array([0, 1, 2, 3, 4, 5, INF])
    levels = [np.where(x <= t, x, INF) for t in (2, 4, INF)]
    assert _useful_columns(*_narrow(levels)).tolist() == [2]
    # columns that are no cut of another stay, even one above x in every entry
    above = [1, 2, 3, 4, 5, 6, INF]
    assert _useful_columns(*_narrow([levels[0][::-1], x, above])).tolist() == [0, 1, 2]


def test_useful_columns_drop_columns_without_a_finite_entry():
    x, absent = [0, 1, INF], [INF, INF, INF]
    assert _useful_columns(*_narrow([absent, x, absent])).tolist() == [1]
    assert _useful_columns(*_narrow([absent, absent])).tolist() == []


@pytest.mark.parametrize("rows,cols,kept", [(0, 4, []), (4, 0, []), (1, 1, [0])])
def test_useful_columns_edge_shapes(rows, cols, kept):
    A = np.zeros((rows, cols), dtype=np.uint8)
    assert _useful_columns(A, 1).tolist() == kept
    assert _useful_columns(np.ones((rows, cols), dtype=np.uint8), 1).tolist() == []
