"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
The corpus (59 graphs) comes from conftest.corpus_graphs: paths, cycles,
grids, stars, and seeded G(n, m) with n spanning 32..512 and m in {n, 2n, 4n}.
All encodes are seeded, so every criterion is deterministic.
"""

import math
import time

import numpy as np
import pytest

import distlab as dl
from distlab import (
    AdditiveParams,
    INF,
    PreservingParams,
    all_pairs_with_hops,
    decode_matrix,
    encode_additive,
    encode_bounded_degree,
    encode_full,
    encode_medium,
    encode_sparse,
    encode_trivial,
    encode_warmup,
    gen_gnm,
    split_transform,
)
from distlab.harness import lower_bound_experiment

pytestmark = pytest.mark.filterwarnings("ignore:r=.*exceeds")

ADDITIVE_TRIPLES = [(2, 8, 2), (4, 16, 4), (8, 16, 6)]


def triu(n):
    return np.triu_indices(n, 1)


@pytest.fixture(scope="module")
def cache():
    """Shared encode cache: (graph name, scheme, params) -> LabelSet."""
    return {}


def encode_cached(cache, name, g, scheme, **kw):
    key = (name, scheme, tuple(sorted(kw.items())))
    if key not in cache:
        if scheme == "trivial":
            ls = encode_trivial(g)
        elif scheme == "warmup":
            ls = encode_warmup(g, PreservingParams(D=kw["D"], seed=1))
        elif scheme == "medium":
            ls = encode_medium(g, PreservingParams(D=kw["D"], seed=1))
        elif scheme == "full":
            ls = encode_full(g, PreservingParams(D=kw["D"], seed=1))
        elif scheme == "bdeg":
            ls = encode_bounded_degree(g, kw["delta"], seed=1)
        elif scheme == "sparse":
            ls = encode_sparse(g, seed=1)
        else:
            r, t, d = kw["triple"]
            ls = encode_additive(g, AdditiveParams(r=r, t=t, D=d, seed=1))
        cache[key] = ls
    return cache[key]


def scheme_plan(g):
    """Per-scheme parameters used by the soundness criterion."""
    return [
        ("trivial", {}),
        ("warmup", {"D": max(2, math.ceil(math.sqrt(g.n)))}),
        ("medium", {"D": 4}),
        ("full", {"D": 8}),
        ("bdeg", {"delta": max(2, g.max_degree())}),
        ("sparse", {}),
        ("additive", {"triple": (4, 16, 4)}),
    ]


def test_criterion_1_soundness_suite(corpus, cache):
    """Every scheme, every corpus graph, every pair: decoded >= oracle."""
    assert len(corpus) >= 50
    ns = sorted({g.n for _, g in corpus})
    assert ns[0] >= 5 and ns[-1] >= 512
    t0 = time.perf_counter()
    violations = 0
    pairs = 0
    for name, g in corpus:
        weight = dl.all_pairs(g)
        iu, iv = triu(g.n)
        w = weight[iu, iv]
        for scheme, kw in scheme_plan(g):
            ls = encode_cached(cache, name, g, scheme, **kw)
            dec = decode_matrix(ls)[iu, iv]
            bad = int((dec < w).sum())
            if bad:
                print(f"  criterion 1: {name} {scheme}: {bad} sound violations")
            violations += bad
            pairs += w.size
            ls._parsed = None
    elapsed = time.perf_counter() - t0
    status = "PASS" if violations == 0 and elapsed < 300 else "FAIL"
    print(
        f"criterion 1 soundness: {status} ({len(corpus)} graphs x 7 schemes, "
        f"{pairs} pair checks, {violations} violations, {elapsed:.1f}s)"
    )
    assert violations == 0
    assert elapsed < 300


def test_criterion_2_exactness_windows(corpus, cache):
    """medium exact on the [D, 2D] hop window; full exact for hops >= D."""
    med_viol = full_viol = 0
    checked = 0
    for name, g in corpus:
        weight, hops = all_pairs_with_hops(g)
        iu, iv = triu(g.n)
        w, h = weight[iu, iv], hops[iu, iv]
        for D in (2, 4, 8):
            med = encode_cached(cache, name, g, "medium", D=D)
            dec = decode_matrix(med)[iu, iv]
            window = (h != INF) & (h >= D) & (h <= 2 * D)
            med_viol += int((dec[window] != w[window]).sum())
            med._parsed = None
            full = encode_cached(cache, name, g, "full", D=D)
            dec = decode_matrix(full)[iu, iv]
            far = (h != INF) & (h >= D)
            full_viol += int((dec[far] != w[far]).sum())
            checked += int(window.sum()) + int(far.sum())
            full._parsed = None
    status = "PASS" if med_viol == full_viol == 0 else "FAIL"
    print(
        f"criterion 2 exactness windows: {status} (D in 2/4/8, {checked} window "
        f"checks, medium={med_viol} full={full_viol} violations)"
    )
    assert med_viol == 0 and full_viol == 0


def test_criterion_3_sparse_exactness(corpus, cache):
    """Sparse labels exact on all pairs; the split transform preserves every
    distance and respects the degree bound, exhaustively for n <= 256."""
    sparse_viol = 0
    for name, g in corpus:
        assert g.m <= 4 * g.n
        ls = encode_cached(cache, name, g, "sparse")
        weight = dl.all_pairs(g)
        iu, iv = triu(g.n)
        sparse_viol += int((decode_matrix(ls)[iu, iv] != weight[iu, iv]).sum())
        ls._parsed = None
    split_bad = 0
    split_checked = 0
    for name, g in corpus:
        if g.n > 256:
            continue
        k = max(math.ceil(g.m / g.n), 3) if g.n else 3
        res = split_transform(g, k)
        split_checked += 1
        if res.gprime.max_degree() > k:
            split_bad += 1
        reps = np.array(res.rep)
        wp = dl.all_pairs(res.gprime)
        if not (wp[np.ix_(reps, reps)] == dl.all_pairs(g)).all():
            split_bad += 1
        if res.gprime.n > 2 * g.m / (k - 2) + g.n:
            split_bad += 1
    status = "PASS" if sparse_viol == 0 and split_bad == 0 else "FAIL"
    print(
        f"criterion 3 sparse exactness: {status} ({len(corpus)} graphs exact, "
        f"{split_checked} split transforms checked, {sparse_viol + split_bad} failures)"
    )
    assert sparse_viol == 0 and split_bad == 0


def test_criterion_4_additive_error(corpus, cache):
    """Every decoded value within [dist, dist + r] for the three triples."""
    violations = 0
    checks = 0
    for name, g in corpus:
        weight = dl.all_pairs(g)
        iu, iv = triu(g.n)
        w = weight[iu, iv]
        fin = w != INF
        for triple in ADDITIVE_TRIPLES:
            r = triple[0]
            ls = encode_cached(cache, name, g, "additive", triple=triple)
            dec = decode_matrix(ls)[iu, iv]
            violations += int((dec < w).sum())
            violations += int((dec[fin] > w[fin] + r).sum())
            violations += int((dec[~fin] != INF).sum())
            checks += w.size
            ls._parsed = None
    status = "PASS" if violations == 0 else "FAIL"
    print(
        f"criterion 4 additive error: {status} (triples {ADDITIVE_TRIPLES}, "
        f"{checks} pair checks, {violations} violations)"
    )
    assert violations == 0


def test_criterion_5_sick_sampling_statistics():
    """First-attempt sick sets stay below the resample threshold most of the
    time, and the resampling loop converges fast."""
    n = 512
    D = math.ceil(math.sqrt(n))
    threshold = 2 * n / D
    graphs = [gen_gnm(n, 2 * n, seed=3000 + j) for j in range(10)]
    first_bad = 0
    attempts = []
    runs = 200
    for i in range(runs):
        g = graphs[i % len(graphs)]
        ls = encode_medium(g, PreservingParams(D=D, seed=5000 + i))
        history = ls.meta["sick_history"]
        first_bad += history[0] >= threshold
        attempts.append(ls.meta["attempts"])
    frac = first_bad / runs
    mean_attempts = sum(attempts) / len(attempts)
    status = "PASS" if frac <= 0.6 and mean_attempts <= 3 else "FAIL"
    print(
        f"criterion 5 sick statistics: {status} ({runs} first samples, "
        f"bad fraction {frac:.3f} <= 0.6, mean attempts {mean_attempts:.2f} <= 3)"
    )
    assert frac <= 0.6
    assert mean_attempts <= 3


def test_criterion_6_size_scaling():
    """Label-size trends: ratio band for the doubling scheme, monotone drop in
    the threshold sweep, and shrinking per-node cost for the sparse scheme."""
    ratios = []
    for n in (128, 256, 512, 1024):
        g = gen_gnm(n, 2 * n, seed=1)
        ls = encode_full(g, PreservingParams(D=8, seed=1))
        ratios.append(ls.max_bits / ((n / 8) * max(math.log2(8), 1.0) ** 2))
    band = max(ratios) / min(ratios)

    g1024 = gen_gnm(1024, 2048, seed=1)
    bits = [
        encode_full(g1024, PreservingParams(D=D, seed=1)).max_bits
        for D in (2, 4, 8, 16)
    ]
    d_monotone = all(a > b for a, b in zip(bits, bits[1:]))

    per_node = []
    for n in (128, 256, 512, 1024):
        g = gen_gnm(n, 2 * n, seed=1)
        per_node.append(encode_sparse(g, seed=1).max_bits / n)
    sparse_monotone = all(a > b for a, b in zip(per_node, per_node[1:]))

    status = "PASS" if band <= 3 and d_monotone and sparse_monotone else "FAIL"
    print(
        f"criterion 6 size scaling: {status} (ratio band {band:.2f}x <= 3x; "
        f"max bits over D=2..16: {bits}; sparse bits/n: "
        f"{[f'{v:.1f}' for v in per_node]})"
    )
    assert band <= 3
    assert d_monotone
    assert sparse_monotone


def test_criterion_7_adjacency_reconstruction():
    """20 random 8x8 adjacency matrices recovered exactly from labels alone."""
    rep = lower_bound_experiment(8, 8, seed=1, trials=20)
    recovered = sum(t["bits_recovered"] for t in rep["trial_results"])
    total = rep["bits_per_trial"] * rep["trials"]
    status = "PASS" if rep["all_exact"] else "FAIL"
    print(
        f"criterion 7 reconstruction: {status} ({recovered}/{total} bits, "
        f"queried label bits mean {rep['queried_label_bits_mean']:.0f} vs "
        f"information bound {rep['information_bound_bits']:.0f})"
    )
    assert rep["all_exact"]
    assert recovered == total


def test_criterion_8_codec_suite():
    """>= 10^4 randomized codec round trips plus byte-identical label files."""
    import random

    from bitref import BitCursor, BitWriter

    rng = random.Random(99)
    cases = 0
    w = BitWriter()
    plan = []
    for _ in range(12_000):
        kind = rng.randrange(3)
        if kind == 0:
            x = rng.randrange(1, 1 << 24)
            plan.append(("g", x))
            w.write_gamma(x)
        elif kind == 1:
            width = rng.randrange(1, 32)
            x = rng.randrange(1 << width)
            plan.append(("f", (x, width)))
            w.write_fixed(x, width)
        else:
            ids = sorted(rng.sample(range(4000), rng.randrange(0, 8)))
            plan.append(("s", ids))
            w.write_id_set(ids)
    cur = BitCursor(w.getvalue())
    for kind, val in plan:
        if kind == "g":
            assert cur.read_gamma() == val
        elif kind == "f":
            assert cur.read_fixed(val[1]) == val[0]
        else:
            assert cur.read_id_set() == val
        cases += 1
    assert cur.remaining == 0

    from distlab.labels import dumps

    g = gen_gnm(48, 96, seed=6)
    identical = True
    for build in (
        lambda: encode_full(gen_gnm(48, 96, seed=6), PreservingParams(D=4, seed=2)),
        lambda: encode_sparse(gen_gnm(48, 96, seed=6), seed=2),
        lambda: encode_additive(gen_gnm(48, 96, seed=6), AdditiveParams(r=4, t=8, D=3, seed=2)),
    ):
        identical &= dumps(build()) == dumps(build())
    status = "PASS" if cases >= 10_000 and identical else "FAIL"
    print(
        f"criterion 8 codec suite: {status} ({cases} randomized round trips, "
        f"byte-identical files: {identical})"
    )
    assert cases >= 10_000
    assert identical
