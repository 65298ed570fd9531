"""Verification harness and command-line surface: contracts, reports,
exit codes, determinism, CSV output, and fault injection."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from distlab import (
    Graph,
    PreservingParams,
    all_pairs_with_hops,
    encode_full,
    encode_trivial,
    gen_gnm,
    load_edge_list,
    verify_labels,
)
from distlab import harness
from distlab.bits import Bits
from distlab.cli import SCHEMES, main
from distlab.errors import CodecError, GraphError, LabelError
from distlab.harness import (
    bench_sweep,
    bound_value,
    decode_matrix,
    lower_bound_experiment,
    parse_m_rule,
)
from distlab.labels import SCHEMES as REGISTRY
from distlab.labels import SET_PARSERS, LabelSet, dumps, load_labels, loads

pytestmark = pytest.mark.filterwarnings("ignore:r=.*exceeds")


# --- library-level verify ----------------------------------------------------

def test_verify_pass_and_stats():
    g = gen_gnm(64, 128, seed=1)
    ls = encode_full(g, PreservingParams(D=4, seed=1))
    rep = verify_labels(g, ls, graph_id="t")
    assert rep.passed
    assert rep.pairs_checked == 64 * 63 // 2
    assert rep.max_bits >= rep.p95_bits >= rep.p50_bits > 0
    assert "PASS" in rep.to_text()


def test_label_size_percentiles_match_numpy():
    rng = np.random.default_rng(3)
    arrays = [np.array([7]), np.array([3, 3]), np.array([1, 2]), np.arange(21),
              *(rng.integers(0, 5000, size) for size in [2, 3, 7, 20, 21, 64, 65, 513, 1770])]
    for sizes in arrays:
        for q in (50, 95):
            got = harness._percentile(np.sort(sizes), q)
            assert type(got) is float
            assert got == float(np.percentile(sizes, q)), (sizes.size, q)


def test_first_verify_leaves_numpy_ma_unloaded():
    # the label statistics of verify_labels do not go through np.percentile,
    # whose np.unique imports numpy.ma on NumPy 2
    src = os.path.dirname(os.path.dirname(harness.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, distlab; g = distlab.gen_gnm(64, 128, 1); "
            "ls = distlab.encode_full(g, distlab.PreservingParams(D=4, seed=1)); "
            "before = 'numpy.ma' in sys.modules; distlab.verify_labels(g, ls); "
            "print(before, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    before, after = out.stdout.split()
    assert after == before
    if int(np.__version__.split(".")[0]) >= 2:
        assert after == "False"


def test_verify_sampled_mode():
    g = gen_gnm(64, 128, seed=2)
    ls = encode_full(g, PreservingParams(D=4, seed=2))
    rep = verify_labels(g, ls, mode="sampled", sample_count=500, seed=3)
    assert rep.passed and rep.pairs_checked == 500


@pytest.mark.parametrize("count", [0, -5])
def test_verify_sampled_count_must_be_positive(count):
    g = gen_gnm(16, 32, seed=2)
    ls = encode_full(g, PreservingParams(D=2, seed=2))
    with pytest.raises(ValueError, match="sample_count"):
        verify_labels(g, ls, mode="sampled", sample_count=count)


@pytest.mark.parametrize("mode", ["sampledx", "sampled:5", "sampled "])
def test_verify_accepts_only_the_two_mode_names(mode):
    g = gen_gnm(16, 32, seed=2)
    ls = encode_full(g, PreservingParams(D=2, seed=2))
    with pytest.raises(ValueError, match="unknown verify mode"):
        verify_labels(g, ls, mode=mode, sample_count=10)


def test_verify_sampled_on_fewer_than_two_nodes_checks_no_pair():
    g = gen_gnm(1, 0, seed=2)
    rep = verify_labels(g, encode_full(g, PreservingParams(D=2, seed=2)), mode="sampled")
    assert rep.passed and rep.pairs_checked == 0


def test_verify_detects_planted_violation():
    g = gen_gnm(32, 64, seed=3)
    ls = encode_full(g, PreservingParams(D=2, seed=3))
    # corrupt one label: swap in another node's label bits
    ls.labels[3] = ls.labels[17]
    ls._parsed = None
    rep = verify_labels(g, ls, graph_id="corrupt")
    assert not rep.passed
    assert rep.violation_count > 0


def test_verify_seed_must_be_an_integer():
    g = gen_gnm(24, 48, seed=1)
    with pytest.raises(GraphError, match="verify seed 1.5 is not an integer"):
        verify_labels(g, encode_trivial(g), mode="sampled", seed=1.5)


def _whole_triangle(g, ls):
    """(pairs checked, violation count, entries) of an exhaustive verify that
    checks the upper triangle in one piece, on the int64 oracle."""
    w, h = all_pairs_with_hops(g)
    iu, iv = np.triu_indices(g.n, 1)
    d = decode_matrix(ls)[iu, iv]
    w, h = w[iu, iv], h[iu, iv]
    kinds = {"soundness: decoded below true distance": d < w,
             **REGISTRY[ls.scheme].contract(ls.params, w, h, d)}
    entries = [(int(iu[i]), int(iv[i]), int(w[i]), int(d[i]), kind)
               for kind, mask in kinds.items() for i in np.flatnonzero(mask)[:20]]
    return d.size, sum(int(mask.sum()) for mask in kinds.values()), entries[:50], kinds


@pytest.mark.parametrize("block", [40, 1000])
def test_exhaustive_verify_in_row_blocks_reports_the_whole_triangle(block, monkeypatch):
    # labels of one graph checked against another: both kinds have more
    # violations than the 20 a report lists, spread over several row blocks
    g = gen_gnm(60, 120, seed=2)
    ls = encode_full(gen_gnm(60, 120, seed=1), PreservingParams(D=2, seed=1))
    checked, count, entries, kinds = _whole_triangle(g, ls)
    rows = max(1, block // g.n)  # whole rows per block
    iu = np.triu_indices(g.n, 1)[0]
    assert all(mask.sum() > 20 for mask in kinds.values())
    assert all(len(np.unique(iu[mask] // rows)) > 1 for mask in kinds.values())
    rep = verify_labels(g, ls)  # one block
    assert (rep.pairs_checked, rep.violation_count, rep.violations) == (checked, count, entries)
    monkeypatch.setattr(harness, "VERIFY_BLOCK", block)
    rep = verify_labels(g, ls)
    assert (rep.pairs_checked, rep.violation_count, rep.violations) == (checked, count, entries)


@pytest.mark.parametrize("error", [LabelError, CodecError])
def test_a_decoder_error_is_one_violation_in_both_verify_modes(error, monkeypatch):
    # the bulk decoder fails after its first block, the pair decoder at once
    g = gen_gnm(60, 120, seed=1)
    ls = encode_full(g, PreservingParams(D=2, seed=1))
    matrix = harness.MATRIX_DECODERS["full"]

    def failing_matrix(parsed, rows):
        for start, block in matrix(parsed, rows):
            yield start, block
            raise error("bad block")

    def failing_pair(a, b):
        raise error("bad pair")

    monkeypatch.setattr(harness, "VERIFY_BLOCK", 600)  # 10 rows a block
    monkeypatch.setitem(harness.MATRIX_DECODERS, "full", failing_matrix)
    monkeypatch.setitem(harness.PAIR_DECODERS, "full", failing_pair)
    for mode, msg in (("exhaustive", "bad block"), ("sampled", "bad pair")):
        rep = verify_labels(g, ls, mode=mode, sample_count=50, seed=1)
        assert (rep.pairs_checked, rep.violation_count) == (0, 1), mode
        assert rep.violations == [(-1, -1, -1, -1, f"decode error: {msg}")], mode


def test_exhaustive_verify_never_holds_the_whole_decoded_matrix():
    # the decoded matrix streams through verify in row blocks: at n = 2048 a
    # whole int64 matrix alone would take 32 MiB, the narrow oracle 4 MiB
    ls = encode_full(gen_gnm(2048, 4096, seed=1), PreservingParams(D=8, seed=1))
    ls.parsed()
    g = gen_gnm(2048, 4096, seed=1)  # a fresh copy: verify builds its oracle
    tracemalloc.start()
    try:
        rep = verify_labels(g, ls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.mode == "exhaustive" and rep.passed and rep.pairs_checked == 2048 * 2047 // 2
    assert peak < 25 * 2**20


def test_verify_graph_label_mismatch():
    g = gen_gnm(16, 32, seed=4)
    ls = encode_full(gen_gnm(17, 32, seed=4), PreservingParams(D=2, seed=4))
    with pytest.raises(LabelError):
        verify_labels(g, ls)


def test_unknown_scheme_is_a_label_error():
    g = gen_gnm(8, 12, seed=1)
    ls = encode_trivial(g)
    bogus = LabelSet("bogus", ls.n, ls.params, ls.labels)
    for entry in (
        bogus.parsed,
        lambda: bogus.decode(0, 1),
        lambda: decode_matrix(bogus),
        lambda: verify_labels(g, bogus),
        lambda: verify_labels(g, bogus, mode="sampled", sample_count=10),
    ):
        with pytest.raises(LabelError, match="unknown scheme 'bogus'"):
            entry()


# the CLI's options for each scheme: every registered scheme needs an entry
SCHEME_ARGS = {
    "trivial": [],
    "warmup": ["--d", "3"],
    "medium": ["--d", "3"],
    "full": ["--d", "3"],
    "bdeg": [],
    "sparse": [],
    "additive": ["--r", "4", "--t", "16", "--dd", "4"],
}
SCHEME_OPTS = {"D": 3, "r": 2, "t": 6, "dd": 2}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_sampled_and_exhaustive_report_the_same_violation_kinds(name):
    g = gen_gnm(24, 48, seed=1)
    ls = REGISTRY[name].encode(g, 1, SCHEME_OPTS)
    # a label carrying another node's bits: both modes refuse the set
    swapped = LabelSet(ls.scheme, ls.n, ls.params, list(ls.labels))
    swapped.labels[3] = swapped.labels[17]
    # well-formed labels against a graph with one edge moved: the contract masks
    moved = Graph(g.n, g.edges[1:] + [(0, 1, 1)])
    for labels, graph in ((swapped, g), (ls, moved)):
        ex = verify_labels(graph, labels)
        sa = verify_labels(graph, labels, mode="sampled", sample_count=20_000, seed=1)
        assert not ex.passed
        assert {e[4] for e in sa.violations} == {e[4] for e in ex.violations}


def test_sampled_verify_draws_the_same_pairs():
    # the full labels and moved-edge graph of the test above, at seed 1: the
    # seeded pair draw, and so the report, must not change
    g = gen_gnm(24, 48, seed=1)
    ls = REGISTRY["full"].encode(g, 1, SCHEME_OPTS)
    moved = Graph(g.n, g.edges[1:] + [(0, 1, 1)])
    rep = verify_labels(moved, ls, mode="sampled", sample_count=20_000, seed=1)
    assert (rep.pairs_checked, rep.violation_count, len(rep.violations)) == (20_000, 1158, 40)
    assert rep.violations[:3] == [
        (0, 13, 3, 2, "soundness: decoded below true distance"),
        (13, 0, 3, 2, "soundness: decoded below true distance"),
        (2, 0, 2, 1, "soundness: decoded below true distance"),
    ]
    assert rep.violations[20][4] == "window: exact required for hops >= D"


def test_report_dict_is_the_dataclass_plus_passed():
    g = gen_gnm(16, 32, seed=1)
    rep = verify_labels(g, encode_trivial(g))
    rep.violations = [(0, 1, 1, 0, "planted")] * 150
    rep.violation_count = 150
    out = rep.to_dict()
    assert set(out) == {f.name for f in dataclasses.fields(rep)} | {"passed"}
    assert out["violations"] == rep.violations[:100] and out["passed"] is False
    assert {k: v for k, v in out.items() if k not in ("violations", "passed")} == {
        f.name: getattr(rep, f.name) for f in dataclasses.fields(rep) if f.name != "violations"}


@pytest.mark.parametrize("name", list(REGISTRY))
def test_a_set_missing_a_label_fails_both_verify_modes(name):
    g = gen_gnm(40, 80, seed=1)
    ls = REGISTRY[name].encode(g, 1, SCHEME_OPTS)
    short = LabelSet(ls.scheme, ls.n, ls.params, ls.labels[:-1])
    with pytest.raises(LabelError, match="holds 39 labels"):
        short.parsed()
    for mode in ("exhaustive", "sampled"):
        rep = verify_labels(g, short, mode=mode, sample_count=100, seed=1)
        assert not rep.passed, mode
        assert rep.violations[0][4].startswith("decode error"), mode


@pytest.mark.parametrize("name", list(REGISTRY))
def test_trailing_label_bits_are_refused(name):
    g = gen_gnm(40, 80, seed=1)
    ls = REGISTRY[name].encode(g, 1, SCHEME_OPTS)
    labels = list(ls.labels)
    labels[3] = Bits.from_array(np.concatenate([labels[3].to_array(), [1, 0, 1, 1, 0]]))
    with pytest.raises(CodecError, match="label 0 has 5 trailing bits"):
        SET_PARSERS[name]([labels[3]])[0]
    padded = loads(dumps(LabelSet(ls.scheme, ls.n, ls.params, labels)))
    with pytest.raises(CodecError, match="label 3 has 5 trailing bits"):
        padded.parsed()
    for mode in ("exhaustive", "sampled"):
        rep = verify_labels(g, padded, mode=mode, sample_count=100, seed=1)
        assert rep.violation_count == 1, mode
        assert rep.violations[0][4].startswith("decode error"), mode


# the header params each scheme's labels carry themselves
CARRIED = {
    "trivial": ["D"],
    "warmup": ["landmarks"],
    "medium": ["D", "landmarks"],
    "full": ["D", "levels", "landmark_counts"],
    "bdeg": ["delta", "D", "k"],
    "sparse": ["delta", "D", "k"],
    "additive": ["r", "t", "D", "dominators"],
}


@pytest.mark.parametrize("name,key", [(n, k) for n, keys in CARRIED.items() for k in keys])
def test_header_params_must_match_the_labels(name, key):
    g = gen_gnm(40, 80, seed=1)
    ls = REGISTRY[name].encode(g, 1, SCHEME_OPTS)
    params = dict(ls.params)
    value = params[key]
    params[key] = [5 * c for c in value] if isinstance(value, list) else 5 * value
    assert params[key] != value
    loose = LabelSet(ls.scheme, ls.n, params, ls.labels)
    # the file header stores landmark_counts and derives levels from it
    for lset in [loose] if key == "levels" else [loose, loads(dumps(loose))]:
        assert lset.params[key] == params[key]
        with pytest.raises(LabelError, match=f"header param {key}="):
            lset.parsed()
        rep = verify_labels(g, lset)
        assert rep.violation_count == 1
        assert rep.violations[0][4].startswith("decode error")


def test_bench_honours_an_explicit_zero_delta():
    with pytest.raises(GraphError, match="bound 0"):
        bench_sweep("bdeg", [16], "2n", [1], [{"delta": 0}])


@pytest.mark.parametrize("name,message", [
    ("full", "--d is required for the full scheme"),
    ("additive", "--r is required for the additive scheme"),
])
def test_bench_without_a_required_option_is_a_graph_error(name, message):
    with pytest.raises(GraphError, match=message):
        bench_sweep(name, [16], "2n", [1], [{}])


def test_bound_values():
    assert bound_value("full", 128, 256, {"D": 8}) == (128 / 8) * 9.0
    assert bound_value("sparse", 128, 256, {"D": 3}) == 128.0
    assert bound_value("additive", 128, 256, {"r": 4}) == 32.0


def test_parse_m_rule():
    assert parse_m_rule("n", 50) == 50
    assert parse_m_rule("2n", 50) == 100
    assert parse_m_rule("4n", 50) == 200
    assert parse_m_rule("123", 50) == 123


def test_lower_bound_experiment_all_zero_and_all_one():
    import distlab.graph as G
    from distlab.preserving import encode_full as ef

    for fill in (0, 1):
        adj = [[fill] * 4 for _ in range(4)]
        g, left, ends = G.gen_lower_bound_family(4, 4, adj)
        ls = ef(g, PreservingParams(D=4, seed=1))
        for i in range(4):
            for j in range(4):
                got = ls.decode(left[i], ends[j])
                assert (got == 4) == bool(fill)


@pytest.mark.parametrize("k,trials,what", [(2, 1.5, "trial count"), (1.5, 1, "family size k")])
def test_lower_bound_experiment_rejects_non_integer_arguments(k, trials, what):
    with pytest.raises(GraphError, match=what):
        lower_bound_experiment(k, 2, trials=trials)


@pytest.mark.parametrize("trials", [-1, 0])
def test_lower_bound_experiment_needs_a_trial(trials):
    with pytest.raises(GraphError, match="trial count must be >= 1"):
        lower_bound_experiment(2, 2, trials=trials)


def test_lower_bound_experiment_report():
    rep = lower_bound_experiment(5, 5, seed=2, trials=4)
    assert rep["all_exact"]
    assert rep["information_bound_bits"] == 12.5
    assert all(t["bits_recovered"] == 25 for t in rep["trial_results"])


# --- CLI ------------------------------------------------------------------------

def test_cli_gen_encode_verify_roundtrip(tmp_path):
    gpath = tmp_path / "g.edges"
    lpath = tmp_path / "g.dlab"
    assert main(["gen", "gnm", "--n", "48", "--m", "96", "--seed", "7",
                 "--out", str(gpath)]) == 0
    header = gpath.read_text().splitlines()[0]
    assert header == "48 96"
    assert main(["encode", "--in", str(gpath), "--scheme", "full", "--d", "4",
                 "--seed", "1", "--out", str(lpath)]) == 0
    report = tmp_path / "rep.json"
    assert main(["verify", "--graph", str(gpath), "--labels", str(lpath),
                 "--mode", "exhaustive", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["passed"] and data["violation_count"] == 0


@pytest.mark.parametrize("name", SCHEMES)
def test_cli_encode_writes_stats_json(tmp_path, name):
    gpath, lpath, spath = tmp_path / "g.edges", tmp_path / "g.dlab", tmp_path / "stats.json"
    main(["gen", "gnm", "--n", "36", "--m", "72", "--seed", "2", "--out", str(gpath)])
    assert main(["encode", "--in", str(gpath), "--scheme", name, *SCHEME_ARGS[name],
                 "--seed", "1", "--out", str(lpath), "--stats-json", str(spath)]) == 0
    stats = json.loads(spath.read_text())
    ls = load_labels(lpath)
    assert (stats["scheme"], stats["n"], stats["params"]) == (name, 36, ls.params)
    assert stats["max_bits"] == ls.max_bits and stats["mean_bits"] == pytest.approx(ls.mean_bits)
    assert stats["encode_s"] > 0
    g = load_edge_list(gpath)
    fresh = REGISTRY[name].encode(g, 1, {"D": 3, "r": 4, "t": 16, "dd": 4})
    assert stats["meta"] == json.loads(json.dumps(fresh.meta))


def test_cli_structured_generators(tmp_path):
    for args, n, m in (
        (["path", "--n", "6"], 6, 5),
        (["cycle", "--n", "8"], 8, 8),
        (["grid", "--rows", "3", "--cols", "4"], 12, 17),
        (["star", "--leaves", "5"], 6, 5),
    ):
        out = tmp_path / f"{args[0]}.edges"
        assert main(["gen", *args, "--out", str(out)]) == 0
        g = load_edge_list(out)
        assert (g.n, g.m) == (n, m)


def test_cli_scheme_dispatch(tmp_path):
    gpath = tmp_path / "g.edges"
    main(["gen", "gnm", "--n", "36", "--m", "72", "--seed", "2", "--out", str(gpath)])
    assert set(SCHEMES) == set(SCHEME_ARGS)
    for name in SCHEMES:
        args = ["--scheme", name, *SCHEME_ARGS[name]]
        lpath = tmp_path / f"{name}.dlab"
        assert main(["encode", "--in", str(gpath), *args, "--out", str(lpath)]) == 0
        assert main(["verify", "--graph", str(gpath), "--labels", str(lpath)]) == 0
        assert load_labels(lpath).scheme == name
        out = tmp_path / f"{name}.csv"
        assert main(["bench", *args, "--n", "24", "--seeds", "1", "--csv", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 1 and rows[0][2] == name


def test_cli_gen_deterministic(tmp_path):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    main(["gen", "gnm", "--n", "30", "--m", "60", "--seed", "5", "--out", str(a)])
    main(["gen", "gnm", "--n", "30", "--m", "60", "--seed", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_encode_deterministic(tmp_path):
    gpath = tmp_path / "g.edges"
    main(["gen", "gnm", "--n", "30", "--m", "60", "--seed", "5", "--out", str(gpath)])
    outs = []
    for name in ("x.dlab", "y.dlab"):
        path = tmp_path / name
        main(["encode", "--in", str(gpath), "--scheme", "medium", "--d", "3",
              "--seed", "2", "--out", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_cli_gen_lowerbound_sidecar(tmp_path):
    out = tmp_path / "fam.edges"
    assert main(["gen", "lowerbound", "--k", "4", "--d", "3", "--seed", "1",
                 "--out", str(out)]) == 0
    g = load_edge_list(out)
    assert g.n == 4 + 4 * 3
    side = json.loads((tmp_path / "fam.edges.family.json").read_text())
    assert side["left_ids"] == [0, 1, 2, 3]
    assert len(side["path_end_ids"]) == 4
    assert all(len(row) == 4 for row in side["adjacency_rows"])


def test_cli_verify_corrupted_labels_exit_one(tmp_path):
    gpath, lpath = tmp_path / "g.edges", tmp_path / "g.dlab"
    main(["gen", "gnm", "--n", "40", "--m", "80", "--seed", "9", "--out", str(gpath)])
    main(["encode", "--in", str(gpath), "--scheme", "trivial", "--out", str(lpath)])
    blob = bytearray(lpath.read_bytes())
    # corrupt a wide stripe: single-label damage can be masked by the
    # symmetric table read, so make sure fully-corrupted pairs exist
    start = len(blob) // 3
    for i in range(start, min(start + 400, len(blob) - 1)):
        blob[i] ^= 0x55
    lpath.write_bytes(bytes(blob))
    code = main(["verify", "--graph", str(gpath), "--labels", str(lpath)])
    assert code in (1, 2)  # contract violation, or the file no longer parses


def test_cli_usage_and_failure_exit_codes(tmp_path):
    gpath = tmp_path / "g.edges"
    main(["gen", "path", "--n", "16", "--out", str(gpath)])
    # missing required scheme parameter -> usage error
    assert main(["encode", "--in", str(gpath), "--scheme", "full",
                 "--out", str(tmp_path / "x.dlab")]) == 2
    # unreadable input -> usage error
    assert main(["encode", "--in", str(tmp_path / "missing.edges"), "--scheme",
                 "trivial", "--out", str(tmp_path / "x.dlab")]) == 2
    # malformed graph file -> usage error
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 0 1\n")
    assert main(["encode", "--in", str(bad), "--scheme", "trivial",
                 "--out", str(tmp_path / "x.dlab")]) == 2


@pytest.mark.parametrize("mode", ["sampled:-5", "sampled:0", "sampled:", "sampled:x",
                                  "sampled:2.5", "exhaustive:5", "sampledx"])
def test_cli_verify_rejects_bad_sample_count(tmp_path, capsys, mode):
    gpath, lpath = tmp_path / "g.edges", tmp_path / "g.dlab"
    main(["gen", "gnm", "--n", "16", "--m", "32", "--seed", "1", "--out", str(gpath)])
    main(["encode", "--in", str(gpath), "--scheme", "trivial", "--out", str(lpath)])
    capsys.readouterr()
    assert main(["verify", "--graph", str(gpath), "--labels", str(lpath), "--mode", mode]) == 2
    out, err = capsys.readouterr()
    assert "PASS" not in out and "sampled:COUNT" in err
    assert main(["verify", "--graph", str(gpath), "--labels", str(lpath),
                 "--mode", "sampled:5"]) == 0
    assert "sampled (5 pairs)" in capsys.readouterr().out


def test_cli_encoding_failure_exit_code(tmp_path, monkeypatch):
    import numpy as np

    import distlab.preserving as P

    monkeypatch.setattr(
        P, "_classify",
        lambda g, landmarks, D: (list(range(g.n)), np.zeros((g.n, g.n), dtype=bool)),
    )
    gpath = tmp_path / "g.edges"
    main(["gen", "gnm", "--n", "24", "--m", "48", "--seed", "1", "--out", str(gpath)])
    code = main(["encode", "--in", str(gpath), "--scheme", "medium", "--d", "3",
                 "--out", str(tmp_path / "x.dlab")])
    assert code == 3


def test_cli_bench_csv(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["bench", "--scheme", "full", "--n", "32,64", "--m-rule", "2n",
                 "--d", "2,4", "--seeds", "1,2", "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "m", "scheme", "params", "max_label_bits",
                       "mean_label_bits", "bound_value", "ratio",
                       "encode_seconds", "seed"]
    assert len(rows) == 1 + 2 * 2 * 2
    assert all(float(r[7]) > 0 for r in rows[1:])


def test_cli_bench_empty_sweep_is_error(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["bench", "--scheme", "full", "--n", "", "--d", "4",
                 "--seeds", "1", "--csv", str(out)]) == 2
    assert not out.exists()


def test_cli_bench_d_sweep_size_trend(tmp_path):
    out = tmp_path / "trend.csv"
    assert main(["bench", "--scheme", "full", "--n", "256", "--m-rule", "2n",
                 "--d", "2,4,8,16", "--seeds", "1", "--csv", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))[1:]
    bits = [int(r[4]) for r in rows]
    assert bits == sorted(bits, reverse=True)


def test_cli_lowerbound(tmp_path):
    report = tmp_path / "lb.json"
    assert main(["lowerbound", "--k", "5", "--d", "5", "--seed", "3",
                 "--trials", "3", "--json", str(report)]) == 0
    data = json.loads(report.read_text())
    assert data["all_exact"] and data["trials"] == 3


def test_cli_verify_forces_sampling_above_cap(tmp_path, monkeypatch):
    import distlab.harness as H

    monkeypatch.setattr(H, "EXHAUSTIVE_CAP", 16)
    g = gen_gnm(20, 40, seed=1)
    ls = encode_full(g, PreservingParams(D=2, seed=1))
    rep = verify_labels(g, ls, mode="exhaustive", sample_count=50)
    assert rep.mode == "sampled"
    assert rep.warnings and "cap" in rep.warnings[0]
    assert rep.passed
