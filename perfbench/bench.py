"""The distlab benchmark proper; `run.py` is its entry point.

One run drives the public API the way a user does, in one process with one
thread (a closed loop of one caller):

    seeded graph -> encode -> save_labels                  (encode pass)
    load_labels + parse -> a batch of LabelSet.decode pair queries
      -> decode_matrix -> verify_labels on the graph re-read from its
         edge-list text                                     (read pass)

Set-up (interpreter start -> import distlab -> seeded graph) is timed in
fresh processes and reported as their median.  Then encode and read passes
run on the seed's graph while less than `--seconds` has passed (see `Run`).
Each stage time is its mean over the run's passes (load_s is sampled
several times per read pass, see `read_pass`), `total_s` is one encode plus
one read pass, and `query_p50_us` is the median of every query latency of
the run.  Every pass is checked: no contract violation from
verify_labels, every queried answer equal to its decode_matrix entry and
within the scheme contract against the oracle, loads(dumps(labels)) and the
loaded file equal to the encoded labels, and identical label bytes and
counts across encodes and across earlier runs of the same code and seed
(the ledger `perfbench/out/runs.jsonl`).

With `--trace 1` the run makes one untraced and one traced pair of passes,
reports per-layer metrics from the traced pair, replays landmark
certification from `LabelSet.meta`, and writes the spans to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import distlab
from distlab import INF
from distlab.bits import gamma_length

from tracer import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 7
LOAD_SAMPLES = 3  # load + parse samples per untraced read pass


def _encode_full(g, seed):
    return distlab.encode_full(g, distlab.PreservingParams(D=8, seed=seed))


def _encode_sparse(g, seed):
    return distlab.encode_sparse(g, seed)


def _encode_additive(g, seed):
    return distlab.encode_additive(g, distlab.AdditiveParams(r=4, t=16, D=4, seed=seed))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    n: int
    m: int
    queries: int
    encode: Callable


# Why these three: BENCHMARK.json gives one line each.  full-gnm is bound by
# certification (min-plus path), the level writer and bulk decode;
# sparse-split by encoding the 3.5x larger split graph (layered-Dijkstra
# certification); additive-query by per-pair decode and label parsing.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-gnm", "full", 1024, 2048, 20_000, _encode_full),
        Workload("sparse-split", "sparse", 512, 1024, 20_000, _encode_sparse),
        Workload("additive-query", "additive", 512, 1024, 200_000, _encode_additive),
    )
}

# Tiny inputs that still run every pipeline stage and every check.
SMOKE_SIZES = {"full-gnm": (64, 128, 500), "sparse-split": (48, 96, 500),
               "additive-query": (64, 128, 2000)}

E2E_UNITS = {
    "setup_s": "s", "encode_s": "s", "load_s": "s", "query_p50_us": "us",
    "queries_per_s": "1/s", "decode_matrix_s": "s", "verify_s": "s", "total_s": "s",
    "label_bits_max": "bits", "label_bits_mean": "bits", "bits_vs_trivial": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "graph.apsp_s": "s", "graph.nodes": "count", "graph.edges": "count",
    "preserving.encode_full_s": "s", "preserving.certify_s": "s",
    "preserving.certify_calls": "count", "preserving.levels": "count",
    "preserving.landmarks": "count", "preserving.sick": "count",
    "preserving.full_matrix_s": "s", "preserving.bits_presence": "bits",
    "preserving.bits_landmark_values": "bits", "preserving.bits_window": "bits",
    "sparse.split_s": "s", "sparse.split_ratio": "ratio", "sparse.near_entries": "count",
    "sparse.bits_near": "bits",
    "additive.power_graph_s": "s", "additive.dominating_set_s": "s",
    "additive.balls_s": "s", "additive.high_degree": "count", "additive.dominators": "count",
    "additive.bits_dominator": "bits", "additive.bits_ball": "bits",
    "additive.r_warnings": "count",
    "bits.pack_s": "s", "bits.pack_calls": "count", "bits.fold_s": "s",
    "bits.read_packed_s": "s", "bits.read_id_set_s": "s",
    "labels.save_s": "s", "labels.load_s": "s", "labels.parse_s": "s",
    "labels.file_bytes": "bytes",
    "harness.pair_decode_p50_us": "us", "harness.query_p99_us": "us",
    "harness.contract_s": "s", "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# Checks and counts


def contract_ok(scheme: str, params: dict, w, h, d) -> np.ndarray:
    """Per-pair scheme contract against oracle weight w and hop count h.

    Written out here rather than taken from the harness, so the queried
    answers are checked independently of the verify_labels under test."""
    ok = d >= w  # soundness; for w == INF this forces d == INF
    if scheme == "full":
        ok &= (h == INF) | (h < params["D"]) | (d == w)
    elif scheme in ("trivial", "bdeg", "sparse"):
        ok &= d == w
    elif scheme == "additive":
        ok &= (w == INF) | (d <= w + params["r"])
    else:
        raise ValueError(f"no contract for scheme {scheme!r}")
    return ok


def trivial_max_bits(n: int) -> int:
    """Largest encode_trivial label on n nodes: gamma(n+1), gamma(id+1) for
    id n-1, then n distances of n.bit_length()+1 bits."""
    return gamma_length(n + 1) + gamma_length(n) + n * (n.bit_length() + 1)


def id_set_bits(ids) -> int:
    bits = gamma_length(len(ids) + 1)
    prev = None
    for i in ids:
        bits += gamma_length(i + 1 if prev is None else i - prev)
        prev = i
    return bits


def level_bits(levels) -> tuple[int, int, int]:
    """(presence bitmap, landmark values, uncovered window) bits of parsed levels."""
    presence = values = window = 0
    for lv in levels:
        w2d = (2 * lv.D).bit_length()
        presence += lv.size
        values += int((lv.lm != INF).sum()) * w2d
        if not lv.sick:
            window += id_set_bits(sorted(lv.uc)) + len(lv.uc) * w2d
    return presence, values, window


def find_levels(meta) -> list:
    """Per-level encode records of the (possibly embedded) full scheme."""
    if not isinstance(meta, dict):
        return []
    if isinstance(meta.get("levels"), list):
        return meta["levels"]
    for val in meta.values():
        found = find_levels(val)
        if found:
            return found
    return []


# Label-structure counts; counts of layers a scheme does not run stay 0.
STRUCTURE_COUNTS = [
    k for k, u in LAYER_UNITS.items()
    if u in ("count", "bits", "ratio") and k != "additive.r_warnings"
    and k.split(".")[0] in ("preserving", "sparse", "additive")
]


def structure_counts(ls, parsed, big: int) -> dict:
    """Counts read from the parsed levels and `ls.meta` of one encoding."""
    top = parsed[big]
    full = getattr(top, "full", top)
    levels_meta = find_levels(ls.meta)
    presence, values, window = level_bits(full.levels)
    out = dict.fromkeys(STRUCTURE_COUNTS, 0)
    out.update({
        "preserving.levels": len(full.levels),
        "preserving.landmarks": sum(lv.size for lv in full.levels),
        "preserving.certify_calls": sum(int(lv.get("attempts", 0)) for lv in levels_meta),
        "preserving.sick": sum(len(lv.get("sick", ())) for lv in levels_meta),
        "preserving.bits_presence": presence,
        "preserving.bits_landmark_values": values,
        "preserving.bits_window": window,
    })
    if ls.scheme == "sparse":
        out["sparse.split_ratio"] = ls.meta["split_nodes"] / ls.n
        out["sparse.near_entries"] = sum(len(p.near) for p in parsed)
        out["sparse.bits_near"] = (
            id_set_bits(sorted(top.near)) + len(top.near) * max(1, (top.D - 1).bit_length() + 1)
        )
    if ls.scheme == "additive":
        out["additive.high_degree"] = len(ls.meta["high_degree"])
        out["additive.dominators"] = len(ls.meta["dominators"])
        out["additive.bits_dominator"] = (
            top.dom.size + int((top.dom != INF).sum()) * max(1, ls.n.bit_length())
        )
        if not top.high:
            out["additive.bits_ball"] = (
                id_set_bits(sorted(top.ball)) + len(top.ball) * max(1, top.D.bit_length())
            )
    return out


def count_metrics(ls, parsed, raw: bytes, r_warnings: int) -> tuple[dict, list[str]]:
    """Label hash and exact counts of one encoding, identical for every run
    of one code and seed, plus notes.  The structure counts read library
    internals; if their shape has changed they stay 0 and a note says why,
    since they are diagnostics, not correctness checks."""
    sizes = ls.bit_sizes()
    out = {
        "label_sha256": hashlib.sha256(raw).hexdigest(),
        "label_bits_max": int(sizes.max()),
        "label_bits_mean": float(sizes.mean()),
        "bits_vs_trivial": int(sizes.max()) / trivial_max_bits(ls.n),
        "labels.file_bytes": len(raw),
        "additive.r_warnings": r_warnings,
    }
    try:
        out.update(structure_counts(ls, parsed, int(np.argmax(sizes))))
    except (AttributeError, KeyError, TypeError) as exc:
        out.update(dict.fromkeys(STRUCTURE_COUNTS, 0))
        return out, [f"structure counts unavailable: {exc!r}"]
    return out, []


# ---------------------------------------------------------------------------
# The pipeline: an encode pass (gen -> encode -> save_labels) feeds one or
# more read passes (load_labels + parse -> queries -> decode_matrix -> verify).


def query_pairs(n: int, count: int, seed: int) -> tuple[list[int], list[int]]:
    rng = random.Random(seed * 1_000_003 + 17)
    us, vs = [], []
    for _ in range(count):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        us.append(u)
        vs.append(v + (v >= u))
    return us, vs


def encode_pass(wl: Workload, seed: int, work: Path) -> dict:
    """Timed encode plus save_labels, on a fresh copy of the seed's graph
    (the encoder caches APSP on the graph it is given)."""
    g = distlab.gen_gnm(wl.n, wl.m, seed)
    path = work / "labels.dlab"
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ls = wl.encode(g, seed)
    distlab.save_labels(ls, path)
    encode_s = time.perf_counter() - t0
    return {
        "encode_s": encode_s, "ls": ls, "raw": path.read_bytes(),
        "r_warnings": sum(1 for w in caught if issubclass(w.category, UserWarning)),
        "warning_messages": sorted({str(w.message) for w in caught}),
    }


def timed_load(path: Path):
    t0 = time.perf_counter()
    loaded = distlab.load_labels(path)
    loaded.parsed()
    return loaded, time.perf_counter() - t0


def read_pass(pairs, work: Path, load_samples: int = LOAD_SAMPLES) -> dict:
    """Timed reads of the last saved labels: load_labels + parse, the query
    batch, decode_matrix, and verify_labels on the re-read edge list.

    Load + parse is the shortest stage and the one host contention moves
    most, so it is sampled again (fresh load, result unused) before
    decode_matrix and before verify, up to `load_samples` times; the
    samples are far enough apart in time to be nearly independent."""
    path = work / "labels.dlab"
    clock = time.perf_counter
    loaded, load_s = timed_load(path)
    loads = [load_s]
    us, vs = pairs
    answers = [0] * len(us)
    lat = [0] * len(us)
    decode = loaded.decode
    pc = time.perf_counter_ns
    b0 = pc()
    for i in range(len(us)):
        q0 = pc()
        answers[i] = decode(us[i], vs[i])
        lat[i] = pc() - q0
    b1 = pc()
    if len(loads) < load_samples:
        loads.append(timed_load(path)[1])
    t0 = clock()
    mat = distlab.decode_matrix(loaded)
    t1 = clock()
    if len(loads) < load_samples:
        loads.append(timed_load(path)[1])
    t2 = clock()
    g2 = distlab.load_edge_list(work / "graph.edges")
    report = distlab.verify_labels(g2, loaded, mode="exhaustive")
    t3 = clock()
    query_s = (b1 - b0) / 1e9
    return {
        "times": {
            "load_s": loads, "query_batch_s": query_s, "decode_matrix_s": t1 - t0,
            "verify_s": t3 - t2, "read_s": load_s + query_s + (t1 - t0) + (t3 - t2),
        },
        "lat_ns": np.asarray(lat, dtype=np.int64), "answers": answers,
        "loaded": loaded, "mat": mat, "report": report, "oracle": g2,
    }


def same_labels(a, b) -> bool:
    return (a.scheme, a.n, a.params, a.labels) == (b.scheme, b.n, b.params, b.labels)


def check_read(ls, rd: dict, pairs) -> tuple[int, int, list[str]]:
    """(ops, failed, notes) for one read pass of the labels `ls`."""
    report = rd["report"]
    notes = []
    failed = report.violation_count
    if report.violation_count:
        notes.append(f"verify_labels: {report.violation_count} violations")
    all_pairs = ls.n * (ls.n - 1) // 2
    if report.pairs_checked != all_pairs:
        failed += 1
        notes.append(f"verify_labels checked {report.pairs_checked} of {all_pairs} pairs")
    ua, va = np.asarray(pairs[0]), np.asarray(pairs[1])
    d = np.asarray(rd["answers"], dtype=np.int64)
    weight, hops = rd["oracle"].apsp()
    bad = (d != rd["mat"][ua, va]) | ~contract_ok(
        ls.scheme, ls.params, weight[ua, va], hops[ua, va], d
    )
    if bad.any():
        failed += int(bad.sum())
        notes.append(f"{int(bad.sum())} queried answers disagree with decode_matrix or contract")
    if not same_labels(rd["loaded"], ls):
        failed += 1
        notes.append("load_labels(save_labels(labels)) differs from the encoded labels")
    return len(pairs[0]) + report.pairs_checked, failed, notes


def certify_replay(ls, label, g) -> float:
    """Seconds of classify_nodes over the encoded levels, replayed with the
    landmarks in `ls.meta` on the graph the levels label; `label` is any
    parsed label of `ls`, for the level thresholds."""
    if ls.scheme == "sparse":
        g = distlab.split_transform(g, ls.params["k"]).gprime
    g.apsp()
    levels = getattr(label, "full", label).levels
    total = 0.0
    for lv, meta in zip(levels, find_levels(ls.meta)):
        t0 = time.perf_counter()
        distlab.classify_nodes(g, meta["landmarks"], lv.D)
        total += time.perf_counter() - t0
    return total


# ---------------------------------------------------------------------------
# Set-up, environment, determinism ledger

_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, {src!r})\n"
    "import distlab\n"
    "distlab.gen_gnm({n}, {m}, {seed})\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC))\n"
)


def measure_setup(wl: Workload, seed: int) -> list[float]:
    """Interpreter start -> import distlab -> seeded graph, in fresh processes."""
    code = _CHILD.format(src=str(SRC), n=wl.n, m=wl.m, seed=seed)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True,
        )
        samples.append((int(out.stdout.split()[-1]) - t0) / 1e9)
    return samples


def code_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "distlab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "kernel": platform.release(),
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "seed": seed,
    }


def ledger_conflicts(key: dict, record: dict) -> list[str]:
    """Earlier runs of the same code, workload, sizes and seed whose label
    hash or counts differ from this run's."""
    path = OUT / "runs.jsonl"
    if not path.exists():
        return []
    notes = []
    for line in path.read_text(encoding="ascii").splitlines():
        prior = json.loads(line)
        if prior.get("key") == key and prior.get("determinism") != record:
            diff = sorted(k for k in record if prior["determinism"].get(k) != record[k])
            notes.append(f"run at {prior['started']} differs in {diff}")
    return notes


# ---------------------------------------------------------------------------
# Runs


def percentile_us(ns, q: float) -> float:
    """Percentile of nanosecond samples in microseconds; 0 without samples."""
    ns = np.asarray(ns, dtype=np.int64)
    return float(np.percentile(ns, q)) / 1e3 if ns.size else 0.0


def e2e_metrics(run: "Run", setup: list[float]) -> dict:
    # Stage times are means over the run's passes (all of a stage's time in
    # the run over its pass count), not medians: host contention on the
    # reference machine is bimodal (about 1.6x between its two states, for
    # seconds to minutes at a time), and the median of a few passes flips
    # between the states from run to run.
    def mean(key):
        return statistics.fmean(r["times"][key] for r in run.reads)

    encode_s = statistics.fmean(e["encode_s"] for e in run.encodes)
    record = run.records[0]
    return {
        "setup_s": statistics.median(setup),
        "encode_s": encode_s,
        "load_s": statistics.fmean(x for r in run.reads for x in r["times"]["load_s"]),
        "query_p50_us": percentile_us(np.concatenate([r["lat_ns"] for r in run.reads]), 50),
        "queries_per_s": run.wl.queries / mean("query_batch_s"),
        "decode_matrix_s": mean("decode_matrix_s"),
        "verify_s": mean("verify_s"),
        "total_s": encode_s + mean("read_s"),
        "label_bits_max": record["label_bits_max"],
        "label_bits_mean": record["label_bits_mean"],
        "bits_vs_trivial": record["bits_vs_trivial"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(run: "Run", tr: Tracer, certify_s: float) -> dict:
    """Per-layer metrics of the traced (last) encode and read pass; the
    first pair of passes is the untraced reference for the overhead."""
    enc, rd = run.encodes[-1], run.reads[-1]
    out = {k: run.records[0][k] for k in LAYER_UNITS if k in run.records[0]}
    graphs = [args[0] for args in tr.calls.get("preserving.encode_full", ())]
    parse_s = sum(tr.total_s(name) for name in tr.agg if ".parse_" in name)
    untraced_total = run.encodes[0]["encode_s"] + run.reads[0]["times"]["read_s"]
    out.update({
        "graph.apsp_s": tr.total_s("graph.Graph.apsp"),
        "graph.nodes": max((g.n for g in graphs), default=0),
        "graph.edges": max((g.m for g in graphs), default=0),
        "preserving.encode_full_s": tr.total_s("preserving.encode_full"),
        "preserving.certify_s": certify_s,
        "preserving.full_matrix_s": tr.total_s("preserving.full_matrix"),
        "sparse.split_s": tr.total_s("sparse.split_transform"),
        "additive.power_graph_s": tr.total_s("additive.power_graph"),
        "additive.dominating_set_s": tr.total_s("additive.greedy_dominating_set"),
        "additive.balls_s": tr.total_s("additive.ball_in_induced"),
        "bits.pack_s": tr.total_s("bits.pack_values"),
        "bits.pack_calls": tr.count("bits.pack_values"),
        "bits.fold_s": tr.total_s("bits.BitWriter.getvalue"),
        "bits.read_packed_s": tr.total_s("bits.BitCursor.read_packed"),
        "bits.read_id_set_s": tr.total_s("bits.BitCursor.read_id_set"),
        "labels.save_s": tr.total_s("labels.save_labels"),
        "labels.load_s": tr.total_s("labels.load_labels"),
        "labels.parse_s": parse_s,
        "harness.pair_decode_p50_us": percentile_us(tr.durations_ns("harness.pair_decode"), 50),
        "harness.query_p99_us": percentile_us(rd["lat_ns"], 99),
        "harness.contract_s": tr.self_s("harness.verify_labels"),
        "trace.overhead_s": enc["encode_s"] + rd["times"]["read_s"] - untraced_total,
    })
    return out


class Run:
    """The checked encode and read passes of one run.

    Every encode pass is followed by at least one read pass.  Another
    encode comes only once the read passes have taken as long as the encode
    passes, so a write-heavy workload still gets several samples of its
    short read stages within the run.
    """

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.seed, self.work = wl, seed, work
        self.pairs = query_pairs(wl.n, wl.queries, seed)
        self.ops = self.failed = 0
        self.notes: list[str] = []
        self.records: list[dict] = []  # one per encode pass
        self.encodes: list[dict] = []
        self.reads: list[dict] = []

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(note)

    def add_encode(self, enc: dict) -> None:
        if self.encodes:  # only the newest encode's labels are still read
            for k in ("ls", "raw"):
                self.encodes[-1].pop(k, None)
        self.fail(not same_labels(distlab.labels.loads(distlab.labels.dumps(enc["ls"])),
                                  enc["ls"]),
                  "loads(dumps(labels)) differs from the encoded labels")
        self.encodes.append(enc)

    def add_read(self, rd: dict) -> None:
        enc = self.encodes[-1]
        ops, failed, notes = check_read(enc["ls"], rd, self.pairs)
        self.ops += ops
        self.fail(failed, "; ".join(notes))
        if len(self.records) < len(self.encodes):
            record, why = count_metrics(
                enc["ls"], rd["loaded"].parsed(), enc["raw"], enc["r_warnings"]
            )
            self.records.append(record)
            self.notes += why
        for k in ("loaded", "mat", "oracle", "answers"):
            del rd[k]
        self.reads.append(rd)

    def untraced(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            write = sum(e["encode_s"] for e in self.encodes)
            if not self.encodes or write <= sum(r["times"]["read_s"] for r in self.reads):
                self.add_encode(encode_pass(self.wl, self.seed, self.work))
            self.add_read(read_pass(self.pairs, self.work))
            if time.perf_counter() >= deadline:
                return

    def traced(self) -> tuple[Tracer, float]:
        """One traced encode and read pass; returns the tracer and the
        certification replay time."""
        tr = Tracer()
        tr.capture = {"preserving.encode_full"}
        tr.rep = len(self.encodes)
        tr.install(distlab, self.wl.scheme)
        try:
            enc = encode_pass(self.wl, self.seed, self.work)
            rd = read_pass(self.pairs, self.work, load_samples=1)
        finally:
            self.fail(tr.restore(), "traced functions were left wrapped")
        try:
            certify_s = certify_replay(enc["ls"], rd["loaded"].parsed()[0], rd["oracle"])
        except (AttributeError, KeyError, TypeError) as exc:  # diagnostics only
            certify_s = 0.0
            self.notes.append(f"certification replay unavailable: {exc!r}")
        self.add_encode(enc)
        self.add_read(rd)
        return tr, certify_s

    def determinism_record(self, key: dict) -> dict:
        """Counts of the first encode, after comparing every encode of the
        run and the earlier runs in the ledger with it."""
        record = self.records[0]
        for i, rec in enumerate(self.records[1:], 1):
            self.fail(rec != record, f"encode {i} differs from encode 0 in labels or counts")
        for conflict in ledger_conflicts(key, record):
            self.fail(1, f"determinism: {conflict}")
        return record


def main(argv, thread_vars) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the tests")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.smoke:
        n, m, q = SMOKE_SIZES[wl.name]
        wl = dataclasses.replace(wl, n=n, m=m, queries=q)
    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    key = {"code_sha256": code_sha256(), "workload": wl.name, "smoke": args.smoke,
           "n": wl.n, "m": wl.m, "queries": wl.queries, "seed": args.seed}
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        g = distlab.gen_gnm(wl.n, wl.m, args.seed)
        distlab.save_edge_list(g, work / "graph.edges")
        run = Run(wl, args.seed, work)
        setup = [] if args.trace else measure_setup(wl, args.seed)
        run.untraced(0 if args.trace else args.seconds)
        if args.trace:
            tr, certify_s = run.traced()
        record = run.determinism_record(key)
        if args.smoke:
            run.fail(distlab.encode_trivial(g).max_bits != trivial_max_bits(wl.n),
                     "trivial_max_bits disagrees with encode_trivial")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        tr.write(OUT / f"spans-{wl.name}-{args.seed}.jsonl")
        metrics = layer_metrics(run, tr, certify_s)
        units = LAYER_UNITS
    else:
        metrics = e2e_metrics(run, setup)
        units = E2E_UNITS
    detail = {
        "key": key, "started": started, "trace": args.trace,
        "environment": environment(args.seed, thread_vars),
        "determinism": record, "ops": run.ops, "ops_failed": run.failed, "notes": run.notes,
        "encode_passes": len(run.encodes),
        "read_passes": len(run.reads),
        "query_samples": len(run.reads) * wl.queries,
        "r_warning_messages": sorted({m for e in run.encodes for m in e["warning_messages"]}),
        "setup_samples_s": setup,
        "encode_times_s": [e["encode_s"] for e in run.encodes],
        "read_times_s": [r["times"] for r in run.reads],
        "metrics": metrics,
    }
    with open(OUT / "runs.jsonl", "a", encoding="ascii") as fh:
        fh.write(json.dumps(detail, sort_keys=True) + "\n")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.ops,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0
