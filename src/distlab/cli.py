"""Command-line harness: distlab gen | encode | verify | bench | lowerbound.

Exit codes: 0 pass, 1 contract violation, 2 usage or input error,
3 encoding failure (e.g. the landmark resampling cap was exhausted).
Every command is deterministic given its inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
import time

from . import graph as G
from . import harness
from . import labels
from .errors import CodecError, EncodingFailure, GraphError, LabelError
from .labels import load_labels, save_labels

SCHEMES = tuple(labels.SCHEMES)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args) -> int:
    kind = args.kind
    if kind == "gnm":
        g = G.gen_gnm(args.n, args.m, args.seed)
    elif kind == "lowerbound":
        rng = random.Random(args.seed)
        adj = [[rng.getrandbits(1) for _ in range(args.k)] for _ in range(args.k)]
        g, left, ends = G.gen_lower_bound_family(args.k, args.d, adj)
        sidecar = {
            "k": args.k,
            "d": args.d,
            "seed": args.seed,
            "left_ids": left,
            "path_end_ids": ends,
            "adjacency_rows": ["".join(str(b) for b in row) for row in adj],
        }
        _write_json(args.out + ".family.json", sidecar)
    else:
        g = G.gen_structured(kind, vars(args))
    G.save_edge_list(g, args.out)
    print(f"wrote {args.out}: n={g.n} m={g.m}")
    return 0


def cmd_encode(args) -> int:
    g = G.load_edge_list(getattr(args, "in"))
    opts = {"D": args.d, "r": args.r, "t": args.t, "dd": args.dd, "delta": args.delta}
    t0 = time.perf_counter()
    ls = labels.lookup(labels.SCHEMES, args.scheme).encode(g, args.seed, opts)
    elapsed = time.perf_counter() - t0
    save_labels(ls, args.out)
    print(
        f"encoded {getattr(args, 'in')} with scheme={ls.scheme} {ls.params}: "
        f"max {ls.max_bits} bits, mean {ls.mean_bits:.1f} bits, {elapsed:.3f}s"
    )
    if args.stats_json:
        _write_json(args.stats_json, {
            "scheme": ls.scheme, "n": ls.n, "params": ls.params, "max_bits": ls.max_bits,
            "mean_bits": ls.mean_bits, "encode_s": elapsed, "meta": ls.meta})
    return 0


def cmd_verify(args) -> int:
    g = G.load_edge_list(args.graph)
    ls = load_labels(args.labels)
    mode, colon, cnt = args.mode.partition(":")
    sample_count = 10_000
    usage = f"unknown mode {args.mode!r}; use exhaustive or sampled:COUNT with COUNT >= 1"
    if mode not in ("exhaustive", "sampled") or (colon and mode == "exhaustive"):
        raise GraphError(usage)
    if colon:
        try:
            sample_count = int(cnt)
        except ValueError:
            raise GraphError(usage) from None
        if sample_count < 1:
            raise GraphError(usage)
    report = harness.verify_labels(
        g, ls, mode=mode, sample_count=sample_count, seed=args.seed,
        graph_id=args.graph,
    )
    print(report.to_text())
    if args.json:
        _write_json(args.json, report.to_dict())
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    ns = _int_list(args.n)
    seeds = _int_list(args.seeds)
    if not ns or not seeds:
        raise GraphError("benchmark sweep needs at least one n and one seed")
    opts = {"r": args.r, "t": args.t, "dd": args.dd, "delta": args.delta}
    opts_list = [dict(opts, D=d) for d in (_int_list(args.d) if args.d else [None])]
    rows = harness.bench_sweep(args.scheme, ns, args.m_rule, seeds, opts_list)
    with open(args.csv, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(harness.BENCH_COLUMNS)
        for row in rows:
            writer.writerow(row.as_list())
    print(f"wrote {len(rows)} rows to {args.csv}")
    return 0


def cmd_lowerbound(args) -> int:
    report = harness.lower_bound_experiment(args.k, args.d, args.seed, args.trials)
    recovered = sum(t["bits_recovered"] for t in report["trial_results"])
    total = report["bits_per_trial"] * report["trials"]
    print(
        f"k={report['k']} tail={report['tail']} trials={report['trials']}: "
        f"recovered {recovered}/{total} adjacency bits"
    )
    print(
        f"queried label bits per trial: mean {report['queried_label_bits_mean']:.0f} "
        f"vs information bound {report['information_bound_bits']:.0f}"
    )
    if args.json:
        _write_json(args.json, report)
    if report["all_exact"]:
        print("result: PASS (every matrix reconstructed exactly)")
        return 0
    print("result: FAIL (reconstruction mismatch; this indicates a scheme bug)")
    return 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="distlab",
        description="distance labeling schemes: generate, encode, verify, benchmark",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a graph as an edge-list file")
    gen.add_argument("kind", choices=["gnm", "path", "cycle", "grid", "star", "lowerbound"])
    gen.add_argument("--n", type=int, default=0)
    gen.add_argument("--m", type=int, default=0)
    gen.add_argument("--rows", type=int, default=1)
    gen.add_argument("--cols", type=int, default=1)
    gen.add_argument("--leaves", type=int, default=0)
    gen.add_argument("--k", type=int, default=8)
    gen.add_argument("--d", type=int, default=8)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    enc = sub.add_parser("encode", help="encode a graph into a label file")
    enc.add_argument("--in", required=True)
    enc.add_argument("--scheme", required=True, choices=SCHEMES)
    enc.add_argument("--d", type=int, default=None, help="threshold for warmup/medium/full")
    enc.add_argument("--r", type=int, default=None, help="additive error budget")
    enc.add_argument("--t", type=int, default=None, help="additive degree threshold override")
    enc.add_argument("--dd", type=int, default=None, help="additive embedded threshold override")
    enc.add_argument("--delta", type=int, default=None, help="degree bound for bdeg")
    enc.add_argument("--seed", type=int, default=0)
    enc.add_argument("--out", required=True)
    enc.add_argument("--stats-json", default=None,
                     help="also write the label sizes, encode time and encode meta as JSON")
    enc.set_defaults(func=cmd_encode)

    ver = sub.add_parser("verify", help="check a label file against the oracle")
    ver.add_argument("--graph", required=True)
    ver.add_argument("--labels", required=True)
    ver.add_argument("--mode", default="exhaustive", help="exhaustive or sampled:COUNT")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--json", default=None, help="also write a machine-readable report")
    ver.set_defaults(func=cmd_verify)

    ben = sub.add_parser("bench", help="sweep label sizes over G(n, m) corpora to CSV")
    ben.add_argument("--scheme", required=True, choices=SCHEMES)
    ben.add_argument("--n", required=True, help="comma-separated node counts")
    ben.add_argument("--m-rule", default="2n", help="edges per point: n, 2n, 4n, or an integer")
    ben.add_argument("--d", default=None, help="comma-separated thresholds (warmup/medium/full)")
    ben.add_argument("--r", type=int, default=None)
    ben.add_argument("--t", type=int, default=None)
    ben.add_argument("--dd", type=int, default=None)
    ben.add_argument("--delta", type=int, default=None)
    ben.add_argument("--seeds", default="1", help="comma-separated seeds")
    ben.add_argument("--csv", required=True)
    ben.set_defaults(func=cmd_bench)

    low = sub.add_parser("lowerbound", help="adjacency reconstruction experiment")
    low.add_argument("--k", type=int, default=8)
    low.add_argument("--d", type=int, default=8)
    low.add_argument("--seed", type=int, default=0)
    low.add_argument("--trials", type=int, default=20)
    low.add_argument("--json", default=None)
    low.set_defaults(func=cmd_lowerbound)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EncodingFailure as exc:
        print(f"encoding failure: {exc}", file=sys.stderr)
        return 3
    except (GraphError, CodecError, LabelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
