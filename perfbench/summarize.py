#!/usr/bin/env python3
"""Summarize benchmark runs recorded in perfbench/out/runs.jsonl.

    python3 perfbench/summarize.py [runs.jsonl]

For each workload and trace mode of the newest code hash (smoke runs left
out), prints every metric's median, quartiles and quartile spread (q3 - q1
over the median) across the recorded runs, plus the environment of the
first run.  perfbench/BASELINE.json is this output for the first set of
runs on the reference machine.
"""

import json
import statistics
import sys
from pathlib import Path


def summarize(lines: list[str]) -> dict:
    runs = [json.loads(line) for line in lines if line.strip()]
    if not runs:
        raise SystemExit("no runs recorded")
    code = runs[-1]["key"]["code_sha256"]
    runs = [r for r in runs if r["key"]["code_sha256"] == code and not r["key"].get("smoke")]
    out = {"code_sha256": code, "environment": runs[0]["environment"], "workloads": {}}
    groups: dict[tuple, list] = {}
    for r in runs:
        groups.setdefault((r["key"]["workload"], r["trace"]), []).append(r)
    for (workload, trace), group in sorted(groups.items()):
        entry = {"runs": len(group), "seeds": [r["key"]["seed"] for r in group],
                 "ops_failed": sum(r["ops_failed"] for r in group), "metrics": {}}
        for name in group[0]["metrics"]:
            vals = [r["metrics"][name] for r in group]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            entry["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
            }
        out["workloads"][f"{workload}/trace{trace}"] = entry
    return out


if __name__ == "__main__":
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "out" / "runs.jsonl"
    print(json.dumps(summarize(path.read_text(encoding="ascii").splitlines()), indent=2))
