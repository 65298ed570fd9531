"""Tests of the benchmark itself, on tiny inputs (`run.py --smoke`).

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def smoke(workload, seed, trace):
    out = run("--smoke", "--workload", workload, "--seed", str(seed),
              "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_is_correct_and_complete(workload, trace):
    detail, result = smoke(workload, 11, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, detail["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert detail["ops"] == result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_same_seed_gives_same_labels_and_counts():
    first, _ = smoke("additive-query", 5, 0)
    second, result = smoke("additive-query", 5, 1)
    assert first["determinism"] == second["determinism"]
    assert first["determinism"]["additive.r_warnings"] == 1
    assert result["correct"] is True


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run("--workload", "full-gnm", "--seed", "1", "--seconds", "1", "--trace", "0",
              cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
