#!/usr/bin/env python3
"""Run the distlab benchmark on one workload.

    python3 perfbench/run.py --workload full-gnm --seed 7 --seconds 10 --trace 0

Run from the repository root.  The library is imported from `src/` beside
this directory, never from an installed copy; without those sources the run
exits with status 2 and prints no result.  The last line of standard output
is the result object: {"correct", "attempted", "failed", "metrics"}; the
line before it holds the run's details (environment, determinism record,
ops and notes).  See bench.py for what is measured.
"""

import os
import sys
from pathlib import Path

# Pinned before numpy is imported: one process, one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "DISTLAB_THREADS",
)


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "distlab" / "__init__.py").is_file():
        print(f"perfbench: no distlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import distlab

    if Path(distlab.__file__).resolve().parent != src / "distlab":
        print(f"perfbench: imported distlab from {distlab.__file__}, not {src}", file=sys.stderr)
        return 2
    import bench

    return bench.main(sys.argv[1:], THREAD_VARS)


if __name__ == "__main__":
    sys.exit(main())
