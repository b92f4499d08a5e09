"""Every workload's end-to-end metrics, by name and unit, in one command.

    python3 verifybench/all.py --seed 1 [--seconds 36]

Runs run.py once per workload, one after another; exits non-zero if any run
fails or reports an incorrect verdict set.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    args = parser.parse_args()
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=BENCH_DIR.parent, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(f"{workload:<12} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        status |= not result["correct"]
    return status


if __name__ == "__main__":
    sys.exit(main())
