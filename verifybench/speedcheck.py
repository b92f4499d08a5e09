"""Checks that the speed sampler reads the machine's speed, not the program's work.

    python3 verifybench/speedcheck.py [--rounds 6]

Pins itself and a sampler (sampler.py) to one CPU, as run.py does, and
interleaves, round after round: an idle second, 1.5 s of a pure-Python busy
loop, 1.5 s of GIL-free numpy einsums, and one smoke-size pass of each
workload's jobs, run as the worker runs them.  For each segment it takes the
mean kernel CPU time sampled during it.  It prints, per segment kind, the
median over rounds of that time over the busy loop's in the same round.  The
machine's speed drifts between segments, so single ratios scatter; the
medians show whether what the worker runs moves the kernel's time, and so
verify_s (run.calibrated_s).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))
os.environ.update({k: v for k, v in run.worker_env().items() if k.endswith("_NUM_THREADS")})

import numpy as np  # noqa: E402

import worker  # noqa: E402
import workloads  # noqa: E402

WORK = run.BENCH_DIR / ".work" / "speedcheck"
_A = np.random.default_rng(0).standard_normal((14, 14, 14, 14))
_B = np.random.default_rng(1).standard_normal((14, 14))


def busy_python(seconds: float) -> None:
    end, s = time.monotonic() + seconds, 0
    while time.monotonic() < end:
        for i in range(10000):
            s += i * i


def busy_numpy(seconds: float) -> None:
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        np.einsum("abcd,de,ef->abcf", _A, _B, _B)


def workload_pass(name: str, seed: int) -> None:
    for job, config in workloads.jobs(name, seed, 0, smoke=True):
        worker.run_job(job, config, WORK / f"{seed}-{name}-{job}", set())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args()
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    kinds = {"python": lambda r: busy_python(1.5)}
    kinds.update({w: (lambda r, w=w: workload_pass(w, r)) for w in workloads.WORKLOADS})
    kinds.update({"numpy": lambda r: busy_numpy(1.5), "idle": lambda r: time.sleep(1.0)})
    shutil.rmtree(WORK, ignore_errors=True)
    sampler, _ = run.launch("sampler.py", str(cpu), stdin=subprocess.PIPE)
    segments = []
    try:
        for r in range(args.rounds):
            for kind, segment in kinds.items():
                start = time.monotonic()
                segment(r)
                segments.append((r, kind, start, time.monotonic()))
    finally:
        samples = json.loads(run.finish(sampler, time.monotonic() + 10.0) or "[]")
        shutil.rmtree(WORK, ignore_errors=True)
    kernel: dict[tuple[int, str], float] = {}
    for r, kind, start, end in segments:
        job = {"start": start, "end": end}
        run.attach_speed([{"jobs": [job]}], samples)
        kernel[r, kind] = job["kernel_s"]
    print(f"{'segment':<12} {'mean kernel us':>14} {'median ratio':>13} {'min':>6} {'max':>6}")
    for kind in kinds:
        ratios = [kernel[r, kind] / kernel[r, "python"] for r in range(args.rounds)]
        mean_us = 1e6 * statistics.fmean(kernel[r, kind] for r in range(args.rounds))
        print(f"{kind:<12} {mean_us:>14.0f} {statistics.median(ratios):>13.3f} "
              f"{min(ratios):>6.3f} {max(ratios):>6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
