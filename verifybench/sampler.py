"""Machine-speed sampler: times a fixed kernel every 30 ms, in its own process.

Usage: sampler.py <cpu>   (started by run.py; pins itself to <cpu>, prints
`ready`, samples until its stdin closes, then prints one JSON list of
[monotonic start, CPU seconds] pairs)

On a shared host the CPU speed can swing by 2x within seconds (measured on a
2-vCPU VM), so wall times alone do not repeat.  run.py pins this process to
the CPU the worker runs on and rescales each job's wall time by the kernel
times sampled while the job ran.  The sampler never imports qchgeom and has
its own interpreter, so no GIL is shared: whether the worker runs Python or
GIL-free numpy/LAPACK code cannot stretch the kernel's time.  Each sample
times the kernel's second run of two, so the caches the worker's time slice
left cold do not count, and takes its CPU time, so the worker's time slices
do not count either.  What remains is the CPU's speed, which what the worker
ran just before can still move somewhat (README.md and speedcheck.py give
the measured size).  Sampling takes about 2% of the CPU from the worker.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time

import numpy as np

INTERVAL_S = 0.03
_K = np.random.default_rng(0).standard_normal(1 + 10 + 10 * 10 + 10 ** 3)


def speed_kernel() -> None:
    """A fixed ~0.25 ms kernel shaped like the program's per-point work: Python
    arithmetic on value/gradient/Hessian triples and small einsums at d = 10."""
    g, h, t3, v = _K[1:11], _K[11:111].reshape(10, 10), _K[111:].reshape(10, 10, 10), _K[0]
    for _ in range(12):
        g2 = v * g + 0.5 * g
        h2 = v * h + np.outer(g, g2) + np.outer(g2, g)
        v = float(v * 0.999 + 0.001)
        h = 0.05 * (h2 + np.einsum("ijk,k->ij", t3, g2))
        g = 0.5 * g2


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    speed_kernel()  # warm numpy's code paths before the first sample
    print("ready", flush=True)
    samples = []
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        speed_kernel()  # warms the caches the worker's time slice cooled
        start, cpu = time.monotonic(), time.thread_time()
        speed_kernel()
        samples.append([start, time.thread_time() - cpu])
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
