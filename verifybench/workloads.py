"""The benchmark's workloads: lists of `qchgeom verify` jobs.

Each job is a run configuration without its `rng_seed`.  The seed of every
job is derived from the workload seed given to the benchmark, the job's name
and the pass index, so one benchmark seed always gives the same inputs while
successive passes of a run still sample fresh points.

Why these workloads (see README.md for the configurations left out):

* points-d6 -- flow-free jobs on 6-dimensional charts (5 for the bundle).
  Per-point cost of the Python jet objects dominates and `flows` does no
  work, so batching over sample points shows here.  The c0=0.01 bundle job
  carries a known defect (open ROADMAP item 5) and is kept on purpose.
* points-d14 -- the same layers at n=7 with few points.  Cost sits in the
  d^4-d^5 einsums of `curvature` and the O(d^2) jet entries of `geometry`;
  a change that helps many small points but costs few large ones shows here.
* warped-desk -- the ROADMAP headline run (warped n=5 at the desk
  configuration) with the Jacobi decay flow, which does most of the work and
  walks one fixed z-slice, so the base-slice memo of `geometry` hits here.
"""

from __future__ import annotations

import hashlib

WORKLOADS: dict[str, list[tuple[str, dict]]] = {
    "points-d6": [
        ("product", {"mode": "product", "n": 3, "k": 1, "sample_count": 150}),
        ("negative-control",
         {"mode": "negative-control", "n": 3, "k": 1, "sample_count": 150}),
        ("circle-bundle", {"mode": "circle-bundle", "n": 3, "k": 1, "sample_count": 200}),
        ("circle-bundle-c0-0.01",
         {"mode": "circle-bundle", "n": 3, "k": 1, "c0": 0.01, "sample_count": 50}),
        ("warped-perturbed",
         {"mode": "warped", "n": 3, "k": 1, "perturb_f": 1.05, "sample_count": 100}),
    ],
    "points-d14": [
        ("product", {"mode": "product", "n": 7, "k": 1, "sample_count": 10}),
        ("circle-bundle", {"mode": "circle-bundle", "n": 7, "k": 1, "sample_count": 20}),
        ("warped-perturbed",
         {"mode": "warped", "n": 7, "k": 1, "perturb_f": 1.05, "sample_count": 10}),
    ],
    # 30 rather than the ROADMAP's 50 points, so that one pass (20-25 s of wall
    # time) stays inside a 36 s run even in a slow spell
    "warped-desk": [
        ("warped-desk", {"mode": "warped", "n": 5, "c0": 4.0, "k": 1, "x": 1.0,
                         "y": 2.0, "sample_count": 30}),
    ],
}

# checks that fail on a job whose known answer says they hold, and the open
# item that owns the fix; a miss made only of these keeps the run `correct`
# while still counting against verdict_ok_share
KNOWN_DEFECTS: dict[tuple[str, str], set[str]] = {
    # step-size-biased second Bianchi spot check at small c0 (ROADMAP item 5)
    ("points-d6", "circle-bundle-c0-0.01"): {"bianchi_second_spot"},
}

SMOKE_POINTS = 10  # the smallest sample_count the configuration accepts


def job_seed(seed: int, workload: str, job: str, pass_index: int) -> int:
    digest = hashlib.sha256(f"{seed}/{workload}/{job}/{pass_index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def jobs(workload: str, seed: int, pass_index: int, smoke: bool = False) -> list[tuple[str, dict]]:
    """(job name, full run configuration) for one pass of a workload."""
    out = []
    for name, config in WORKLOADS[workload]:
        config = dict(config, rng_seed=job_seed(seed, workload, name, pass_index))
        if smoke:
            config["sample_count"] = SMOKE_POINTS
        out.append((name, config))
    return out
