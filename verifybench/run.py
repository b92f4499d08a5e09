"""Benchmark of `qchgeom verify`: time to verdict and known-answer share.

Run from the repository root:

    python3 verifybench/run.py --workload points-d6 --seed 1 --seconds 36 --trace 0

Each run starts one single-process worker (worker.py) that imports qchgeom
from `src/` and runs the workload's jobs one after another through
`qchgeom.cli.main(["verify", ...])`: a closed loop with one client, i.e. one
user waiting for each verdict.  Every verdict is checked against its known
answer (oracle.py).  With `--trace 0` the run reports the end-to-end metrics of
BENCHMARK.json; with `--trace 1` it also reruns the same passes under the
outside-in tracer (tracer.py) and reports the per-layer metrics.  The last
stdout line is one JSON object: correct, attempted, failed, metrics.

Time to verdict is reported at a reference CPU speed.  On a shared 2-vCPU VM
the CPU speed swung by up to 2x within seconds, and raw wall-clock medians of
identical 36 s runs spread by 25-33% over ten seeds.  A sampler process
(sampler.py), pinned to the worker's CPU, times a fixed kernel while the jobs
run; each job's wall time is rescaled by it (calibrated_s).  See README.md for
the spreads this gives.  The uncalibrated wall-clock median and the median
kernel time are printed too.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads
from tracer import ROOT_SPAN, SUITE_FAMILIES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 5          # worker launches timed per run, the main worker included
RUN_LIMIT_S = 170.0        # a run must end within 180 s
# sampler.speed_kernel's CPU time at the reference CPU speed; verify_s is
# reported at that speed (see calibrated_s)
KERNEL_REF_S = 250e-6
# one BLAS/OpenMP thread: the worker is one closed-loop client on a 2-CPU host
# and its matrices are at most 16 x 16, so threads only add contention noise
WORKER_THREADS = "1"


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = WORKER_THREADS
    return env


def launch(script: str, arg: str, **kwargs) -> tuple[subprocess.Popen, float]:
    """Start a worker or the sampler and wait until it is ready; (process,
    seconds to ready)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / script), arg], cwd=ROOT,
                            env=worker_env(), stdout=subprocess.PIPE, text=True, **kwargs)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{script} did not start (exit {proc.returncode})")
    return proc, ready


def finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a started process; its stdout.  Killed if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{proc.args[1]} overran the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{proc.args[1]} exited with {proc.returncode}")
    return out


def run_worker(plan: dict, deadline: float) -> tuple[dict, list[float], list]:
    """(worker result, setup seconds, speed samples)."""
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = launch("worker.py", "setup")
        finish(proc, deadline)
        setups.append(ready)
    sampler, _ = launch("sampler.py", str(plan["cpu"]), stdin=subprocess.PIPE)
    try:
        proc, ready = launch("worker.py", json.dumps(plan))
        setups.append(ready)
        out = finish(proc, deadline)
    finally:
        # communicate() closes the sampler's stdin, which ends its loop
        samples = json.loads(finish(sampler, deadline + 5.0) or "[]")
    return json.loads(out.strip().splitlines()[-1]), setups, samples


def attach_speed(passes: list[dict], samples: list) -> None:
    """Sets each job's `kernel_s`: the mean kernel CPU time sampled while it
    ran, or the nearest sample if none fell inside it."""
    starts = [start for start, _ in samples]
    for job in (j for p in passes for j in p["jobs"]):
        lo = bisect.bisect_left(starts, job["start"])
        hi = bisect.bisect_right(starts, job["end"])
        window = samples[lo:hi] or [samples[min(lo, len(samples) - 1)]]
        job["kernel_s"] = statistics.fmean(cpu for _, cpu in window)


def calibrated_s(passes: list[dict]) -> float:
    """Median over passes of the pass's summed job wall seconds, each job's
    rescaled to the reference CPU speed by the kernel times sampled while it
    ran (see attach_speed)."""
    return statistics.median(
        sum(j["seconds"] * KERNEL_REF_S / j["kernel_s"] for j in p["jobs"]) for p in passes)


def end_to_end(result: dict, setups: list[float]) -> dict:
    plain = [p for p in result["passes"] if not p["traced"]]
    jobs = [j for p in plain for j in p["jobs"]]
    return {
        "verify_s": calibrated_s(plain),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        "verdict_ok_share": sum(not j["misses"] for j in jobs) / len(jobs),
    }


def per_layer(result: dict) -> dict:
    """Per-pass layer metrics from the traced passes' spans and counts."""
    trace = result["trace"]
    traced = [p for p in result["passes"] if p["traced"]]
    plain = {p["index"]: p for p in result["passes"] if not p["traced"]}
    n = len(traced)
    self_s, total_s = trace["self_s"], trace["total_s"]
    calls, counts = defaultdict(int, trace["calls"]), defaultdict(int, trace["counts"])

    m: dict[str, float] = defaultdict(float)
    for span, seconds in self_s.items():
        if span == ROOT_SPAN:
            continue  # the root's remainder is what no layer span covers
        layer = span.split(".")[0]
        key = f"{layer}.self_s" if layer in ("suite", "cli") else f"{span}.self_s"
        m[key] += seconds / n
    for span in [name for _, name in SUITE_FAMILIES] + ["cli.config", "cli.report"]:
        m[f"{span}.s"] = total_s.get(span, 0.0) / n

    m["jets.objects"] = counts["jets.objects"] / n
    m["geometry.metric_jets.calls"] = calls["geometry.metric_jets"] / n
    lookups = counts["geometry.base_lookups"]
    m["geometry.base_cache.hit_ratio"] = (
        1.0 - counts["geometry.base_evals"] / lookups if lookups else 0.0)
    m["curvature.point_analyses"] = counts["curvature.point_analyses"] / n
    sampled = counts["curvature.sampled_points"]
    m["curvature.analyses_per_sample"] = (
        counts["curvature.point_analyses"] / sampled if sampled else 0.0)
    m["qch.fit.calls"] = calls["qch.fit"] / n
    for name in ("flows.geodesic.nfev", "flows.jacobi.nfev", "flows.jacobi.steps",
                 "flows.errors"):
        m[name] = counts[name] / n
    nfev = counts["flows.jacobi.nfev"]
    m["flows.jacobi.ms_per_rhs"] = (
        1000.0 * total_s.get("flows.jacobi", 0.0) / nfev if nfev else 0.0)

    m["trace.overhead_ratio"] = calibrated_s(traced) / calibrated_s(
        [plain[p["index"]] for p in traced])
    m["trace.covered_share"] = 1.0 - self_s.get(ROOT_SPAN, 0.0) / n / (
        statistics.fmean(p["verify_s"] for p in traced))
    m["trace.absent_targets"] = len(trace["absent"])
    return m


def digests_agree(result: dict) -> bool:
    """Traced passes must write the same reports as the untraced ones."""
    plain = {(p["index"], j["job"]): j["digest"]
             for p in result["passes"] if not p["traced"] for j in p["jobs"]}
    return all(plain[(p["index"], j["job"])] == j["digest"]
               for p in result["passes"] if p["traced"] for j in p["jobs"])


def run(workload: str, seed: int, seconds: int, trace: bool, smoke: bool = False) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "qchgeom" / "__init__.py").is_file():
        raise BenchError(f"no qchgeom sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = BENCH_DIR / ".work"
    work.mkdir(exist_ok=True)
    plan = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "smoke": smoke, "work_dir": str(work / f"run-{os.getpid()}"),
            "spans_path": str(work / f"spans-{workload}-seed{seed}.jsonl"),
            "cpu": max(os.sched_getaffinity(0))}
    result, setups, samples = run_worker(plan, deadline)
    if not samples:
        raise BenchError("the speed sampler took no samples")
    attach_speed(result["passes"], samples)

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    measured = per_layer(result) if trace else end_to_end(result, setups)
    unknown = set(measured) - {d["name"] for d in declared}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    metrics = {d["name"]: {"value": float(measured.get(d["name"], 0.0)), "unit": d["unit"]}
               for d in declared}

    plain = [p for p in result["passes"] if not p["traced"]]
    print(f"{workload:<12} {'(uncalibrated wall-clock verify_s)':<40} "
          f"{statistics.median(p['verify_s'] for p in plain):>14.6g} s")
    print(f"{workload:<12} {'(speed kernel during jobs, median)':<40} "
          f"{statistics.median(j['kernel_s'] for p in plain for j in p['jobs']):>14.6g} s")
    jobs = [j for p in result["passes"] for j in p["jobs"]]
    failed = sum(bool(j["misses"]) for j in jobs)
    correct = all(not j["misses"] or j["known_defect"] for j in jobs)
    correct = correct and (not trace or digests_agree(result))
    for job in jobs:
        if job["misses"]:
            tag = "known defect" if job["known_defect"] else "MISS"
            print(f"# {tag}: {job['job']} {' '.join(job['misses'])}", file=sys.stderr)
    if trace and result["trace"]["absent"]:
        print("# absent trace targets: " + "; ".join(result["trace"]["absent"]),
              file=sys.stderr)
    return {"correct": correct, "attempted": len(jobs), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"{workloads.SMOKE_POINTS} points per job (self-test)")
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except (BenchError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for name, metric in out["metrics"].items():
        print(f"{args.workload:<12} {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
