"""One benchmark worker: imports qchgeom, then runs a workload's jobs in a closed loop.

Usage: worker.py '<plan json>' | setup   (started by run.py, which reads its
stdout; `setup` exits as soon as it is ready)

The worker prints `ready` once `qchgeom` and its numpy/scipy stack are
imported, then runs passes over the workload's jobs, one job after another,
each through `qchgeom.cli.main(["verify", ...])` in this process.  Every
verdict is checked against its known answer.  A traced plan first runs
untraced passes, then installs the tracer and reruns the same passes, so the
two sets time identical inputs.  The last stdout line is a JSON result.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import os
import statistics
import sys
import time
from pathlib import Path

from qchgeom import cli

import oracle
import workloads
from tracer import Tracer

# share of a traced run's time given to its untraced passes
UNTRACED_SHARE = 0.4


def report_digest(path: Path) -> str:
    """sha256 of report.json without its `generated_at` timestamp."""
    data = json.loads(path.read_text())
    data.pop("generated_at", None)
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def run_job(name: str, config: dict, work: Path, defect: set[str]) -> dict:
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    sink = io.StringIO()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            exit_code = cli.main(["verify", "--config", str(config_path), "--out", str(work)])
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # a crash is a miss, and the loop goes on
        exit_code = None
        print(f"{name}: {exc!r}", file=sys.stderr)
    end = time.monotonic()
    report_path = work / "report.json"
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    misses = oracle.check(config, exit_code, report)
    return {"job": name, "exit": exit_code, "start": start, "end": end, "seconds": end - start,
            "misses": [str(m) for m in misses],
            "known_defect": oracle.explained_by(misses, defect),
            "digest": report_digest(report_path) if report is not None else ""}


def run_pass(plan: dict, index: int, tracer: Tracer | None, root: Path) -> dict:
    workload = plan["workload"]
    results = []
    for name, config in workloads.jobs(workload, plan["seed"], index, plan["smoke"]):
        if tracer is not None:
            tracer.job = f"{name}#{index}"
        defect = workloads.KNOWN_DEFECTS.get((workload, name), set())
        work = root / f"p{index}-{'traced' if tracer else 'plain'}-{name}"
        results.append(run_job(name, config, work, defect))
    return {"index": index, "traced": tracer is not None,
            "verify_s": sum(r["seconds"] for r in results), "jobs": results}


def run_passes(plan, indices, budget: float, tracer, root) -> list[dict]:
    """Passes in order until the next one would overrun the budget (at least one)."""
    passes: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    for index in indices:
        t0 = time.perf_counter()
        passes.append(run_pass(plan, index, tracer, root))
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > budget:
            break
    return passes


def main() -> int:
    print("ready", flush=True)
    if sys.argv[1] == "setup":
        return 0
    plan = json.loads(sys.argv[1])
    root = Path(plan["work_dir"])
    seconds = float(plan["seconds"])
    # the CPU run.py pinned its speed sampler to
    os.sched_setaffinity(0, {plan["cpu"]})
    untraced_budget = seconds * UNTRACED_SHARE if plan["trace"] else seconds
    passes = run_passes(plan, range(sys.maxsize), untraced_budget, None, root)
    result: dict = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if plan["trace"]:
        tracer = Tracer()
        tracer.install()
        spent = sum(p["verify_s"] for p in passes)
        passes += run_passes(plan, [p["index"] for p in passes], seconds - spent,
                             tracer, root)
        result["trace"] = {"self_s": tracer.self_s, "total_s": tracer.total_s,
                           "calls": tracer.calls, "counts": tracer.counts,
                           "absent": tracer.absent, "spans": len(tracer.spans)}
        tracer.write_spans(plan["spans_path"])
    shutil.rmtree(root, ignore_errors=True)
    result["passes"] = passes
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
