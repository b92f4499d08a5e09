"""Self-test of the benchmark.  Run from the repository root:

    python3 verifybench/selftest.py

* the oracle on synthetic reports: a match, a missing check, a wrong sample
  count, a new check (not a miss), a perturbed run whose nabla_j holds;
* the tracer on missing wrap targets: reported absent, the run goes on, and
  traced reports equal untraced ones;
* one config per mode, run twice with one seed: byte-identical report.json
  once the `generated_at` line is stripped;
* a reduced-size traced smoke run of every workload through run.py;
* run.py in a directory holding only BENCHMARK.json and verifybench/ exits
  non-zero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = BENCH_DIR / ".work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from qchgeom import cli  # noqa: E402
from tracer import Target, TARGETS, Tracer  # noqa: E402

# share of the traced time that must lie inside layer spans, i.e. outside the
# remainder of the root `cli.main` span (about 1% on points-d6 smoke runs)
MIN_COVERED_SHARE = 0.97

MODE_CONFIGS = (
    {"mode": "product", "n": 3, "k": 1},
    {"mode": "negative-control", "n": 3, "k": 1},
    {"mode": "circle-bundle", "n": 3, "k": 1},
    {"mode": "warped", "n": 3, "k": 1, "perturb_f": 1.05},
    {"mode": "warped", "n": 3, "k": 1},
)


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def synthetic_report(config: dict) -> dict:
    answer = oracle.known_answer(config)
    return {"checks": [
        {"name": name, "samples": count, "expected_fail": name in answer.expected_fail,
         "in_order": name not in answer.must_fail}
        for name, count in answer.samples.items()]}


def check_oracle() -> None:
    healthy = {"mode": "warped", "n": 3, "k": 1, "sample_count": 20}
    report = synthetic_report(healthy)
    expect(oracle.check(healthy, 0, report) == [], "healthy report must match")
    extra = dict(report, checks=report["checks"] + [
        {"name": "a_new_check", "samples": 1, "expected_fail": False, "in_order": False}])
    expect(oracle.check(healthy, 0, extra) == [], "a new check is not a miss")
    kinds = [m.kind for m in oracle.check(healthy, 0, dict(report, checks=report["checks"][1:]))]
    expect(kinds == ["missing"], f"dropped check must be missing, got {kinds}")
    wrong = json.loads(json.dumps(report))
    wrong["checks"][0]["samples"] += 1
    expect([m.kind for m in oracle.check(healthy, 0, wrong)] == ["samples"], "sample count")
    expect([m.kind for m in oracle.check(healthy, None, None)] == ["crash"], "crash")

    perturbed = dict(healthy, perturb_f=1.05)
    report = synthetic_report(perturbed)
    expect(oracle.check(perturbed, 1, report) == [], "perturbed report must match")
    for c in report["checks"]:
        c["in_order"] = True
    misses = {str(m) for m in oracle.check(perturbed, 0, report)}
    expect(misses == {"exit:0!=1", "must_fail:nabla_j", "must_fail:kahler_form_closed"},
           f"perturbed run with nabla J = 0 must miss, got {misses}")

    control = {"mode": "negative-control", "n": 3, "k": 1, "sample_count": 10}
    report = synthetic_report(control)
    expect(oracle.check(control, 0, report) == [], "negative control must match")
    for c in report["checks"]:
        c["expected_fail"] = False
    expect([m.check for m in oracle.check(control, 0, report)] == ["qch_fit_residual"],
           "qch_fit_residual is the control's expected failure")

    defect = [oracle.Miss("exit", detail="1!=0"),
              oracle.Miss("not_in_order", "bianchi_second_spot")]
    expect(oracle.explained_by(defect, {"bianchi_second_spot"}), "known defect")
    expect(not oracle.explained_by(defect + [oracle.Miss("missing", "nabla_j")],
                                   {"bianchi_second_spot"}), "defect plus another miss")
    expect(not oracle.explained_by(defect, set()), "unlisted defect")
    print("ok: oracle")


def run_verify(config: dict, out: Path) -> tuple[int, bytes]:
    out.mkdir(parents=True)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--config", str(path), "--out", str(out)])
    lines = (out / "report.json").read_bytes().splitlines(keepends=True)
    return code, b"".join(l for l in lines if not l.lstrip().startswith(b'"generated_at"'))


def check_determinism_and_tracer() -> None:
    plain = {}
    for i, config in enumerate(MODE_CONFIGS):
        config = dict(config, rng_seed=7, sample_count=workloads.SMOKE_POINTS)
        first = run_verify(config, WORK / f"det-{i}-a")
        second = run_verify(config, WORK / f"det-{i}-b")
        expect(first == second, f"{config} is not reproducible")
        plain[i] = first
    print("ok: same seed gives byte-identical report.json without generated_at")

    tracer = Tracer()
    missing = (Target("qchgeom.jets", "NoSuchJet.__init__", "jets.objects", kind="count"),
               Target("qchgeom.suite", "_no_such_checks", "suite.gone"),
               Target("qchgeom.no_such_module", "anything", "gone"))
    tracer.install(TARGETS + missing)
    expect(len(tracer.absent) == len(missing), f"absent targets: {tracer.absent}")
    for i, config in enumerate(MODE_CONFIGS):
        config = dict(config, rng_seed=7, sample_count=workloads.SMOKE_POINTS)
        expect(run_verify(config, WORK / f"det-{i}-traced") == plain[i],
               f"tracing changed the report of {config}")
    expect(tracer.calls["cli.main"] == len(MODE_CONFIGS), "one root span per job")
    print("ok: missing trace targets reported absent; traced reports unchanged")


def run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "verifybench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_smoke(workload: str) -> None:
    proc = run_bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", "1", "--smoke"], ROOT)
    expect(proc.returncode == 0, f"{workload} smoke run failed: {proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    m = {k: v["value"] for k, v in out["metrics"].items()}
    expect(out["correct"] and out["attempted"] >= 2, f"{workload}: {out}")
    flows = {k: v for k, v in m.items() if k.startswith("flows.")}
    if workload == "warped-desk":
        expect(m["flows.jacobi.self_s"] > 0 and m["flows.jacobi.nfev"] > 0
               and m["flows.geodesic.nfev"] > 0, f"flows idle on {workload}")
    else:
        expect(not any(flows.values()), f"flows busy on {workload}: {flows}")
    covered, ratio = m["trace.covered_share"], m["trace.overhead_ratio"]
    expect(covered >= MIN_COVERED_SHARE,
           f"{workload}: layer spans cover only {covered:.4f} of traced verify_s")
    expect(0.0 <= m["geometry.base_cache.hit_ratio"] <= 1.0, f"{workload}: hit ratio")
    expect(m["trace.absent_targets"] == 0, f"{workload}: absent trace targets")
    print(f"ok: smoke {workload} (covered share {covered:.4f}, overhead {ratio:.3f})")


def check_bare_copy() -> None:
    bare = WORK / "bare"
    shutil.copytree(BENCH_DIR, bare / "verifybench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench(["--workload", "points-d6", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], bare)
    expect(proc.returncode != 0, "a checkout without sources must fail")
    expect('"correct"' not in proc.stdout, "a failed run must print no result")
    print("ok: without sources the benchmark exits non-zero")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_oracle()
        check_bare_copy()
        check_determinism_and_tracer()
        for workload in workloads.WORKLOADS:
            check_smoke(workload)
    except AssertionError as exc:
        print(f"FAIL: {exc}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
