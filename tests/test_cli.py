import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qchgeom.cli import (
    ConfigError,
    RunConfig,
    emit_report,
    emit_summary_csv,
    main,
    parse_config,
)
from qchgeom import suite
from qchgeom.curvature import batch_slices
from qchgeom.suite import CheckResult, run_suite


def small_config(**overrides):
    data = {"mode": "warped", "rng_seed": 42, "k": 1, "sample_count": 10}
    data.update(overrides)
    return RunConfig.from_dict(data)


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_minimal_config_derives_pitch(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "n": 3, "c0": 4.0,
                                   "k": 1, "x": 1.0, "y": 2.0, "rng_seed": 42})
    config = parse_config(path)
    assert abs(config.s - 2.0 / 3.0) < 1e-15


def test_config_rejects_bad_ordering(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1,
                                   "x": 2.0, "y": 1.0})
    with pytest.raises(ConfigError, match="0 < x < y"):
        parse_config(path)


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1,
                                   "spin": 7})
    with pytest.raises(ConfigError, match="unknown configuration keys"):
        parse_config(path)


def test_config_requires_seed_and_mode(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "k": 1})
    with pytest.raises(ConfigError, match="rng_seed"):
        parse_config(path)


def test_config_requires_pitch_source(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1})
    with pytest.raises(ConfigError, match=r"missing required configuration keys: \['k'\]"):
        parse_config(path)


def test_config_type_checks(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1.5})
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(path)


@pytest.mark.parametrize("key,value", [
    ("s", 2.0 / 3.0), ("tolerances", {"nabla_j": 1e-6}), ("out_dir", "elsewhere"),
    ("z_radius", 1.5), ("sample_margin", 0.05),
], ids=["s", "tolerances", "out_dir", "z_radius", "sample_margin"])
def test_config_rejects_removed_keys(tmp_path, capsys, monkeypatch, key, value):
    """A run is its model, its sample count and its seed: the pitch comes
    from k alone, every tolerance from the check table, the output directory
    from --out, and the sampling radius and end margin are fixed.  A config
    naming any other key, even with a value a run would use, exits 2 and
    creates no directory."""
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1, key: value})
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: unknown configuration keys: {[key]}\n")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_config_roundtrip(tmp_path):
    config = small_config()
    path = write_config(tmp_path, config.to_dict())
    again = parse_config(path)
    assert again == config


@pytest.mark.parametrize("overrides", [
    {"c0": float("nan")},
    {"mode": "circle-bundle", "alpha": float("inf")},
    {"perturb_f": float("nan")},
    {"perturb_f": 0},
    {"rng_seed": -1},
    {"k": 0},
    {"k": -1},
    {"mode": "product", "k": 0},
    {"mode": "negative-control", "k": 0},
    {"mode": "product", "perturb_f": 1.05},
    {"mode": "circle-bundle", "perturb_f": 1.05},
], ids=["c0-nan", "alpha-infinity", "perturb-f-nan", "perturb-f-zero", "seed-negative",
        "k-zero", "s-negative", "product-k-zero", "negative-control-k-zero",
        "product-perturb-f", "circle-bundle-perturb-f"])
def test_config_rejects_values_outside_the_schema(tmp_path, capsys, monkeypatch, overrides):
    """Each key's type comes from its field's annotation: no booleans as
    numbers, only finite numbers, f must not be scaled to zero, nor scaled at
    all where that breaks nothing (product and circle-bundle mode), the seed
    is non-negative, and outside circle-bundle mode the pitch is positive.  Each
    is a configuration error (exit 2) that creates no output directory."""
    monkeypatch.chdir(tmp_path)
    data = {"mode": "warped", "rng_seed": 1, "k": 1, "sample_count": 10}
    path = write_config(tmp_path, {**data, **overrides})
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_negative_seed_flag_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--seed", "-1", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("configuration error: rng_seed")
    assert os.listdir(tmp_path) == []


def test_circle_bundle_accepts_the_trivial_bundle():
    """s = 0 in circle-bundle mode is the product of the circle and the base."""
    assert small_config(mode="circle-bundle", k=0).s == 0.0


def test_negative_control_needs_n3(tmp_path):
    path = write_config(tmp_path, {"mode": "negative-control", "rng_seed": 1,
                                   "k": 1, "n": 4})
    with pytest.raises(ConfigError, match="n = 3"):
        parse_config(path)


@pytest.fixture(scope="module")
def warped_report():
    return run_suite(small_config())


def test_suite_all_pass_and_complete(warped_report):
    assert warped_report.all_pass
    names = [c.name for c in warped_report.checks]
    assert len(names) == len(set(names))  # every enabled check appears once
    for want in ("nabla_j", "qch_fit_residual", "kappa_closed_form",
                 "profile_first_integral", "decay_ratio_law",
                 "submersion_mixed_curvature"):
        assert want in names
    for c in warped_report.checks:
        assert c.passed == (c.max_residual < c.tolerance)


def test_report_serialization_stable(warped_report, tmp_path):
    data = emit_report(warped_report, tmp_path / "report.json")
    assert data["all_pass"] is True
    assert data["environment"]["seed"] == 42
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    assert json.loads((tmp_path / "report.json").read_text()) == data


def test_suite_determinism():
    a = run_suite(small_config())
    b = run_suite(small_config())
    for c1, c2 in zip(sorted(a.checks, key=lambda c: c.name),
                      sorted(b.checks, key=lambda c: c.name)):
        assert c1.name == c2.name
        assert c1.max_residual == c2.max_residual  # bit-identical
    c = run_suite(small_config(rng_seed=43))
    diffs = [abs(c1.max_residual - c2.max_residual)
             for c1, c2 in zip(sorted(a.checks, key=lambda k: k.name),
                               sorted(c.checks, key=lambda k: k.name))]
    assert max(diffs) > 0.0  # a different seed samples different points


def test_negative_control_expected_fail():
    report = run_suite(small_config(mode="negative-control"))
    assert report.all_pass
    rec = next(c for c in report.checks if c.name == "qch_fit_residual")
    assert rec.expected_fail
    assert not rec.passed
    assert rec.details["median_residual"] > 1e-2
    assert rec.in_order


def test_negative_control_median_reads_the_scored_probes(monkeypatch):
    """The control scores its fit once per analysis slice and takes its median
    from those scores: at 150 points, three slices at n = 3, the suite scores
    three times, and the run's median is the median over points of each
    point's median scored deviation."""
    score = suite.qch_residual_samples
    scored = []

    def recording(an, fit, draws):
        scored.append(score(an, fit, draws))
        return scored[-1]

    monkeypatch.setattr(suite, "qch_residual_samples", recording)
    report = run_suite(small_config(mode="negative-control", sample_count=150))
    assert len(scored) == len(batch_slices(150, 6 ** 4)) == 3
    rec = next(c for c in report.checks if c.name == "qch_fit_residual")
    per_point = np.concatenate([np.median(s, axis=-1) for s in scored])
    assert rec.details["median_residual"] == float(np.median(per_point))


def test_product_mode_suite():
    report = run_suite(small_config(mode="product"))
    assert report.all_pass
    names = [c.name for c in report.checks]
    assert "kappa_vanishes" in names


def test_perturbed_mode_fails_kahler_condition():
    report = run_suite(small_config(perturb_f=1.01))
    assert not report.all_pass
    rec = next(c for c in report.checks if c.name == "nabla_j")
    assert not rec.passed
    assert rec.max_residual > 1e-3


def test_expected_fail_semantics_unit():
    healthy = CheckResult("x", "c", 0.5, 1e-7, 1, expected_fail=True,
                          details={"discrimination_floor": 1e-2,
                                   "median_residual": 0.3})
    assert healthy.in_order
    too_clean = CheckResult("x", "c", 1e-9, 1e-7, 1, expected_fail=True,
                            details={"discrimination_floor": 1e-2,
                                     "median_residual": 1e-9})
    assert not too_clean.in_order


def test_cli_verify_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 7, "k": 1,
                                  "sample_count": 10})
    code = main(["verify", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ALL CHECKS IN ORDER" in out
    code = main(["report", str(tmp_path / "report.json"), "--out", str(tmp_path)])
    assert code == 0


def test_cli_exit_codes(tmp_path):
    bad = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1,
                                  "x": 3.0, "y": 1.0})
    assert main(["verify", "--config", str(bad), "--out", str(tmp_path)]) == 2
    pert = write_config(tmp_path, {"mode": "warped", "rng_seed": 7, "k": 1,
                                   "sample_count": 10, "perturb_f": 1.01})
    assert main(["verify", "--config", str(pert), "--out", str(tmp_path)]) == 1


def test_cli_numerical_error_exit(tmp_path, monkeypatch):
    import qchgeom.cli as cli_mod
    from qchgeom.profile import ProfileError

    def explode(config):
        raise ProfileError("synthetic integration blow-up")

    monkeypatch.setattr(cli_mod, "run_suite", explode)
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 7, "k": 1,
                                  "sample_count": 10})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3


def test_cli_out_of_memory_exit(tmp_path, monkeypatch, capsys):
    """Running out of memory is a numerical failure (exit 3), not a failed
    verification (exit 1)."""
    import qchgeom.cli as cli_mod

    def exhaust(config):
        raise MemoryError("synthetic allocation failure")

    monkeypatch.setattr(cli_mod, "run_suite", exhaust)
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 7, "k": 1,
                                  "sample_count": 10})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "out of memory: synthetic allocation failure" in capsys.readouterr().err


def test_cli_flow_cap_exit(tmp_path, monkeypatch, capsys):
    """A flow past its Picard iteration cap ends the run with exit 3, no
    report and a message naming the solve and tau."""
    import qchgeom.flows as flows

    # the axial geodesic needs one iteration per panel; none is allowed
    monkeypatch.setattr(flows, "MAX_PICARD", 0)
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 7, "k": 1,
                                  "sample_count": 10})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "geodesic Picard iteration exceeds 0 iterations on the panel at tau = 0" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["verify", "solve-profile"])
def test_cli_degenerate_profile_exit(tmp_path, capsys, command):
    """Endpoint values so small that x y (y - x) underflows leave no cubic to
    build: a numerical error (exit 3), not a failed verification (exit 1)."""
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 42, "k": 1,
                                  "x": 1e-200, "y": 2e-200})
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "numerical error: the cubic's leading coefficient" in capsys.readouterr().err


def test_cli_runs_without_scipy(tmp_path):
    """Neither importing the CLI nor a full warped run with its decay flow
    loads any scipy module: the runtime needs numpy only."""
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 7, "k": 1,
                                  "sample_count": 10})
    code = (
        "import sys, json\n"
        "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import qchgeom.cli as cli\n"
        "after_import = scipy()\n"
        f"code = cli.main(['verify', '--config', {str(cfg)!r}, '--out', {str(tmp_path)!r}])\n"
        "print(json.dumps([code, after_import, scipy()]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(out.stdout.splitlines()[-1]) == [0, [], []]
    assert json.loads((tmp_path / "report.json").read_text())["mode"] == "warped"


@pytest.mark.parametrize("all_pass,code,verdict", [(True, 0, "ALL CHECKS IN ORDER"),
                                                   (False, 1, "FAILURES PRESENT")],
                         ids=["all-pass", "failures"])
def test_python_m_qchgeom_reports_with_the_exit_code(tmp_path, all_pass, code, verdict):
    """``python -m qchgeom`` runs the CLI and exits with its code: ``report``
    of a hand-written report exits 0 when all its checks are in order, 1 when
    not."""
    report = {"mode": "warped", "environment": {"seed": 42}, "all_pass": all_pass,
              "checks": [{"name": "nabla_j", "claim": "nabla J = 0", "pass": all_pass,
                          "in_order": all_pass, "expected_fail": False,
                          "max_residual": 1e-9 if all_pass else 1e-3, "tolerance": 1e-7}]}
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-m", "qchgeom", "report", str(path)],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == code, out.stderr
    assert out.stdout.splitlines()[-1] == verdict


@pytest.mark.parametrize("x,y", [(0.1, 10.0), (1.0, 1.001), (1.0, 1.1)])
def test_verify_reaches_a_verdict_across_the_profile_range(tmp_path, x, y):
    """Far from the desk (x, y) = (1, 2) a run still ends in a verdict with a
    report (the Jacobi flows of the first two once exceeded their budget);
    at y = 1.1 the decay and log-kappa laws hold."""
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 42, "k": 1, "n": 3,
                                  "sample_count": 50, "x": x, "y": y})
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) in (0, 1)
    checks = {c["name"]: c for c in
              json.loads((tmp_path / "report.json").read_text())["checks"]}
    if y == 1.1:
        assert checks["decay_ratio_law"]["pass"]
        assert checks["identity_log_kappa_gradient"]["pass"]


def test_cli_report_missing_file(tmp_path, capsys):
    """A missing report is a usage error (exit 2), and ``report`` makes no
    output directory."""
    out = tmp_path / "never"
    assert main(["report", "--out", str(out)]) == 2
    assert "cannot read report:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["report", "--points", "5"], ["solve-profile", "--points", "5"],
                                  ["report", "--config", "config.json"]],
                         ids=["report-points", "solve-profile-points", "report-config"])
def test_options_only_where_they_are_read(tmp_path, capsys, monkeypatch, argv):
    """``report`` reads no configuration and ``solve-profile`` samples no
    points: each is a usage error (exit 2) before any directory is made."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("text", ['{"mode": "warped", "checks": [', '{"mode": "warped"}', "[]"],
                         ids=["invalid-json", "no-checks", "not-an-object"])
def test_cli_report_malformed_file(tmp_path, capsys, text):
    """Invalid JSON, or JSON that is not a report, exits 2 and prints nothing
    of the report."""
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", str(path)]) == 2
    captured = capsys.readouterr()
    assert "cannot read report:" in captured.err
    assert captured.out == ""


def test_cli_report_bytes_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 11, "k": 1,
                                  "sample_count": 10})
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0

    def strip_timestamp(path):
        return [line for line in path.read_text().splitlines()
                if "generated_at" not in line]

    assert (strip_timestamp(tmp_path / "a" / "report.json")
            == strip_timestamp(tmp_path / "b" / "report.json"))


def test_cli_solve_profile(tmp_path, capsys):
    assert main(["solve-profile", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "profile.csv").read_text().splitlines()
    assert lines[0] == "t,r,rp,rpp,f,fp"
    # 17 significant digits in the export
    assert any(len(cell.split(".")[-1]) >= 15 for cell in lines[5].split(",")[:2])


def test_cli_solve_profile_far_from_the_origin(tmp_path):
    """At x = 1e6, y = 3e6 the half-period is 7.0e6 long and the profile
    solves (exit 0): the quadrature's stopping test is relative to L."""
    cfg = write_config(tmp_path, {"mode": "warped", "rng_seed": 42, "k": 1, "n": 3,
                                  "x": 1e6, "y": 3e6})
    assert main(["solve-profile", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "profile.csv").exists()


def test_cli_summary_table(tmp_path):
    assert main(["sample", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[0] == "t,r,f,a,b,c,lambda,mu,kappa"
    assert len(rows) == 101
    assert all(len(row.split(",")) == 9 for row in rows[1:])


def test_cli_sample_points_set_only_the_rows(tmp_path):
    """--points gives the table's rows; the verify sample count, which must
    be at least 10, does not constrain it."""
    assert main(["sample", "--points", "5", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "summary.csv").read_text().splitlines()) == 6
    assert main(["sample", "--points", "0", "--out", str(tmp_path / "none")]) == 2
    assert not (tmp_path / "none").exists()


def test_cli_sample_rejects_circle_bundle_mode(tmp_path, capsys):
    """The table runs along the warped chart's t axis: circle-bundle mode has
    none, so asking for it is a configuration error, not a warped table."""
    assert main(["sample", "--mode", "circle-bundle", "--out", str(tmp_path / "out")]) == 2
    assert "circle-bundle" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_summary_values_match_closed_forms(tmp_path):
    config = small_config()
    emit_summary_csv(config, tmp_path / "summary.csv", points=20)
    data = np.genfromtxt(tmp_path / "summary.csv", delimiter=",", names=True)
    # a = c0/r^2 - 4 r'^2/r^2 and kappa = 2(n-1) r'/r reconstructed from columns
    r = data["r"]
    a = data["a"]
    with np.errstate(invalid="ignore"):
        rp_from_kappa = data["kappa"] * r / 4.0
    assert np.abs(a - (4.0 / r ** 2 - 4.0 * rp_from_kappa ** 2 / r ** 2)).max() < 1e-9


@pytest.mark.parametrize("target,key,check", [
    ("max_frame_component_3tensor", None, "nabla_j"),
    ("structure_identity_residuals", "identity_p", "identity_p"),
    ("circle_bundle_residuals", "bundle_fiber_ricci", "bundle_fiber_ricci"),
])
def test_nan_residual_at_one_sample_fails_its_check(monkeypatch, target, key, check):
    """A NaN residual at the second sample must fail the check (max(0.0, nan)
    is 0.0, so a running Python max would pass it silently)."""
    import qchgeom.suite as suite_mod

    original = getattr(suite_mod, target)

    def poisoned(*args, **kwargs):
        out = original(*args, **kwargs)
        values = np.array(out[key] if key else out, dtype=float)
        values[1] = np.nan
        return dict(out, **{key: values}) if key else values

    monkeypatch.setattr(suite_mod, target, poisoned)
    bundle = target == "circle_bundle_residuals"
    report = run_suite(small_config(mode="circle-bundle" if bundle else "warped"))
    rec = next(c for c in report.checks if c.name == check)
    assert np.isnan(rec.max_residual)
    assert not rec.passed
    assert not report.all_pass
