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
    report_to_json,
)
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
    assert abs(config.effective_s() - 2.0 / 3.0) < 1e-15


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
    with pytest.raises(ConfigError, match="either s or k"):
        parse_config(path)


def test_config_type_checks(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1.5})
    with pytest.raises(ConfigError, match="must be an integer"):
        parse_config(path)
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1,
                                   "tolerances": {"nabla_j": -1.0}})
    with pytest.raises(ConfigError, match="must be positive"):
        parse_config(path)


def test_config_rejects_unknown_tolerance_names(tmp_path):
    path = write_config(tmp_path, {"mode": "warped", "rng_seed": 1, "k": 1,
                                   "tolerances": {"nabla_jj": 1e-3, "nabla_j": 1e-6,
                                                  "bianchi": 1e-9}})
    with pytest.raises(ConfigError, match=r"unknown tolerance names: \['bianchi', 'nabla_jj'\]"):
        parse_config(path)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("margin", [0.0005, 0.5])
def test_config_keeps_samples_inside_the_chart(margin):
    """A sample margin below the chart's end margin would sample points the
    analysis rejects; it is a configuration error, not a run-time one."""
    with pytest.raises(ConfigError, match="sample_margin"):
        small_config(sample_margin=margin)
    small_config(sample_margin=0.001)


def test_config_roundtrip(tmp_path):
    config = small_config()
    path = write_config(tmp_path, config.to_dict())
    again = parse_config(path)
    assert again == config


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
    text = report_to_json(warped_report)
    data = json.loads(text)
    assert data["all_pass"] is True
    assert data["environment"]["seed"] == 42
    names = [c["name"] for c in data["checks"]]
    assert names == sorted(names)
    emit_report(warped_report, tmp_path / "report.json")
    again = json.loads((tmp_path / "report.json").read_text())
    assert [c["name"] for c in again["checks"]] == names


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


def test_cli_summary_table(tmp_path):
    assert main(["sample", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[0] == "t,r,f,a,b,c,lambda,mu,kappa"
    assert len(rows) == 101
    assert all(len(row.split(",")) == 9 for row in rows[1:])


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
    ("structure_identity_residuals", "p_vanishes", "identity_p"),
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
    report = run_suite(small_config())
    rec = next(c for c in report.checks if c.name == check)
    assert np.isnan(rec.max_residual)
    assert not rec.passed
    assert not report.all_pass
