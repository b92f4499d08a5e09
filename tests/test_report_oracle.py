"""Report oracle: the same check set and verdicts as the stored reference.

For five small runs (warped, product, negative-control, circle-bundle and a
perturbed warp) the check names, pass/fail, in-order and expected-fail flags,
sample counts, claims and tolerances must equal those stored in
``data/report_oracle.json``.  Residuals are not compared: a refactor may move
them in the last bits.

Regenerate the reference (only when a change is meant to alter the check set,
a claim, a tolerance or a verdict) with ``PYTHONPATH=src python tests/test_report_oracle.py``.
"""

import json
import sys
from pathlib import Path

import pytest

from qchgeom import suite
from qchgeom.cli import RunConfig
from qchgeom.suite import CHECKS, run_suite

ORACLE = Path(__file__).with_name("data") / "report_oracle.json"

RUNS = {
    "warped": {"mode": "warped"},
    "product": {"mode": "product"},
    "negative-control": {"mode": "negative-control"},
    "circle-bundle": {"mode": "circle-bundle"},
    "warped-perturbed": {"mode": "warped", "perturb_f": 1.05},
}
COMMON = {"n": 3, "k": 1, "sample_count": 10, "rng_seed": 20261018}
FIELDS = ("pass", "in_order", "expected_fail", "samples", "claim", "tolerance")


def summary(name: str) -> dict:
    """{check name: the compared fields} of one run."""
    config = RunConfig.from_dict(dict(COMMON, **RUNS[name]))
    checks = run_suite(config).to_dict()["checks"]
    return {c["name"]: {key: c[key] for key in FIELDS} for c in checks}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_matches_oracle(name):
    expected = json.loads(ORACLE.read_text())[name]
    actual = summary(name)
    assert sorted(actual) == sorted(expected), "check set changed"
    for check, fields in expected.items():
        assert actual[check] == fields, f"{name}/{check}"


def test_oracle_covers_the_check_table():
    """Every check in the table runs in some stored run, and every stored
    check is in the table."""
    names = set().union(*json.loads(ORACLE.read_text()).values())
    assert names == set(CHECKS)


def test_sample_counts_follow_the_computation(monkeypatch):
    """A check's ``samples`` is the number of residuals it was reduced over,
    never a declared count: with the fit scored on 50 of its 100 probes per
    point and the decay flow sampled 80 times, the report reads 50 per point
    and 80."""
    score, experiment = suite.qch_residual_samples, suite.jacobi_decay_experiment
    monkeypatch.setattr(suite, "qch_residual_samples",
                        lambda an, fit, draws: score(an, fit, draws[..., :50, :]))
    monkeypatch.setattr(suite, "jacobi_decay_experiment",
                        lambda *args, **kwargs: experiment(*args, **dict(kwargs, samples=80)))
    checks = run_suite(RunConfig.from_dict(dict(COMMON, mode="warped"))).checks
    samples = {c.name: c.samples for c in checks}
    assert samples["qch_fit_residual"] == 50 * COMMON["sample_count"]
    for check in ("decay_norm_tracks_warp", "decay_ratio_law", "decay_velocity_inner"):
        assert samples[check] == 80


if __name__ == "__main__":
    ORACLE.parent.mkdir(exist_ok=True)
    data = {name: summary(name) for name in sorted(RUNS)}
    ORACLE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {ORACLE}\n")
