"""Checks that no other test names, each shown to fail under a perturbation
that breaks the property it certifies, and to pass without it, on the n = 3
warped desk at 10 points."""

import numpy as np
import pytest

from qchgeom.cli import RunConfig
from qchgeom.geometry import WarpedBundleMetric
from qchgeom.suite import run_suite


def _verdicts():
    """{check name: passed} of the n = 3 warped run at 10 points."""
    report = run_suite(RunConfig.from_dict(
        {"mode": "warped", "n": 3, "k": 1, "rng_seed": 42, "sample_count": 10}))
    return {c.name: c.passed for c in report.checks}


@pytest.fixture(scope="module")
def unperturbed():
    return _verdicts()


def test_theta_normalization_sees_a_t_psi_cross_term(unperturbed, monkeypatch):
    """g(H, xi) = g_{t psi} = 0: a metric with 1e-6 in that entry fails it."""
    metric_jets = WarpedBundleMetric.metric_jets

    def tilted(self, coords):
        g = metric_jets(self, coords)
        g.value[..., 0, 1] += 1e-6
        g.value[..., 1, 0] += 1e-6
        return g

    monkeypatch.setattr(WarpedBundleMetric, "metric_jets", tilted)
    assert unperturbed["theta_normalization"]
    assert not _verdicts()["theta_normalization"]


def test_frame_orthonormality_sees_a_scaled_row(unperturbed, monkeypatch):
    """A frame row scaled by 1 + 1e-6 is no longer g-unit."""
    frame_at = WarpedBundleMetric.frame_at

    def stretched(self, x, g_values):
        rows = frame_at(self, x, g_values)
        rows[..., -1, :] *= 1.0 + 1e-6
        return rows

    monkeypatch.setattr(WarpedBundleMetric, "frame_at", stretched)
    assert unperturbed["frame_orthonormality"]
    assert not _verdicts()["frame_orthonormality"]
