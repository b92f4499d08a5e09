"""Verdicts across the admissible parameter space, not only at the desk.

The five configurations that failed while the gradient laws and the second
Bianchi check took finite differences, each from the step alone, must exit
0 with every check in order: warped and circle-bundle at c0 = 0.01
(``bianchi_second_spot``), n = 5, c0 = 1000, k = 2, x = 0.5, y = 3 at seed 7
(``identity_gradient_a`` and ``_b``), and the ends of the profile range
x = 0.1, y = 10 and x = 1, y = 1.001 (``identity_gradient_b``, and
``identity_log_kappa_gradient`` at the latter).

A bounded hypothesis sweep covers n in {3, 4, 5}, c0 in [0.01, 1000],
x in [0.1, 5], y/x in [1.001, 100] and k in 1..5, at 10 sample points, in
the three modes that take every n.  Two faults older than the step-free
derivatives still fail checks in parts of those ranges (CHANGES.md, FOUND).
The sweep pins them: no other check may fail, and these only where the
quantity behind their fault is measured to be large.

* Chart scale: the base block r^2 h and the fiber tilt s sigma of the chart
  grow like 1/c0 and with r, and checks taken in chart components, at an
  absolute or chart-relative tolerance, fail at the rounding of an
  ill-conditioned chart.  In 1,200 random configurations every such failure
  had cond(g) >= 3e5 at some sample point; they are allowed from 1e5.
* A near-degenerate profile, y/x close to 1 with a large pitch: the monomial
  coefficients of P grow like s / (x y (y - x)), ``profile_constraints`` is
  absolute (1e-12), and the decay ratio law misses by 1.6e-6 at x = 0.1,
  y = 0.1001, k = 5.  Every failure had a rounding scale, eps times the sum
  of the terms of P(y), of at least 2e-12; they are allowed from 2e-13.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchgeom import FubiniStudy
from qchgeom.cli import RunConfig, main
from qchgeom.curvature import PointAnalysis
from qchgeom.geometry import CircleBundleMetric
from qchgeom.profile import build_polynomial
from qchgeom.suite import build_warped_model, run_suite, sample_interior_points

CHART_SCALE = {"bianchi_second_spot", "curvature_antisymmetry", "curvature_kahler_type",
               "curvature_pair_symmetry", "hermitian_metric", "kahler_form_closed",
               "ricci_e_block", "ricci_j_invariance", "ricci_symmetry", "submersion_twist"}
DEGENERATE_PROFILE = {"profile_constraints", "decay_ratio_law"}

FORMERLY_FAILING = [
    {"mode": "warped", "n": 3, "k": 1, "c0": 0.01, "rng_seed": 42},
    {"mode": "circle-bundle", "n": 3, "k": 1, "c0": 0.01, "rng_seed": 42},
    {"mode": "warped", "n": 5, "k": 2, "c0": 1000.0, "x": 0.5, "y": 3.0, "rng_seed": 7},
    {"mode": "warped", "n": 3, "k": 1, "x": 0.1, "y": 10.0, "rng_seed": 42},
    {"mode": "warped", "n": 3, "k": 1, "x": 1.0, "y": 1.001, "rng_seed": 42},
]


# the gates below which no check may fail (see the module docstring)
CHART_CONDITION = 1e5
PROFILE_ROUNDING = 2e-13


def chart_condition(config: RunConfig) -> float:
    """The largest condition number of g at the suite's sample points."""
    if config.mode == "circle-bundle":
        model = CircleBundleMetric(config.alpha, config.beta, config.effective_s(),
                                   FubiniStudy(config.n - 1, config.c0))
    else:
        model = build_warped_model(config)[1]
    points = sample_interior_points(model, np.random.default_rng(config.rng_seed),
                                    config.sample_count, config.sample_margin, config.z_radius)
    return float(np.linalg.cond(PointAnalysis(model, points).g).max())


def profile_rounding(config: RunConfig) -> float:
    """eps times the sum of the magnitudes of the monomial terms of P(y)."""
    poly = build_polynomial(config.x, config.y, config.effective_s())
    return np.finfo(float).eps * sum(abs(c) * config.y ** i
                                     for i, c in enumerate(poly.coefficients))


@pytest.mark.parametrize("config", FORMERLY_FAILING,
                         ids=["warped-c0-0.01", "bundle-c0-0.01", "n5-c0-1000",
                              "x0.1-y10", "x1-y1.001"])
def test_formerly_failing_configs_exit_zero(tmp_path, config):
    """At seed 42 and 50 points the differenced checks missed by
    bianchi_second_spot 3.8e-4 (warped c0 = 0.01) and 9.9e-5 (bundle
    c0 = 0.01), identity_gradient_a/_b 5.7e-5/1.1e-4 (n = 5, c0 = 1000, seed
    7), identity_gradient_b 1.5e-5 at x = 0.1, y = 10 and 7.7e-5 at
    y = 1.001, where the complex step gives 4.1e-9, 2.3e-10, 2.7e-12/8.2e-12,
    8.8e-13 and 6.6e-11.  The Jacobi coefficient tables certify within their
    panel cap at the ends of the profile range (no exit 3).  decay_ratio_law
    failed at both ends once: at x = 0.1, y = 10 its 6.0e-6 was DOP853's
    error (1.2e-7 at rtol 3e-14, 1.2e-8 on the Chebyshev panels), at x = 1,
    y = 1.001 its 1.7e-5 came from r'' = P'(r)/2 in the monomial form
    (6.5e-8 in the factored form)."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, sample_count=10)))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    checks = json.loads((tmp_path / "report.json").read_text())["checks"]
    assert all(c["in_order"] for c in checks)


@settings(max_examples=10, deadline=None)
@given(mode=st.sampled_from(["warped", "product", "circle-bundle"]),
       n=st.sampled_from([3, 4, 5]),
       c0=st.floats(0.01, 1000.0),
       x=st.floats(0.1, 5.0),
       ratio=st.floats(1.001, 100.0),
       k=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16))
def test_sweep_fails_only_where_a_known_fault_is_in_play(mode, n, c0, x, ratio, k, seed):
    config = RunConfig.from_dict({"mode": mode, "n": n, "c0": c0, "x": x, "y": x * ratio,
                                  "k": k, "sample_count": 10, "rng_seed": seed})
    failing = {c.name for c in run_suite(config).checks if not c.in_order}
    allowed = ((CHART_SCALE if chart_condition(config) >= CHART_CONDITION else set())
               | (DEGENERATE_PROFILE if profile_rounding(config) >= PROFILE_ROUNDING else set()))
    assert failing <= allowed, f"{config.to_dict()}: {sorted(failing)}"
