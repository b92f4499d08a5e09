"""The complex step: analyses at complex points carry exact derivatives.

The gradient laws and the second Bianchi check read derivatives from one
analysis at x + i h V (``curvature.complex_step``).  That is exact only while
every operation between the coordinates and the checked quantity is
analytic: a modulus, a conjugate, an ordered comparison or a cast to float
on the path gives a wrong imaginary part, with a real part that still looks
right.  These tests compare the imaginary parts with closed forms and with
the jets, and the real parts with the real analysis.
"""

import numpy as np
import pytest

from qchgeom import geometry
from qchgeom.cli import RunConfig
from qchgeom.curvature import PointAnalysis, complex_step, step_derivative
from qchgeom.qch import (
    coefficient_t_derivatives,
    fit_qch_coefficients,
    kappa,
    section_divergences,
)
from qchgeom.suite import build_model, sample_interior_points

from helpers import dgamma

# the desk configuration of the shared fixtures
C0 = 4.0


def _warped(n):
    return build_model(RunConfig.from_dict(
        {"mode": "warped", "n": n, "k": 1, "c0": C0, "rng_seed": 0}))


def _points(model, count, seed=3):
    return sample_interior_points(model, np.random.default_rng(seed), count)


def _gradient_law_errors(n, x):
    """|da/dt - closed form| and |d log kappa/dt - closed form| at x, the
    derivatives from ``coefficient_t_derivatives`` (one analysis at t + i h).
    With a = c0/r^2 - 4 r'^2/r^2 and kappa = 2 (n - 1) r'/r, through the
    exact r'' of ``evaluate``: da/dt = -2 c0 r'/r^3 - 8 r' r''/r^2 + 8 r'^3/r^3
    and d log kappa/dt = r''/r' - r'/r."""
    model = _warped(n)
    analysis = PointAnalysis(model, x)
    da, _, dkappa = coefficient_t_derivatives(analysis, model)
    divergences = section_divergences(analysis, model)
    dlog_kappa = dkappa / kappa(divergences)
    r, rp, rpp, _ = model.profile.evaluate(x[..., 0])
    c0 = model.base.c0
    return (np.abs(da - (-2.0 * c0 * rp / r ** 3 - 8.0 * rp * rpp / r ** 2
                         + 8.0 * rp ** 3 / r ** 3)),
            np.abs(dlog_kappa - (rpp / rp - rp / r)))


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("count", [None, 6], ids=["point", "batch"])
def test_complex_step_gradients_match_closed_forms(n, count):
    """da/dt and d log kappa/dt within 1e-13 of their closed forms (measured:
    at most 2e-15), at one point and at a batch."""
    model = _warped(n)
    x = _points(model, count or 1)
    if count is None:
        x = x[0]
    da_err, dlog_err = _gradient_law_errors(n, x)
    assert np.max(da_err) < 1e-13
    assert np.max(dlog_err) < 1e-13


def test_conjugating_cholesky_fails_the_closed_forms(monkeypatch):
    """Teeth: ``np.linalg.cholesky`` factors a complex Gram matrix as C C^H,
    which conjugates the tangent of the frame; in ``_gram_schmidt`` it takes
    d log kappa/dt off its closed form by 0.04 to 0.4."""
    model = _warped(3)
    x = _points(model, 4)
    monkeypatch.setattr(geometry, "_cholesky", np.linalg.cholesky)
    _, dlog_err = _gradient_law_errors(3, x)
    assert np.max(dlog_err) > 1e-2


def test_cholesky_matches_lapack_on_real_input():
    """On a real batch the column loop is LAPACK's factor within rounding,
    and an indefinite Gram matrix raises as ``np.linalg.cholesky`` does."""
    m = np.random.default_rng(5).standard_normal((7, 6, 6))
    a = m @ np.swapaxes(m, -1, -2) + np.eye(6)
    assert np.abs(geometry._cholesky(a) - np.linalg.cholesky(a)).max() < 1e-13
    with pytest.raises(np.linalg.LinAlgError):
        geometry._cholesky(np.diag([1.0, -1.0]))


@pytest.mark.parametrize("n", [3, 5])
def test_real_part_equals_real_analysis(n):
    """The real part of an analysis at t + i h is the real analysis within
    16 ulps of each quantity's largest entry (measured: at most 4)."""
    model = _warped(n)
    x = _points(model, 4)
    real = PointAnalysis(model, x)
    stepped = PointAnalysis(model, complex_step(x, np.eye(model.dim)[0]))
    fit_r, fit_c = fit_qch_coefficients(real), fit_qch_coefficients(stepped)
    pairs = [(real.riemann, stepped.riemann),
             (real.frame, stepped.frame),
             (kappa(section_divergences(real, model)),
              kappa(section_divergences(stepped, model)))]
    pairs += [(getattr(fit_r, k), getattr(fit_c, k)) for k in ("a", "b", "c")]
    for exact, complex_value in pairs:
        assert np.iscomplexobj(complex_value)
        ulp = np.spacing(np.abs(exact).max())
        assert np.abs(complex_value.real - exact).max() <= 16 * ulp


@pytest.mark.parametrize("name,n,c0", [("warped", 3, C0), ("warped", 7, C0),
                                       ("warped", 3, 0.01), ("circle-bundle", 3, 0.01)],
                         ids=["d6", "d14", "warped-c0-0.01", "bundle-c0-0.01"])
def test_real_parts_are_the_real_curvature(name, n, c0):
    """The second Bianchi check reads R and Gamma at x from the real parts of
    its analyses at x + i h V, with V moving z too.  They equal the real
    analysis within 1e-14 of each one's largest entry (measured: at most
    5e-15, on the c0 = 0.01 charts)."""
    model = build_model(RunConfig.from_dict(
        {"mode": name, "n": n, "k": 1, "c0": c0, "rng_seed": 0}))
    x = _points(model, 3)
    v = np.random.default_rng(8).standard_normal(x.shape)
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    real = PointAnalysis(model, x)
    stepped = PointAnalysis(model, complex_step(x, v))
    for exact, complex_value in ((real.riemann, stepped.riemann), (real.gamma, stepped.gamma)):
        assert np.iscomplexobj(complex_value)
        scale = np.abs(exact).max()
        assert np.abs(complex_value.real - exact).max() <= 1e-14 * scale


@pytest.mark.parametrize("name", ["warped", "product", "negative-control", "circle-bundle"])
def test_complex_step_matches_the_jets_along_any_direction(name):
    """Along a random direction V, the complex step of g and of Gamma equals
    the jets' dg(V) and dGamma(V) within 1e-12 of their largest entry.  The
    second Bianchi check reads dR(V) this way, with z complex too, so the
    base models' closed forms, the memo and every assembly are on the path."""
    model = build_model(RunConfig.from_dict({"mode": name, "n": 3, "k": 1, "rng_seed": 0}))
    x = _points(model, 3, seed=5)
    v = np.random.default_rng(6).standard_normal(x.shape)
    real = PointAnalysis(model, x)
    stepped = PointAnalysis(model, complex_step(x, v))
    for value, exact in ((stepped.g, real.metric.gradient),
                         (stepped.gamma, dgamma(real))):
        expected = np.einsum("n...k,nk->n...", exact, v)
        assert np.abs(step_derivative(value) - expected).max() <= 1e-12 * np.abs(expected).max()
