import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipk

from qchgeom.profile import (
    ProfileError,
    boundary_report,
    build_polynomial,
    period_length,
    profile_from_callables,
)

# frozen regression value of the period integral for (x, y, s) = (1, 2, 2):
# the integrand has simple inverse-square-root endpoint zeros; the value was
# computed by adaptive quadrature (estimated error 3e-14) and cross-checked
# against the complete elliptic integral reduction below
L_REFERENCE_1_2_2 = 2.6220575542921201


def closed_form_length(x, y, s):
    # substituting t = x + (y-x) sin^2 u reduces the period integral to a
    # complete elliptic integral: L = 2 K(m) / sqrt(c3 y), m = (y-x)/y
    c3 = s / (x * y * (y - x))
    return 2.0 * ellipk((y - x) / y) / np.sqrt(c3 * y)


def test_factorization_oracle():
    """The coefficient closed form must solve the four defining constraints;
    oracle = direct linear solve for the cubic coefficients."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(0.3, 2.0)
        y = x + rng.uniform(0.2, 2.0)
        s = rng.uniform(0.2, 4.0)
        rows = np.array([
            [1.0, x, x ** 2, x ** 3],
            [1.0, y, y ** 2, y ** 3],
            [0.0, x, 2 * x ** 2, 3 * x ** 3],
            [0.0, y, 2 * y ** 2, 3 * y ** 3],
        ])
        target = np.array([0.0, 0.0, s, -s])
        oracle = np.linalg.solve(rows, target)
        poly = build_polynomial(x, y, s)
        assert np.allclose(poly.coefficients, oracle, rtol=1e-9, atol=1e-11)


def test_example_cubic_coefficients():
    # (x, y, s) = (1, 2, 2) gives exactly (t-1)(t-2)(t-3)
    poly = build_polynomial(1.0, 2.0, 2.0)
    assert np.allclose(poly.coefficients, [-6.0, 11.0, -6.0, 1.0], atol=1e-12)


def test_endpoint_slope_constraints():
    poly = build_polynomial(1.0, 2.0, 1.0)
    assert abs(1.0 * poly.deriv1(1.0) - 1.0) < 1e-13
    assert abs(2.0 * poly.deriv1(2.0) + 1.0) < 1e-13


def test_midpoint_positive():
    poly = build_polynomial(0.7, 1.9, 0.8)
    assert poly(0.5 * (0.7 + 1.9)) > 0.0


@pytest.mark.parametrize("x,y,s", [(2.0, 1.0, 1.0), (-1.0, 2.0, 1.0),
                                   (1.0, 2.0, 0.0), (1.0, 2.0, -2.0),
                                   (0.0, 1.0, 1.0), (1.0, 1.0, 1.0)])
def test_invalid_inputs_rejected(x, y, s):
    with pytest.raises(ValueError):
        build_polynomial(x, y, s)


def test_period_length_frozen_value():
    poly = build_polynomial(1.0, 2.0, 2.0)
    assert abs(period_length(poly) - L_REFERENCE_1_2_2) < 1e-9


def test_period_length_elliptic_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform(0.3, 2.0)
        y = x + rng.uniform(0.2, 2.0)
        s = rng.uniform(0.2, 4.0)
        poly = build_polynomial(x, y, s)
        assert abs(period_length(poly) - closed_form_length(x, y, s)) < 1e-11


@settings(max_examples=25, deadline=None)
@given(x=st.floats(0.4, 1.8), dy=st.floats(0.3, 1.5), s=st.floats(0.3, 3.0))
def test_period_scaling_law(x, dy, s):
    # scaling s -> 4s scales P by 4, hence halves the period
    base = period_length(build_polynomial(x, x + dy, s))
    quad = period_length(build_polynomial(x, x + dy, 4.0 * s))
    assert abs(quad - 0.5 * base) < 1e-9 * max(1.0, base)


@settings(max_examples=25, deadline=None)
@given(x=st.floats(0.4, 1.8), dy=st.floats(0.3, 1.5), s=st.floats(0.3, 3.0))
def test_period_lower_bound(x, dy, s):
    poly = build_polynomial(x, x + dy, s)
    samples = np.linspace(x, x + dy, 200)
    assert period_length(poly) > dy / np.sqrt(poly(samples).max())


def test_solution_initial_conditions(profile):
    r0, rp0 = profile.integrated_state(0.0)
    assert r0 == 1.0
    assert rp0 == 0.0


def test_first_integral_conservation(profile):
    assert profile.first_integral_residual() < 1e-8


def test_first_passage_matches_quadrature(profile):
    assert abs(profile.L - profile.quadrature_length) < 1e-6


def test_boundary_conditions(profile):
    rep = boundary_report(profile)
    assert abs(rep["fp_start_minus_one"]) < 1e-7
    assert abs(rep["fp_end_plus_one"]) < 1e-7
    assert abs(rep["boundary_start"]) < 1e-7
    assert abs(rep["boundary_end"]) < 1e-7
    assert abs(rep["rp_end"]) < 1e-8
    assert abs(rep["rppp_start_estimate"]) < 1e-5
    assert abs(rep["rppp_end_estimate"]) < 1e-5


def test_monotone_and_positive_warp(profile):
    ts = np.linspace(0.0, profile.L, 300)[1:-1]
    rs = np.array([profile.evaluate(t)[0] for t in ts])
    fs = np.array([profile.warp(t) for t in ts])
    assert np.all(np.diff(rs) > 0.0)
    assert np.all(fs > 0.0)
    assert profile.warp(0.0) == 0.0
    assert abs(profile.warp(profile.L)) < 1e-12


def test_endpoint_values(profile):
    assert abs(profile.evaluate(0.0)[0] - 1.0) < 1e-8
    assert abs(profile.evaluate(profile.L)[0] - 2.0) < 1e-8


def test_export_roundtrip(tmp_path, profile):
    path = tmp_path / "profile.csv"
    profile.export_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,r,rp,rpp,f,fp"
    data = np.genfromtxt(path, delimiter=",", names=True)
    # 17 significant digits survive the round trip bit-exactly
    assert data["r"][10] == profile.r[10]


def test_profile_from_callables_round_sphere():
    # r = sin(t) solves r'' = -r = P'(r)/2 for P = 1 - r^2
    sol = profile_from_callables(np.sin, np.cos, lambda t: -np.sin(t),
                                 lambda t: -np.cos(t), L=1.2, s=2.0)
    t = 0.7
    assert abs(sol.warp(t) - np.sin(t) * np.cos(t)) < 1e-15
    f, fp, fpp = sol.warp_derivatives(t)
    assert abs(fp - np.cos(2 * t)) < 1e-15
    assert abs(fpp + 2 * np.sin(2 * t)) < 1e-14
    # no cubic is attached, so the boundary report reads r'' off the backend;
    # it reports the endpoint conditions this profile violates, never gates
    rep = boundary_report(sol)
    assert abs(rep["rp_start"] - 1.0) < 1e-15
    assert abs(rep["boundary_start"] + 2.0) < 1e-15


def test_quadrature_failure_reports_estimate():
    # a sound polynomial but an impossible tolerance triggers the error path
    poly = build_polynomial(1.0, 2.0, 1.0)
    with pytest.raises(ProfileError, match="error estimate"):
        period_length(poly, tol=1e-18)


def test_one_point_evaluation_matches_array_path(profile):
    """A float t takes the one-point path; it gives the array path's numbers,
    in both end-series windows and on the dense output between them."""
    L = profile.L
    ts = np.array([1e-3 * L, 0.01 * L, 0.3 * L, 0.7 * L, 0.99 * L, L])
    batched = profile._model.eval(ts)
    for i, t in enumerate(ts):
        single = profile._model.eval(float(t))
        for k in range(4):
            assert single[k] == batched[k][i], (t, k)
        assert profile.evaluate(float(t))[0] == batched[0][i]
