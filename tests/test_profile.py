import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipj, ellipk

from qchgeom import profile as profile_module
from qchgeom.profile import (
    ProfileError,
    ProfileSolution,
    boundary_report,
    build_polynomial,
    period_length,
    solve_profile,
)
from qchgeom.suite import _profile_checks, _Residuals

from helpers import warp_derivatives

SRC = str(Path(__file__).resolve().parents[1] / "src")

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
    """The root form must solve the four defining constraints; oracle = the
    cubic whose coefficients a direct linear solve gives, at points across
    and beyond [x, y]."""
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
        t = np.linspace(0.0, 2.0 * y, 17)
        assert np.allclose(poly(t), np.polynomial.polynomial.polyval(t, oracle),
                           rtol=1e-9, atol=1e-11)


def test_example_cubic_coefficients():
    # (x, y, s) = (1, 2, 2) gives exactly (t-1)(t-2)(t-3) = t^3 - 6t^2 + 11t - 6
    poly = build_polynomial(1.0, 2.0, 2.0)
    t = np.linspace(-1.0, 4.0, 11)
    assert np.allclose(poly(t), ((t - 6.0) * t + 11.0) * t - 6.0, atol=1e-12)
    assert np.allclose(poly.deriv1(t), (3.0 * t - 12.0) * t + 11.0, atol=1e-12)
    assert np.allclose(poly.deriv2(t), 6.0 * t - 12.0, atol=1e-12)


def test_endpoint_slope_constraints():
    poly = build_polynomial(1.0, 2.0, 1.0)
    assert abs(1.0 * poly.deriv1(1.0) - 1.0) < 1e-13
    assert abs(2.0 * poly.deriv1(2.0) + 1.0) < 1e-13


def test_cubic_just_above_y_equals_x_builds():
    """Regression: at y/x = 1.001 the monomial x P'(x) and y P'(y) rounded at
    about 1e-12 (y P'(y) = -0.9374999999987723 here), which an absolute
    self-check bound of 1e-12 max(1, s) once rejected (exit 3).  From the
    roots, P vanishes exactly at both ends and the slopes hold to rounding."""
    poly = build_polynomial(1.0, 1.001, 0.9375)
    assert poly(poly.x) == 0.0 and poly(poly.y) == 0.0
    assert abs(poly.x * poly.deriv1(poly.x) - poly.s) < 4 * np.finfo(float).eps * poly.s
    assert abs(poly.y * poly.deriv1(poly.y) + poly.s) < 4 * np.finfo(float).eps * poly.s
    sol = solve_profile(poly)
    assert sol.L > 0.0 and sol.first_integral_residuals().max() < 1e-11


def _exact_half_slope(poly, r):
    """P'(r)/2 in exact rational arithmetic from the float roots and c3."""
    x, y, c3, r = (Fraction(v) for v in (poly.x, poly.y, poly.c3, float(r)))
    return float(c3 * ((r - y) * (r - x - y) + (r - x) * (r - x - y) + (r - x) * (r - y)) / 2)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.05, 5.0), gap=st.floats(1e-6, 3e-3), s=st.floats(0.1, 5.0))
def test_cubics_near_y_equals_x_build_and_keep_r_second_derivative(x, gap, s):
    """Every cubic with y/x = 1 + gap in [1 + 1e-6, 1.003] builds, and
    r'' = P'(r)/2, evaluated from the roots, stays within a few eps of its
    exact value relative to the size of its terms, c3 (y - x) y; the
    monomial P' rounds at about y/(y - x) times that."""
    y = x * (1.0 + gap)
    sol = solve_profile(build_polynomial(x, y, s))
    poly = sol.polynomial
    r, _, rpp, _ = sol.evaluate(np.linspace(0.0, sol.L, 9))
    scale = poly.c3 * (y - x) * y
    for ri, got in zip(r, rpp):
        assert abs(got - _exact_half_slope(poly, ri)) <= 8 * np.finfo(float).eps * scale


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
    r0, rp0 = profile.evaluate(0.0)[:2]
    assert r0 == 1.0
    assert rp0 == 0.0


def test_first_integral_conservation(profile):
    assert profile.first_integral_residuals().max() < 1e-8


def test_first_passage_matches_quadrature(profile):
    assert abs(profile.L - profile.quadrature_length) < 1e-6


def test_boundary_conditions(profile):
    rep = boundary_report(profile)
    assert abs(rep["fp_start_minus_one"]) < 1e-7
    assert abs(rep["fp_end_plus_one"]) < 1e-7
    assert abs(rep["boundary_start"]) < 1e-7
    assert abs(rep["boundary_end"]) < 1e-7
    assert abs(rep["rp_end"]) < 1e-8
    assert abs(rep["rppp_start"]) < 1e-12
    assert abs(rep["rppp_end"]) < 1e-12


def test_monotone_and_positive_warp(profile):
    ts = np.linspace(0.0, profile.L, 300)[1:-1]
    rs = np.array([profile.evaluate(t)[0] for t in ts])
    fs = np.array([warp_derivatives(profile, t)[0] for t in ts])
    assert np.all(np.diff(rs) > 0.0)
    assert np.all(fs > 0.0)
    assert warp_derivatives(profile, 0.0)[0] == 0.0
    assert abs(warp_derivatives(profile, profile.L)[0]) < 1e-12


def test_endpoint_values(profile):
    assert abs(profile.evaluate(0.0)[0] - 1.0) < 1e-8
    assert abs(profile.evaluate(profile.L)[0] - 2.0) < 1e-8


def test_export_roundtrip(tmp_path, profile):
    path = tmp_path / "profile.csv"
    profile.export_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,r,rp,rpp,f,fp"
    data = np.genfromtxt(path, delimiter=",", names=True)
    assert len(data) == 512
    assert data["t"][0] == 0.0 and data["t"][-1] == profile.L
    # 17 significant digits survive the round trip bit-exactly
    r, rp, rpp, rppp = profile.evaluate(data["t"])
    f, fp, _ = profile.warp_from(r, rp, rpp, rppp)
    for name, column in (("r", r), ("rp", rp), ("rpp", rpp), ("f", f), ("fp", fp)):
        assert np.array_equal(data[name], column), name


def test_warp_algebra_round_sphere(profile):
    # r = sin(t) solves r'' = -r = P'(r)/2 for P = 1 - r^2; with s = 2 the
    # warp is f = sin t cos t, so f' = cos 2t and f'' = -2 sin 2t
    sphere = solve_profile(build_polynomial(1.0, 2.0, 2.0))
    t = 0.7
    f, fp, fpp = sphere.warp_from(np.sin(t), np.cos(t), -np.sin(t), -np.cos(t))
    assert abs(f - np.sin(t) * np.cos(t)) < 1e-15
    assert abs(fp - np.cos(2 * t)) < 1e-15
    assert abs(fpp + 2 * np.sin(2 * t)) < 1e-14


def test_warp_derivatives_match_differences_of_warp(profile):
    """f' and f'' of ``warp_from`` against fourth-order central
    differences of its f, on both halves of the profile."""
    L, h = profile.L, 1e-3
    ts = np.array([0.1, 0.3, 0.45, 0.55, 0.7, 0.9]) * L
    f, fp, fpp = warp_derivatives(profile, ts)
    w = [warp_derivatives(profile, ts + k * h)[0] for k in (-2, -1, 0, 1, 2)]
    assert np.array_equal(f, w[2])
    fd1 = (w[0] - 8.0 * w[1] + 8.0 * w[3] - w[4]) / (12.0 * h)
    fd2 = (-w[0] + 16.0 * w[1] - 30.0 * w[2] + 16.0 * w[3] - w[4]) / (12.0 * h * h)
    assert np.abs(fp - fd1).max() < 1e-10
    assert np.abs(fpp - fd2).max() < 1e-7


def test_period_quadrature_stops_relative_to_the_length(monkeypatch):
    """Regression: the quadrature stopped once its error estimate was below
    1e-9 as an absolute length, which rounding alone exceeds past L of about
    2e6: at x = 1e6, y = 3e6 (n = 3, k = 1, L = 7.0e6) the estimate read
    2.8e-9 and the solve raised ``ProfileError``.  Relative to L it stops,
    and the desk still stops at 64 nodes."""
    sol = solve_profile(build_polynomial(1e6, 3e6, 2.0 / 3.0))
    assert sol.L > 6e6
    assert abs(sol.L - sol.quadrature_length) <= 1e-12 * sol.L
    rules = []
    leggauss = np.polynomial.legendre.leggauss

    def recording(nodes):
        rules.append(nodes)
        return leggauss(nodes)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", recording)
    assert period_length(build_polynomial(1.0, 2.0, 2.0 / 3.0)) > 0.0
    assert rules == [32, 64]


def test_quadrature_failure_reports_estimate(monkeypatch):
    # a sound polynomial but an impossible tolerance triggers the error path
    monkeypatch.setattr(profile_module, "PERIOD_RTOL", 1e-18)
    poly = build_polynomial(1.0, 2.0, 1.0)
    with pytest.raises(ProfileError, match="error estimate"):
        period_length(poly)


def test_one_point_evaluation_matches_array_path(profile):
    """A float t gives the array path's numbers, on both sides of the L/2
    reflection and at both ends; the random batch is long enough for numpy's
    vectorised loops, whose pow, unlike a product, rounds apart from the
    scalar one."""
    L = profile.L
    half = 0.5 * L
    ts = np.concatenate(([0.0, 1e-3 * L, 0.01 * L, 0.3 * L, half, np.nextafter(half, L),
                          0.7 * L, 0.99 * L, L],
                         np.random.default_rng(1).uniform(0.0, L, 200)))
    batched = profile.evaluate(ts)
    for i, t in enumerate(ts):
        single = profile.evaluate(float(t))
        for k in range(4):
            assert single[k] == batched[k][i], (t, k)


def test_reflection_is_continuous_at_half_period(profile):
    half = 0.5 * profile.L
    below = profile.evaluate(half)
    above = profile.evaluate(np.nextafter(half, profile.L))
    for k in range(4):
        assert abs(above[k] - below[k]) < 1e-14 * max(1.0, abs(below[k])), k


# -- the closed form against independent oracles --------------------------------


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.05, 5.0), ratio=st.floats(1.003, 100.0), s=st.floats(0.1, 5.0))
def test_closed_form_matches_scipy_ellipj(x, ratio, s):
    """r and r' against scipy's Jacobi elliptic functions across [0, L], and
    L against K(m)/omega."""
    y = ratio * x
    sol = solve_profile(build_polynomial(x, y, s))
    m = (y - x) / y
    assert abs(sol.L - ellipk(m) / sol.omega) < 1e-14 * sol.L
    t = np.linspace(0.0, sol.L, 201)
    sn, cn, dn, _ = ellipj(sol.omega * t, m)
    r, rp, _, _ = sol.evaluate(t)
    rp_ref = 2.0 * (y - x) * sol.omega * sn * cn * dn
    assert np.abs(r - (x + (y - x) * sn ** 2)).max() < 4e-15 * y
    assert np.abs(rp - rp_ref).max() < 8e-15 * np.abs(rp_ref).max()


def turning_point_series(poly, root, tau, terms=12):
    """(r - root, r') at tau from a turning point, by the even power series
    rho = sum a_k tau^(2k) of rho'' = A + B rho + C rho^2, the Taylor form of
    r'' = P'(r)/2 about the root; its coefficients are exact from the
    recursion.  A = P'(root)/2 and B = P''(root)/2 are taken from the
    factored P = c3 (r - x)(r - y)(r - x - y), free of the cancellation of
    the monomial form near y = x."""
    x, y, c3 = poly.x, poly.y, poly.c3
    A = 0.5 * c3 * (y - x) * (y if root == x else -x)
    B = c3 * (3.0 * root - 2.0 * (x + y))
    C = 1.5 * c3
    a = [0.0]
    for j in range(terms):
        conv = sum(a[i] * a[j - i] for i in range(1, j))
        a.append(((A if j == 0 else 0.0) + B * a[j] + C * conv) / ((2 * j + 2) * (2 * j + 1)))
    rho = sum(a[k] * tau ** (2 * k) for k in range(1, terms + 1))
    slope = sum(2 * k * a[k] * tau ** (2 * k - 1) for k in range(1, terms + 1))
    return rho, slope


@pytest.mark.parametrize("x,y,s", [(1.0, 2.0, 2.0 / 3.0), (0.1, 10.0, 2.0 / 3.0),
                                   (1.0, 1.001, 2.0 / 3.0), (5.0, 50.0, 10.0 / 3.0)])
def test_turning_points_keep_relative_accuracy(x, y, s):
    """Near t = 0 and t = L, r' and the distances r - x and y - r hold their
    relative accuracy (sqrt(P(r)) of the rounded r would lose it).  The
    distance is recovered from r'^2 = c3 (r - x)(y - r)(x + y - r), with the
    two other factors, which barely depend on it there, taken from the
    series."""
    poly = build_polynomial(x, y, s)
    sol = solve_profile(poly)
    c3, L = poly.c3, sol.L
    for frac in (1e-6, 1e-4, 1e-2):
        t_far = L - frac * L
        for t, root, tau in ((frac * L, x, frac * L), (t_far, y, t_far - L)):
            r, rp, _, _ = sol.evaluate(t)
            rho, slope = turning_point_series(poly, root, tau)
            gap = abs(rho)
            others = (y - x - gap) * (y - gap) if root == x else (y - x - gap) * (x + gap)
            assert abs(rp / slope - 1.0) < 4e-14, (frac, root)
            assert abs(rp * rp / (c3 * others) / gap - 1.0) < 4e-14, (frac, root)


def test_wrong_frequency_fails_the_profile_checks(profile):
    """Teeth: omega off by 1e-6 relative must fail the first-integral and the
    length-agreement checks that the solved profile passes."""
    poly = profile.polynomial
    verdicts = {}
    for label, omega in (("solved", profile.omega), ("off", profile.omega * (1.0 + 1e-6))):
        res = _Residuals()
        _profile_checks(res, ProfileSolution(poly, omega, profile.quadrature_length), poly)
        verdicts[label] = {c.name: c.passed for c in res.checks()}
    assert all(verdicts["solved"].values())
    assert not verdicts["off"]["profile_first_integral"]
    assert not verdicts["off"]["profile_length_agreement"]


def test_profile_imports_no_scipy():
    """The profile module computes without scipy, and importing it (with the
    package) loads none."""
    code = ("import sys, qchgeom.profile; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert out.stdout.strip() == "[]"
