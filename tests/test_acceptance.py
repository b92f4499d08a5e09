"""Acceptance battery: the ten headline properties at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  All criteria are evaluated at desk scale: n = 3 (real
dimension 6), base curvature c0 = 4, cubic profile (x, y, s) = (1, 2, 2/3).
"""

import numpy as np
import pytest

from qchgeom.curvature import PointAnalysis, max_frame_component_3tensor, nabla_j
from qchgeom.flows import jacobi_decay_experiment
from qchgeom.geometry import BaseChartMetric
from qchgeom.qch import (
    circle_bundle_residuals,
    fit_qch_coefficients,
    kappa_closed_form,
    qch_residual_samples,
    ricci_split,
    section_divergences,
    warped_submersion_residuals,
)
from qchgeom.suite import sample_interior_points

from helpers import jet_fd_errors, structure_identities

POINTS = 50


def _fit(an, rng):
    """(the fit, its largest deviation along 100 standard-normal draws from rng)."""
    probes = rng.standard_normal((100, an.g.shape[-1]))
    fit = fit_qch_coefficients(an)
    return fit, float(qch_residual_samples(an, fit, probes).max())


def _sampled_analyses(model, seed, count=POINTS):
    rng = np.random.default_rng(seed)
    return [PointAnalysis(model, p)
            for p in sample_interior_points(model, rng, count)]


@pytest.fixture(scope="module")
def warped_50(warped):
    return _sampled_analyses(warped, 1001)


@pytest.fixture(scope="module")
def product_50(product):
    return _sampled_analyses(product, 1002)


@pytest.fixture(scope="module")
def perturbed_50(perturbed):
    return _sampled_analyses(perturbed, 1001)


@pytest.fixture(scope="module")
def negative_20(negative):
    return _sampled_analyses(negative, 1003, 20)


@pytest.fixture(scope="module")
def bundle_20(circle_bundle):
    return _sampled_analyses(circle_bundle, 1004, 20)


@pytest.fixture(scope="module")
def warped_fits(warped_50):
    rng = np.random.default_rng(2001)
    return [_fit(an, rng) for an in warped_50]


@pytest.fixture(scope="module")
def decay(warped):
    L = warped.profile.L
    return jacobi_decay_experiment(warped, 0.2 * L, L * (1.0 - 1e-3), samples=160)


def criterion(number, passed, text):
    marker = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{marker}] {text}")
    assert passed, f"criterion {number}: {text}"


def _max_nabla_j(analyses):
    return max(max_frame_component_3tensor(nabla_j(an), an.frame, an.g)
               for an in analyses)


def test_c01_parallel_complex_structure(warped_50, perturbed_50):
    worst = _max_nabla_j(warped_50)
    worst_perturbed = _max_nabla_j(perturbed_50)
    criterion(1, worst < 1e-7 and worst_perturbed > 1e-3,
              f"parallel J: max |nabla J| = {worst:.2e} < 1e-7 at {POINTS} points; "
              f"1.01-perturbed warp gives {worst_perturbed:.2e} > 1e-3")


def test_c02_quasi_constancy(warped, warped_50, warped_fits, negative, negative_20):
    fit_worst = max(residual for _, residual in warped_fits)
    a_worst = 0.0
    for an, (fit, _) in zip(warped_50, warped_fits):
        r, rp, _, _ = warped.profile.evaluate(an.x[0])
        a_worst = max(a_worst, abs(fit.a - (warped.base.c0 / r ** 2 - 4.0 * rp ** 2 / r ** 2)))
    rng = np.random.default_rng(2002)
    neg_medians = []
    for an in negative_20:
        fit, _ = _fit(an, rng)
        samples = rng.standard_normal((40, an.g.shape[-1]))
        neg_medians.append(np.median(qch_residual_samples(an, fit, samples)))
    neg_median = float(np.median(neg_medians))
    criterion(2, fit_worst < 1e-7 and a_worst < 1e-7 and neg_median > 1e-2,
              f"quasi-constancy: fit residual {fit_worst:.2e} < 1e-7 over 100 "
              f"vectors x {POINTS} points; a-coefficient dev {a_worst:.2e} < 1e-7; "
              f"product-of-lines control median {neg_median:.2e} > 1e-2")


def test_c03_ricci_split(warped, warped_50, warped_fits):
    lam = mu = off = 0.0
    for an, (fit, _) in zip(warped_50, warped_fits):
        rs = ricci_split(an, fit, warped.n)
        lam = max(lam, abs(rs.lam_engine - rs.lam_formula))
        mu = max(mu, abs(rs.mu_engine - rs.mu_formula))
        off = max(off, rs.off_block_max)
    criterion(3, lam < 1e-7 and mu < 1e-7 and off < 1e-8,
              f"Ricci split: |lambda dev| {lam:.2e} < 1e-7, |mu dev| {mu:.2e} "
              f"< 1e-7, off-block {off:.2e} < 1e-8")


def test_c04_structure_identities(warped, warped_50):
    worst = {}
    for an in warped_50[:12]:
        for key, val in structure_identities(an, warped).items():
            worst[key] = max(worst.get(key, 0.0), val)
    ok = (worst["kappa_closed_form"] < 1e-7 and worst["identity_p"] < 1e-8
          and worst["identity_p_star"] < 1e-7
          and worst["identity_log_kappa_gradient"] < 1e-7
          and worst["identity_nabla_theta"] < 1e-7
          and worst["identity_gradient_a"] < 1e-6
          and worst["identity_gradient_b"] < 1e-6
          and worst["totally_geodesic_d"] < 1e-8)
    criterion(4, ok,
              "structure identities: kappa dev "
              f"{worst['kappa_closed_form']:.2e} < 1e-7, p {worst['identity_p']:.2e} "
              f"< 1e-8, p* dev {worst['identity_p_star']:.2e} < 1e-7, "
              f"log-kappa law {worst['identity_log_kappa_gradient']:.2e} < 1e-7, "
              f"theta derivative {worst['identity_nabla_theta']:.2e} < 1e-7, "
              f"coefficient gradients {worst['identity_gradient_a']:.2e}/"
              f"{worst['identity_gradient_b']:.2e} < 1e-6, totally geodesic "
              f"{worst['totally_geodesic_d']:.2e} < 1e-8")


def test_c05_kahler_ricci_potential(warped, warped_50):
    killing = hess = 0.0
    for an in warped_50[:12]:
        out = structure_identities(an, warped)
        killing = max(killing, out["potential_killing"])
        hess = max(hess, out["potential_hessian"])
    criterion(5, killing < 1e-7 and hess < 1e-7,
              f"Killing potential r^2/s: deviation {killing:.2e} < 1e-7, "
              f"E-Hessian proportionality {hess:.2e} < 1e-7")


def test_c06_profile(cubic, profile):
    from qchgeom.profile import boundary_report

    cons = max(abs(cubic(cubic.x)), abs(cubic(cubic.y)),
               abs(cubic.x * cubic.deriv1(cubic.x) - cubic.s),
               abs(cubic.y * cubic.deriv1(cubic.y) + cubic.s))
    rep = boundary_report(profile)
    boundary = max(abs(rep["fp_start_minus_one"]), abs(rep["fp_end_plus_one"]),
                   abs(rep["boundary_start"]), abs(rep["boundary_end"]))
    first_integral = profile.first_integral_residuals().max()
    lengths = abs(profile.L - profile.quadrature_length)
    criterion(6, cons < 1e-12 and boundary < 1e-7 and first_integral < 1e-8
              and lengths < 1e-6,
              f"profile: constraints {cons:.2e} < 1e-12, boundary {boundary:.2e} "
              f"< 1e-7, first integral {first_integral:.2e} < 1e-8, length "
              f"agreement {lengths:.2e} < 1e-6")


def test_c07_submersion_cross_checks(warped, warped_50, circle_bundle, bundle_20):
    warped_worst = 0.0
    for an in warped_50[:12]:
        warped_worst = max(warped_worst,
                           max(warped_submersion_residuals(an, warped).values()))
    base_chart = BaseChartMetric(circle_bundle.base)
    bundle_worst = 0.0
    for an in bundle_20:
        ab = PointAnalysis(base_chart, an.x[1:])
        rho_b = ab.frame @ ab.ricci @ ab.frame.T
        mu0 = float(np.trace(rho_b) / rho_b.shape[0])
        out = circle_bundle_residuals(an, circle_bundle, mu0)
        bundle_worst = max(bundle_worst, out["bundle_fiber_ricci"],
                           out["bundle_mixed_fiber_curvature"])
    criterion(7, warped_worst < 1e-7 and bundle_worst < 1e-7,
              f"submersion closed forms: warped-chart worst {warped_worst:.2e} "
              f"< 1e-7, circle-bundle worst {bundle_worst:.2e} < 1e-7")


def test_c08_jacobi_decay(decay):
    norm, ratio, collapse, inner = (decay.residuals()[check].max() for check in (
        "decay_norm_tracks_warp", "decay_ratio_law", "decay_collapse", "decay_velocity_inner"))
    ok = (norm < 1e-6 and ratio < 1e-6 and collapse < 1e-2 and inner < 1e-8)
    criterion(8, ok,
              f"Jacobi decay: |C|-f deviation {norm:.2e} < 1e-6, ratio law "
              f"{ratio:.2e} < 1e-6, collapse factor {collapse:.2e} < 1e-2, "
              f"g(c',C) {inner:.2e} < 1e-8")


def test_c09_jets_against_finite_differences():
    rng = np.random.default_rng(3001)
    worst_g = worst_h = 0.0
    for _ in range(100):
        gerr, herr = jet_fd_errors(rng)
        worst_g = max(worst_g, gerr)
        worst_h = max(worst_h, herr)
    criterion(9, worst_g < 1e-6 and worst_h < 1e-4,
              f"jets vs central differences over 100 compositions: gradient "
              f"{worst_g:.2e} < 1e-6, Hessian {worst_h:.2e} < 1e-4")


def test_c10_product_mode(product, product_50):
    worst_nj = _max_nabla_j(product_50)
    kappa_worst = 0.0
    fit_worst = 0.0
    rng = np.random.default_rng(2003)
    for an in product_50:
        d1, d2 = section_divergences(an, product)
        kappa_worst = max(kappa_worst, float(np.hypot(d1, d2)))
        fit_worst = max(fit_worst, _fit(an, rng)[1])
    criterion(10, worst_nj < 1e-7 and kappa_worst < 1e-10 and fit_worst < 1e-7,
              f"product mode: max |nabla J| {worst_nj:.2e} < 1e-7, kappa "
              f"{kappa_worst:.2e} < 1e-10, fit residual {fit_worst:.2e} < 1e-7")
