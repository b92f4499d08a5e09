from types import SimpleNamespace

import numpy as np
import pytest

from qchgeom import FubiniStudy
from qchgeom.curvature import PointAnalysis
from qchgeom.geometry import BaseChartMetric
from qchgeom.qch import (
    circle_bundle_residuals,
    coefficient_a,
    coefficient_base_independence,
    d_block,
    fit_from_curvature,
    fit_qch_coefficients,
    kappa,
    kappa_closed_form,
    qch_residual_samples,
    ricci_eigenvalue_formulas,
    ricci_split,
    section_divergences,
    warped_submersion_residuals,
)
from qchgeom.suite import CHECKS, sample_interior_points

from helpers import model_tensor_arrays, model_tensors, structure_identities, warp_derivatives


@pytest.fixture(scope="module")
def split_setup(warped_point_analysis):
    an = warped_point_analysis
    fr = an.frame
    J = an.complex_structure[0]
    return an, J, d_block(an.g, fr)


def test_split_projections(split_setup):
    """h, the D block of g, is symmetric and J-invariant, has H and JH as
    unit vectors and annihilates E."""
    an, J, h = split_setup
    fr = an.frame
    assert np.abs(h - h.T).max() < 1e-12
    assert np.abs(J.T @ h @ J - h).max() < 1e-12
    assert abs(fr[0] @ h @ fr[0] - 1.0) < 1e-12
    assert abs(fr[1] @ h @ fr[1] - 1.0) < 1e-12
    assert np.abs(fr[2:] @ h).max() < 1e-12


def test_model_tensor_unit_vector_values(split_setup):
    an, J, h = split_setup
    rng = np.random.default_rng(17)
    for _ in range(10):
        X = rng.standard_normal(6)
        X /= np.sqrt(X @ an.g @ X)
        JX = J @ X
        pi, phi, psi = model_tensors(an.g, J, h, X, JX, JX, X)
        td2 = float(X @ h @ X)
        assert abs(pi - 1.0) < 1e-12
        assert abs(phi - td2) < 1e-12
        assert abs(psi - td2 ** 2) < 1e-12


def test_model_tensors_vanish_on_e(split_setup):
    an, J, h = split_setup
    e = an.frame[3]
    Je = J @ e
    _, phi, psi = model_tensors(an.g, J, h, e, Je, Je, e)
    assert abs(phi) < 1e-14
    assert abs(psi) < 1e-14


def test_synthetic_fit_recovers_coefficients(split_setup):
    an, J, h = split_setup
    Pi, Phi, Psi = model_tensor_arrays(an.g, J, h)
    R_syn = 2.0 * Pi - 1.0 * Phi + 0.5 * Psi
    fit = fit_from_curvature(R_syn, an.g, J, an.frame)
    assert abs(fit.a - 2.0) < 1e-12
    assert abs(fit.b + 1.0) < 1e-12
    assert abs(fit.c - 0.5) < 1e-12
    synthetic = SimpleNamespace(riemann=R_syn, g=an.g, complex_structure=(J,), frame=an.frame)
    draws = np.random.default_rng(1).standard_normal((100, 6))
    assert qch_residual_samples(synthetic, fit, draws).max() < 1e-12


def test_warped_fit_closed_forms(warped, profile, warped_analyses):
    rng = np.random.default_rng(3)
    for an in warped_analyses[:6]:
        probes = rng.standard_normal((60, an.g.shape[-1]))
        fit = fit_qch_coefficients(an)
        r, rp, rpp, _ = profile.evaluate(an.x[0])
        f, fp, fpp = warp_derivatives(profile, an.x[0])
        a_t = warped.base.c0 / r ** 2 - 4.0 * rp ** 2 / r ** 2
        b_t = -2.0 * warped.base.c0 / r ** 2 + 8.0 * rp ** 2 / r ** 2 - 8.0 * rpp / r
        c_t = -fpp / f - a_t - b_t
        assert qch_residual_samples(an, fit, probes).max() < 1e-7
        assert abs(fit.a - a_t) < 1e-7
        assert abs(fit.b - b_t) < 1e-7
        assert abs(fit.c - c_t) < 1e-7


def test_negative_control_breaks_quasi_constancy(negative, profile):
    rng = np.random.default_rng(5)
    medians = []
    for k in range(6):
        pt = np.array([(0.2 + 0.1 * k) * profile.L, 0.3 * k, *(0.3 * rng.standard_normal(4))])
        an = PointAnalysis(negative, pt)
        fit = fit_qch_coefficients(an)
        probes, samples = rng.standard_normal((2, 60, an.g.shape[-1]))
        assert qch_residual_samples(an, fit, probes).max() > 1e-7
        medians.append(np.median(qch_residual_samples(an, fit, samples)))
    assert np.median(medians) > 1e-2
    assert min(medians) > 1e-3


def test_ricci_formula_arithmetic():
    lam, mu = ricci_eigenvalue_formulas(1.0, 0.0, 0.0, 3)
    assert lam == 2.0 and mu == 2.0
    lam, mu = ricci_eigenvalue_formulas(0.0, 4.0, 1.0, 3)
    assert lam == 1.0 and mu == 7.0


def test_ricci_split_engine_matches_formula(warped, warped_analyses):
    rng = np.random.default_rng(7)
    for an in warped_analyses[:6]:
        fit = fit_qch_coefficients(an)
        rs = ricci_split(an, fit, warped.n)
        assert abs(rs.lam_engine - rs.lam_formula) < 1e-7
        assert abs(rs.mu_engine - rs.mu_formula) < 1e-7
        assert rs.off_block_max < 1e-8
        assert rs.e_block_deviation < 1e-8
        rho_d = an.frame[:2] @ an.ricci @ an.frame[:2].T
        assert np.abs(rho_d - rs.mu_engine * np.eye(2)).max() < 1e-8


def test_kappa_and_principal_section(warped, profile, warped_point_analysis):
    an = warped_point_analysis
    d1, d2 = section_divergences(an, warped)
    kap = kappa((d1, d2))
    r, rp, _, _ = profile.evaluate(an.x[0])
    assert abs(kap - kappa_closed_form(warped.n, r, rp)) < 1e-7
    assert kap > 0.0
    # the t-direction is principal here, xi_p = (d1 H + d2 JH)/kappa = H:
    # div_E(JH) = 0 and div_E(H) = kappa
    assert abs(d2) < 1e-12
    assert abs(d1 - kap) < 1e-12


def test_kappa_closed_form_arithmetic():
    # n = 3, r = 1.5, r' = 0.5: kappa = 2 * 2 * (0.5/1.5) = 4/3
    assert abs(kappa_closed_form(3, 1.5, 0.5) - 4.0 / 3.0) < 1e-15


def test_kappa_section_independence(warped, warped_point_analysis):
    an = warped_point_analysis
    d1, d2 = section_divergences(an, warped)
    kap = np.hypot(d1, d2)
    rng = np.random.default_rng(9)
    for _ in range(2):
        phi = rng.uniform(0.0, 2.0 * np.pi)
        d1r, d2r = section_divergences(an, warped, (np.cos(phi), np.sin(phi)))
        assert abs(np.hypot(d1r, d2r) - kap) < 1e-10


def test_kappa_vanishes_in_product_mode(product, profile):
    pt = np.array([0.5 * profile.L, 0.1, 0.2, -0.3, 0.1, 0.2])
    an = PointAnalysis(product, pt)
    d1, d2 = section_divergences(an, product)
    assert np.hypot(d1, d2) < 1e-10
    with pytest.raises(ValueError, match="kappa vanishes"):
        kappa((d1, d2))


def test_structure_identities(warped, warped_analyses):
    tolerances = {
        "identity_p": 1e-8,
        "identity_p_star": 1e-7,
        "identity_eps_forms": 1e-8,
        "totally_geodesic_d": 1e-8,
        "kappa_closed_form": 1e-7,
        "identity_log_kappa_gradient": 1e-7,
        "identity_nabla_theta": 1e-7,
        "identity_gradient_a": 1e-6,
        "identity_gradient_b": 1e-6,
        "potential_killing": 1e-7,
        "potential_hessian": 1e-7,
    }
    for an in warped_analyses[:4]:
        out = structure_identities(an, warped)
        for name, tol in tolerances.items():
            assert out[name] < tol, f"{name}: {out[name]} at t={an.x[0]}"


def test_coefficients_depend_on_t_only(warped, warped_point_analysis):
    rng = np.random.default_rng(13)
    an = warped_point_analysis
    dev = coefficient_base_independence(warped, an.x, coefficient_a(an),
                                        draws=rng.standard_normal((2, warped.base.dim)))
    assert dev < 1e-8


def test_warped_submersion_residuals(warped, warped_analyses):
    for an in warped_analyses[:4]:
        out = warped_submersion_residuals(an, warped)
        assert out["submersion_fiber_t"] < 1e-8
        assert out["submersion_horizontal_t"] < 1e-7
        assert out["submersion_twist"] < 1e-7
        assert out["submersion_mixed_curvature"] < 1e-7
        assert out["submersion_degenerate"] < 1e-7


def test_circle_bundle_closed_forms(circle_bundle):
    rng = np.random.default_rng(15)
    base_chart = BaseChartMetric(circle_bundle.base)
    for _ in range(4):
        z = 0.5 * rng.standard_normal(4)
        an = PointAnalysis(circle_bundle, np.array([rng.uniform(0, 6.2), *z]))
        ab = PointAnalysis(base_chart, z)
        rho_b = ab.frame @ ab.ricci @ ab.frame.T
        mu0 = float(np.trace(rho_b) / 4.0)
        out = circle_bundle_residuals(an, circle_bundle, mu0)
        for name, value in out.items():
            assert value < 1e-7, f"{name}: {value}"


def test_residuals_come_back_under_check_names(warped, circle_bundle):
    """The residual functions key each residual by the check it feeds."""
    rng = np.random.default_rng(19)
    warped_batch = PointAnalysis(warped, sample_interior_points(warped, rng, 3))
    bundle_batch = PointAnalysis(
        circle_bundle, sample_interior_points(circle_bundle, rng, 3))
    keys = {*structure_identities(warped_batch, warped),
            *warped_submersion_residuals(warped_batch, warped),
            *circle_bundle_residuals(bundle_batch, circle_bundle, 4.0)}
    assert len(keys) == 22
    assert keys <= set(CHECKS), sorted(keys - set(CHECKS))


def test_circle_bundle_fiber_ricci_scaling():
    # alpha, beta != 1 exercise the full closed form of the fiber eigenvalue
    from qchgeom import CircleBundleMetric

    cb = CircleBundleMetric(1.4, 0.9, 0.75, FubiniStudy(2, 4.0))
    an = PointAnalysis(cb, np.array([0.2, 0.3, -0.2, 0.1, 0.25]))
    rho = an.ricci
    xi_hat = an.frame[0]
    target = 0.75 ** 2 * 1.4 ** 2 * 4 / (4.0 * 0.9 ** 4)
    assert abs(float(xi_hat @ rho @ xi_hat) - target) < 1e-10


def test_product_mode_coefficients(product, profile):
    rng = np.random.default_rng(21)
    pt = np.array([0.35 * profile.L, 0.4, 0.15, 0.2, -0.1, 0.05])
    an = PointAnalysis(product, pt)
    probes = rng.standard_normal((80, an.g.shape[-1]))
    fit = fit_qch_coefficients(an)
    f, _, fpp = warp_derivatives(profile, pt[0])
    assert qch_residual_samples(an, fit, probes).max() < 1e-7
    assert abs(fit.a - product.base.c0) < 1e-10
    assert abs(fit.b + 2.0 * product.base.c0) < 1e-10
    assert abs(fit.c - (product.base.c0 - fpp / f)) < 1e-10
    rs = ricci_split(an, fit, product.n)
    assert abs(rs.lam_engine - rs.lam_formula) < 1e-10
    assert abs(rs.mu_engine - rs.mu_formula) < 1e-10
