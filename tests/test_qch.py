import numpy as np
import pytest

from qchgeom import FubiniStudy
from qchgeom.curvature import PointAnalysis
from qchgeom.geometry import BaseChartMetric
from qchgeom.qch import (
    circle_bundle_residuals,
    coefficient_base_independence,
    fit_from_curvature,
    fit_qch_coefficients,
    kappa_and_principal_section,
    kappa_closed_form,
    model_tensor_arrays,
    qch_residual_samples,
    ricci_eigenvalue_formulas,
    ricci_split,
    section_divergences,
    split_tensors,
    structure_identity_residuals,
    warped_submersion_residuals,
)

from helpers import model_tensors, warp_derivatives


@pytest.fixture(scope="module")
def split_setup(warped_point_analysis):
    an = warped_point_analysis
    fr = an.frame
    J = an.complex_structure[0]
    split = split_tensors(an.g, J, fr.vectors[0], fr.vectors[1])
    return an, J, split


def test_split_projections(split_setup):
    an, J, split = split_setup
    eye = np.eye(6)
    assert np.abs(split.p_d + split.p_e - eye).max() < 1e-14
    assert np.abs(split.p_d @ split.p_d - split.p_d).max() < 1e-13
    assert np.abs(split.h + split.m - an.g).max() < 1e-12
    # D is J-invariant: J p_D = p_D J
    assert np.abs(J @ split.p_d - split.p_d @ J).max() < 1e-12


def test_model_tensor_unit_vector_values(split_setup):
    an, J, split = split_setup
    rng = np.random.default_rng(17)
    for _ in range(10):
        X = rng.standard_normal(6)
        X /= np.sqrt(X @ an.g @ X)
        JX = J @ X
        pi, phi, psi = model_tensors(an.g, J, split, X, JX, JX, X)
        td2 = float(X @ split.h @ X)
        assert abs(pi - 1.0) < 1e-12
        assert abs(phi - td2) < 1e-12
        assert abs(psi - td2 ** 2) < 1e-12


def test_model_tensors_vanish_on_e(split_setup):
    an, J, split = split_setup
    e = an.frame.horizontal[1]
    Je = J @ e
    _, phi, psi = model_tensors(an.g, J, split, e, Je, Je, e)
    assert abs(phi) < 1e-14
    assert abs(psi) < 1e-14


def test_synthetic_fit_recovers_coefficients(split_setup):
    an, J, split = split_setup
    Pi, Phi, Psi = model_tensor_arrays(an.g, J, split)
    R_syn = 2.0 * Pi - 1.0 * Phi + 0.5 * Psi
    fr = an.frame
    fit = fit_from_curvature(R_syn, an.g, J, fr.vectors[0], fr.vectors[1], fr.horizontal[0],
                             draws=np.random.default_rng(1).standard_normal((100, 6)))
    assert abs(fit.a - 2.0) < 1e-12
    assert abs(fit.b + 1.0) < 1e-12
    assert abs(fit.c - 0.5) < 1e-12
    assert fit.residual < 1e-12


def test_warped_fit_closed_forms(warped, profile, params, warped_analyses):
    rng = np.random.default_rng(3)
    for an in warped_analyses[:6]:
        fit = fit_qch_coefficients(an, draws=rng.standard_normal((60, an.g.shape[-1])))
        r, rp, rpp, _ = profile.evaluate(an.x[0])
        f, fp, fpp = warp_derivatives(profile, an.x[0])
        a_t = params.c0 / r ** 2 - 4.0 * rp ** 2 / r ** 2
        b_t = -2.0 * params.c0 / r ** 2 + 8.0 * rp ** 2 / r ** 2 - 8.0 * rpp / r
        c_t = -fpp / f - a_t - b_t
        assert fit.residual < 1e-7
        assert abs(fit.a - a_t) < 1e-7
        assert abs(fit.b - b_t) < 1e-7
        assert abs(fit.c - c_t) < 1e-7


def test_negative_control_breaks_quasi_constancy(negative, profile):
    rng = np.random.default_rng(5)
    medians = []
    for k in range(6):
        pt = np.array([(0.2 + 0.1 * k) * profile.L, 0.3 * k, *(0.3 * rng.standard_normal(4))])
        an = PointAnalysis(negative, pt)
        fit = fit_qch_coefficients(an, draws=rng.standard_normal((60, an.g.shape[-1])))
        medians.append(np.median(qch_residual_samples(an, fit, rng, 60)))
    assert np.median(medians) > 1e-2
    assert min(medians) > 1e-3


def test_ricci_formula_arithmetic():
    lam, mu = ricci_eigenvalue_formulas(1.0, 0.0, 0.0, 3)
    assert lam == 2.0 and mu == 2.0
    lam, mu = ricci_eigenvalue_formulas(0.0, 4.0, 1.0, 3)
    assert lam == 1.0 and mu == 7.0


def test_ricci_split_engine_matches_formula(warped, params, warped_analyses):
    rng = np.random.default_rng(7)
    for an in warped_analyses[:6]:
        fit = fit_qch_coefficients(an)
        rs = ricci_split(an, fit, params.n)
        assert abs(rs.lam_engine - rs.lam_formula) < 1e-7
        assert abs(rs.mu_engine - rs.mu_formula) < 1e-7
        assert rs.off_block_max < 1e-8
        assert rs.e_block_deviation < 1e-8
        assert rs.d_block_deviation < 1e-8


def test_kappa_and_principal_section(warped, profile, params, warped_point_analysis):
    an = warped_point_analysis
    kap, xi_p = kappa_and_principal_section(an, warped)
    r, rp, _, _ = profile.evaluate(an.x[0])
    assert abs(kap - kappa_closed_form(params.n, r, rp)) < 1e-7
    assert kap > 0.0
    # the t-direction is principal here: div_E(JH) = 0
    assert np.abs(xi_p - an.frame.vectors[0]).max() < 1e-12
    d1, d2 = section_divergences(an, warped)
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
    with pytest.raises(ValueError, match="principal section undefined"):
        kappa_and_principal_section(an, product)


def test_structure_identities(warped, params, warped_analyses):
    tolerances = {
        "p_vanishes": 1e-8,
        "p_star_closed_form": 1e-7,
        "eps_form": 1e-8,
        "eps_star_form": 1e-8,
        "totally_geodesic_d": 1e-8,
        "kappa_closed_form": 1e-7,
        "log_kappa_gradient": 1e-7,
        "theta_covariant_derivative": 1e-7,
        "coefficient_gradient_a": 1e-6,
        "coefficient_gradient_b": 1e-6,
        "potential_killing_deviation": 1e-7,
        "potential_hessian_proportional": 1e-7,
        "potential_hessian_coefficient": 1e-7,
    }
    for an in warped_analyses[:4]:
        out = structure_identity_residuals(an, warped, params)
        for name, tol in tolerances.items():
            assert out[name] < tol, f"{name}: {out[name]} at t={an.x[0]}"


def test_coefficients_depend_on_t_only(warped, warped_point_analysis):
    rng = np.random.default_rng(13)
    dev = coefficient_base_independence(
        warped_point_analysis, warped, draws=rng.standard_normal((2, warped.base.dim)))
    assert dev < 1e-8


def test_warped_submersion_residuals(warped, params, warped_analyses):
    for an in warped_analyses[:4]:
        out = warped_submersion_residuals(an, warped, params)
        assert out["fiber_t_tensor"] < 1e-8
        assert out["horizontal_t_tensor"] < 1e-7
        assert out["horizontal_t_tensor_base_unit"] < 1e-7
        assert out["twist_tensor"] < 1e-7
        assert out["mixed_plane_curvature"] < 1e-7
        assert out["d_plane_degenerate_curvature"] < 1e-7


def test_circle_bundle_closed_forms(circle_bundle):
    rng = np.random.default_rng(15)
    base_chart = BaseChartMetric(circle_bundle.base)
    for _ in range(4):
        z = 0.5 * rng.standard_normal(4)
        an = PointAnalysis(circle_bundle, np.array([rng.uniform(0, 6.2), *z]))
        ab = PointAnalysis(base_chart, z)
        rho_b = ab.frame.vectors @ ab.ricci @ ab.frame.vectors.T
        mu0 = float(np.trace(rho_b) / 4.0)
        out = circle_bundle_residuals(an, circle_bundle, mu0)
        for name, value in out.items():
            assert value < 1e-7, f"{name}: {value}"


def test_circle_bundle_fiber_ricci_scaling():
    # alpha, beta != 1 exercise the full closed form of the fiber eigenvalue
    from qchgeom import CircleBundleMetric

    cb = CircleBundleMetric(1.4, 0.9, 0.75, FubiniStudy(2, 4.0))
    an = PointAnalysis(cb, np.array([0.2, 0.3, -0.2, 0.1, 0.25]))
    rho = an.ricci
    xi_hat = an.frame.vectors[0]
    target = 0.75 ** 2 * 1.4 ** 2 * 4 / (4.0 * 0.9 ** 4)
    assert abs(float(xi_hat @ rho @ xi_hat) - target) < 1e-10


def test_product_mode_coefficients(product, profile, params):
    rng = np.random.default_rng(21)
    pt = np.array([0.35 * profile.L, 0.4, 0.15, 0.2, -0.1, 0.05])
    an = PointAnalysis(product, pt)
    fit = fit_qch_coefficients(an, draws=rng.standard_normal((80, an.g.shape[-1])))
    f, _, fpp = warp_derivatives(profile, pt[0])
    assert fit.residual < 1e-7
    assert abs(fit.a - params.c0) < 1e-10
    assert abs(fit.b + 2.0 * params.c0) < 1e-10
    assert abs(fit.c - (params.c0 - fpp / f)) < 1e-10
    rs = ricci_split(an, fit, params.n)
    assert abs(rs.lam_engine - rs.lam_formula) < 1e-10
    assert abs(rs.mu_engine - rs.mu_formula) < 1e-10
