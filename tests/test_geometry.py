import numpy as np
import pytest

from qchgeom import (
    CircleBundleMetric,
    FubiniStudy,
)
from qchgeom.curvature import PointAnalysis, batch_analyses
from qchgeom.geometry import ChartBoundsError, exterior_derivative_1form
from qchgeom.jets import seed_chart
from qchgeom.suite import sample_interior_points

from helpers import kahler_form_jets


def _base_metric(m, c0, z):
    return FubiniStudy(m, c0).metric_jets(seed_chart(np.asarray(z, dtype=float))).value


def test_base_metric_at_origin_identity():
    assert np.allclose(_base_metric(1, 4.0, np.zeros(2)), np.eye(2), atol=1e-15)


@pytest.mark.parametrize("m,c0", [(1, 4.0), (2, 4.0), (2, 1.7), (3, 3.0)])
def test_base_metric_origin_scaling(m, c0):
    h = _base_metric(m, c0, np.zeros(2 * m))
    assert np.allclose(h, (4.0 / c0) * np.eye(2 * m), atol=1e-14)


def test_base_metric_rotation_invariant_determinant():
    # rotating within one complex line preserves |z|^2, hence det h
    rng = np.random.default_rng(5)
    z = rng.uniform(-0.8, 0.8, 4)
    h = _base_metric(2, 4.0, z)
    phi = 0.7
    rot = z.copy()
    rot[0] = np.cos(phi) * z[0] - np.sin(phi) * z[2]
    rot[2] = np.sin(phi) * z[0] + np.cos(phi) * z[2]
    h2 = _base_metric(2, 4.0, rot)
    assert abs(np.linalg.det(h) - np.linalg.det(h2)) < 1e-14


def test_chart_bound_enforced():
    with pytest.raises(ChartBoundsError, match="chart radius"):
        FubiniStudy(1, 4.0).check_bounds(np.array([3.0, 3.0]))


def test_connection_potential_vanishes_at_origin():
    sigma = FubiniStudy(2, 4.0).connection_potential_jets(seed_chart(np.zeros(4)))
    assert np.all(sigma.value == 0.0)


@pytest.mark.parametrize("m,c0", [(1, 4.0), (2, 4.0), (2, 2.2)])
def test_connection_potential_derivative_is_kahler_form(m, c0):
    rng = np.random.default_rng(9)
    base = FubiniStudy(m, c0)
    for _ in range(5):
        z = rng.uniform(-0.9, 0.9, 2 * m)
        zj = seed_chart(z)
        sigma = base.connection_potential_jets(zj)
        omega = kahler_form_jets(base, zj).value
        dsigma = exterior_derivative_1form(sigma)
        assert np.abs(dsigma - omega).max() < 1e-8


def test_theta_derivative_on_bundle_chart():
    s = 2.0 / 3.0
    rng = np.random.default_rng(13)
    z = rng.uniform(-0.7, 0.7, 4)
    base = FubiniStudy(2, 4.0)
    # with alpha = 1 the psi row of the bundle metric is theta = dpsi + s sigma
    g = CircleBundleMetric(1.0, 1.0, s, base).metric_jets(seed_chart(np.r_[0.0, z]))
    theta = g[0]
    omega = kahler_form_jets(base, seed_chart(z)).value
    dtheta = exterior_derivative_1form(theta)
    # pulled back, d theta sees only the z block
    assert np.abs(dtheta[1:, 1:] - s * omega).max() < 1e-8
    assert np.abs(dtheta[0, :]).max() < 1e-15


def test_metric_sample_block_structure(warped, profile, sample_point):
    an = PointAnalysis(warped, sample_point)
    g = an.g
    f = profile.warp(sample_point[0])
    r = profile.evaluate(sample_point[0])[0]
    assert g[0, 0] == 1.0
    assert abs(g[1, 1] - f * f) < 1e-15
    # J sends H to xi/f and squares to -identity
    J = an.complex_structure[0]
    jh = J @ np.eye(6)[0]
    assert abs(jh[1] - 1.0 / f) < 1e-14
    assert np.abs(J @ J + np.eye(6)).max() < 1e-12
    # warp scaling of the base block at z = 0
    origin = np.array([sample_point[0], 0.0, 0.0, 0.0, 0.0, 0.0])
    g0 = PointAnalysis(warped, origin).g
    assert np.allclose(g0[2:, 2:], r * r * np.eye(4), atol=1e-13)


def test_fiber_metric_is_killing_potential_square(warped, profile):
    # g(xi, xi) = f^2 = (2 r r'/s)^2
    pt = np.array([0.6 * profile.L, 1.0, 0.3, 0.1, -0.2, 0.05])
    g = PointAnalysis(warped, pt).g
    r, rp, _, _ = profile.evaluate(pt[0])
    assert abs(g[1, 1] - (2.0 * r * rp / warped.s) ** 2) < 1e-14


def test_metric_invariants_at_many_points(warped):
    rng = np.random.default_rng(23)
    points = sample_interior_points(warped, rng, 100, 0.05, 1.5)
    for pt in points:
        an = PointAnalysis(warped, pt)
        g = an.g
        J = an.complex_structure[0]
        np.linalg.cholesky(g)
        assert np.abs(J @ J + np.eye(6)).max() < 1e-12
        assert np.abs(J.T @ g @ J - g).max() < 1e-10
        fr = an.frame.vectors
        assert np.abs(fr @ g @ fr.T - np.eye(6)).max() < 1e-10
        # theta(xi) = 1 exactly: theta = dpsi + s sigma has no psi dependence
        assert an.frame.xi[1] == 1.0
        assert abs(float(an.frame.h_vec @ g @ an.frame.xi)) < 1e-12


def test_kahler_form_closed(warped, warped_analyses):
    from qchgeom.suite import _kahler_form_closedness

    for an in warped_analyses[:5]:
        assert _kahler_form_closedness(an) < 1e-8


def test_product_mode_base_block_unscaled(product, profile):
    pt = np.array([0.5 * profile.L, 0.2, 0.2, 0.1, -0.1, 0.3])
    g = PointAnalysis(product, pt).g
    h = _base_metric(2, 4.0, pt[2:])
    assert np.allclose(g[2:, 2:], h, atol=1e-15)
    assert np.abs(g[1, 2:]).max() == 0.0  # no connection cross terms at s = 0


def test_interior_margin_enforced(warped, profile):
    with pytest.raises(ChartBoundsError, match="interior margin"):
        warped.check_bounds(np.array([1e-5 * profile.L, 0.0, 0.0, 0.0, 0.0, 0.0]))
    # the analysis of a batch checks every point of it against the chart
    inside = np.array([0.5 * profile.L, 0.0, 0.0, 0.0, 0.0, 0.0])
    end = np.array([profile.L, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ChartBoundsError, match=r"^t = [0-9.e+-]+ outside interior margin"):
        batch_analyses(warped, np.stack([inside, end]))
    far = np.array([0.5 * profile.L, 0.0, 3.0, 3.0, 0.0, 0.0])
    with pytest.raises(ChartBoundsError, match="chart radius"):
        batch_analyses(warped, np.stack([inside, far]))


def test_circle_bundle_sample():
    cb = CircleBundleMetric(1.3, 0.8, 0.5, FubiniStudy(2, 4.0))
    an = PointAnalysis(cb, np.array([0.1, 0.2, -0.1, 0.3, 0.0]))
    g = an.g
    assert abs(g[0, 0] - 1.3 ** 2) < 1e-15
    assert an.complex_structure is None
    fr = an.frame.vectors
    assert np.abs(fr @ g @ fr.T - np.eye(5)).max() < 1e-10


def test_circle_bundle_horizontal_block():
    # at the chart origin the horizontal block is beta^2 (4/c0) identity
    cb = CircleBundleMetric(1.0, 0.9, 0.5, FubiniStudy(2, 4.0))
    g = PointAnalysis(cb, np.zeros(5)).g
    assert np.allclose(g[1:, 1:], 0.81 * np.eye(4), atol=1e-14)
    assert np.abs(g[0, 1:]).max() == 0.0


def test_circle_bundle_zero_pitch_is_product():
    base = FubiniStudy(2, 4.0)
    cb = CircleBundleMetric(1.0, 1.0, 0.0, base)
    pt = np.array([0.3, 0.4, 0.2, -0.3, 0.1])
    g = PointAnalysis(cb, pt).g
    h = _base_metric(2, 4.0, pt[1:])
    assert np.abs(g[0, 1:]).max() == 0.0
    assert np.allclose(g[1:, 1:], h, atol=1e-15)


def test_nonpositive_bundle_scales_rejected():
    with pytest.raises(ValueError, match="positive"):
        CircleBundleMetric(0.0, 1.0, 0.5, FubiniStudy(1, 4.0))
    with pytest.raises(ValueError, match="positive"):
        CircleBundleMetric(1.0, -2.0, 0.5, FubiniStudy(1, 4.0))


def test_product_base_is_einstein_but_not_constant_curvature(negative):
    from qchgeom.curvature import holomorphic_sectional_curvature
    from qchgeom.geometry import BaseChartMetric

    base = negative.base
    bm = BaseChartMetric(base)
    an = PointAnalysis(bm, np.array([0.2, 0.1, -0.3, 0.15]))
    rho = an.frame.vectors @ an.ricci @ an.frame.vectors.T
    mu0 = np.trace(rho) / 4.0
    assert np.abs(rho - mu0 * np.eye(4)).max() < 1e-12  # Einstein
    # holomorphic curvature spreads over [c0/2, c0] on mixed directions
    g = an.g
    e1 = np.array([1.0, 0, 0, 0]); e1 /= np.sqrt(e1 @ g @ e1)
    e2 = np.array([0, 0, 1.0, 0]); e2 /= np.sqrt(e2 @ g @ e2)
    mix = (e1 + e2) / np.sqrt((e1 + e2) @ g @ (e1 + e2))
    k_pure = holomorphic_sectional_curvature(an.riemann, g, base.j0, e1)
    k_mix = holomorphic_sectional_curvature(an.riemann, g, base.j0, mix)
    assert abs(k_pure - k_mix) > 0.5


def test_bundle_params_validation():
    from qchgeom import BundleParams

    with pytest.raises(ValueError, match="n >= 3"):
        BundleParams(n=2, c0=4.0, s=1.0)
    with pytest.raises(ValueError, match="2k/q"):
        BundleParams(n=3, c0=4.0, s=0.5, k=1, q=3)
    p = BundleParams(n=3, c0=4.0, s=2.0 / 3.0, k=1, q=3)
    assert p.m == 2


@pytest.mark.parametrize("chart", ["warped", "circle-bundle"])
def test_theta_derivative_detects_wrong_cross_term_pitch(warped, circle_bundle,
                                                         params, profile, chart):
    """theta is read off the assembled metric, so a metric whose cross terms
    carry another pitch than the model's s fails d theta = s Omega."""
    from qchgeom import BundleParams, WarpedBundleMetric
    from qchgeom.suite import _connection_form_residuals

    wrong_s = 1.1 * params.s
    z = np.array([0.3, -0.2, 0.1, 0.25])
    if chart == "warped":
        model = warped
        wrong = WarpedBundleMetric(BundleParams(n=params.n, c0=params.c0, s=wrong_s),
                                   profile)
        point = np.array([0.4 * profile.L, 0.5, *z])
    else:
        model = circle_bundle
        wrong = CircleBundleMetric(model.alpha, model.beta, wrong_s, model.base)
        point = np.array([0.5, *z])
    res_sigma, res_theta = _connection_form_residuals(model, PointAnalysis(model, point))
    assert res_sigma < 1e-12 and res_theta < 1e-12
    res_sigma, res_theta = _connection_form_residuals(model, PointAnalysis(wrong, point))
    assert res_sigma < 1e-12  # the base potential does not see the pitch
    assert res_theta > 1e-3
