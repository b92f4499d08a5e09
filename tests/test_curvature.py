import numpy as np
import pytest

from qchgeom import EuclideanMetric, FubiniStudy
from qchgeom.curvature import (
    PointAnalysis,
    div_e,
    hessian_form,
    holomorphic_sectional_curvature,
    jacobi_operator,
    killing_deviation,
    max_frame_component_3tensor,
    nabla_j,
    second_bianchi_residual,
)
from qchgeom.flows import jacobi_matrix
from qchgeom.geometry import (
    BaseChartMetric,
    BundleParams,
    WarpedBundleMetric,
)
from qchgeom.jets import Jet2, compose
from qchgeom.profile import build_polynomial, solve_profile
from qchgeom.suite import sample_interior_points

from helpers import (
    constant_vector_field,
    fiber_field,
    sectional_curvature,
    variable,
    warp_derivatives,
)


class Rotationally2D:
    """Toy metric diag(1, r(t)^2) on coordinates (t, x), r = 2 + sin t."""

    dim = 2

    def metric_jets(self, coords):
        t = coords[0]
        r = compose(t, 2.0 + np.sin(t.value), np.cos(t.value), -np.sin(t.value))
        dj = t.dim
        zero = Jet2.constant(0.0, dj)
        return [[Jet2.constant(1.0, dj), zero], [zero, r * r]]

    complex_structure_jets = None

    def frame_at(self, point, g):
        return None


def test_flat_christoffel_vanishes():
    conn = PointAnalysis(EuclideanMetric(3), np.array([0.3, -1.0, 2.0])).connection
    assert np.abs(conn.gamma).max() == 0.0
    assert np.abs(conn.dgamma).max() == 0.0


def test_flat_curvature_vanishes():
    R = PointAnalysis(EuclideanMetric(4), np.zeros(4)).riemann
    assert np.abs(R.components).max() == 0.0


def test_warped_2d_christoffel_closed_form():
    model = Rotationally2D()
    t = 0.7
    conn = PointAnalysis(model, np.array([t, 0.4])).connection
    r, rp = 2.0 + np.sin(t), np.cos(t)
    assert abs(conn.gamma[0, 1, 1] + r * rp) < 1e-14      # Gamma^t_xx = -r r'
    assert abs(conn.gamma[1, 0, 1] - rp / r) < 1e-14      # Gamma^x_tx = r'/r
    assert np.abs(conn.gamma - conn.gamma.transpose(0, 2, 1)).max() == 0.0


def test_christoffel_symmetry_on_total_space(warped_point_analysis):
    gamma = warped_point_analysis.connection.gamma
    assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() == 0.0


def test_fubini_study_gaussian_curvature():
    """The normalization gate for the base model: at curvature 4 and m = 1 the
    chart metric must reproduce Gaussian curvature 4 everywhere (this is the
    oracle pinning the potential scaling)."""
    rng = np.random.default_rng(2)
    bm = BaseChartMetric(FubiniStudy(1, 4.0))
    for _ in range(8):
        z = rng.uniform(-1.2, 1.2, 2)
        an = PointAnalysis(bm, z)
        k = sectional_curvature(an.riemann, an.g, np.array([1.0, 0.0]),
                                np.array([0.0, 1.0]))
        assert abs(k - 4.0) < 1e-12


@pytest.mark.parametrize("c0", [4.0, 2.5])
def test_fubini_study_holomorphic_curvature_constant(c0):
    rng = np.random.default_rng(4)
    base = FubiniStudy(2, c0)
    bm = BaseChartMetric(base)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, 4)
        an = PointAnalysis(bm, z)
        X = rng.standard_normal(4)
        k = holomorphic_sectional_curvature(an.riemann, an.g, base.j0, X)
        assert abs(k - c0) < 1e-8


def test_fubini_study_totally_real_planes():
    # constant holomorphic curvature c0 forces K = c0/4 on totally real planes
    rng = np.random.default_rng(6)
    base = FubiniStudy(2, 4.0)
    bm = BaseChartMetric(base)
    for _ in range(10):
        z = rng.uniform(-0.9, 0.9, 4)
        an = PointAnalysis(bm, z)
        X = rng.standard_normal(4)
        X /= np.sqrt(X @ an.g @ X)
        Y = rng.standard_normal(4)
        for v in (X, base.j0 @ X):
            Y -= (v @ an.g @ Y) * v
        Y /= np.sqrt(Y @ an.g @ Y)
        assert abs(sectional_curvature(an.riemann, an.g, X, Y) - 1.0) < 1e-8


def test_curvature_symmetries(warped_analyses):
    for an in warped_analyses[:5]:
        R = an.riemann.components
        scale = np.abs(R).max()
        assert np.abs(R + R.transpose(1, 0, 2, 3)).max() / scale < 1e-9
        assert np.abs(R + R.transpose(0, 1, 3, 2)).max() / scale < 1e-9
        assert np.abs(R - R.transpose(2, 3, 0, 1)).max() / scale < 1e-9
        b1 = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        assert np.abs(b1).max() / scale < 1e-9


def test_kahler_type_curvature(warped_point_analysis):
    an = warped_point_analysis
    R = an.riemann.components
    J = an.complex_structure[0]
    rj = np.einsum("ai,bj,abkl->ijkl", J, J, R)
    assert np.abs(rj - R).max() / np.abs(R).max() < 1e-8


def test_degenerate_curvature_components(warped_point_analysis):
    # R(X, Y, Z, V) = 0 for X, Y, Z spanning D and V a unit E direction
    an = warped_point_analysis
    fr = an.frame.vectors
    R = an.riemann.components
    d_pair = fr[:2]
    vals = np.einsum("ijkl,ai,bj,ck,dl->abcd", R, d_pair, d_pair, d_pair, fr[2:])
    assert np.abs(vals).max() < 1e-12


def test_second_bianchi_spot(warped, sample_point):
    rng = np.random.default_rng(8)
    dirs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, 6))]
    assert second_bianchi_residual(warped, sample_point, dirs) < 1e-6


def test_ricci_properties(warped_analyses):
    for an in warped_analyses[:5]:
        rho = an.ricci
        assert np.abs(rho - rho.T).max() < 1e-9
        J = an.complex_structure[0]
        assert np.abs(J.T @ rho @ J - rho).max() < 1e-8


def test_nabla_j_kahler_vs_perturbed(warped, perturbed, sample_point):
    an = PointAnalysis(warped, sample_point)
    assert max_frame_component_3tensor(nabla_j(an), an.frame.vectors, an.g) < 1e-7
    an_p = PointAnalysis(perturbed, sample_point)
    assert max_frame_component_3tensor(nabla_j(an_p), an_p.frame.vectors, an_p.g) > 1e-3


def test_nabla_j_product_mode(product, profile):
    pt = np.array([0.45 * profile.L, 0.8, 0.25, -0.2, 0.1, 0.3])
    an = PointAnalysis(product, pt)
    assert max_frame_component_3tensor(nabla_j(an), an.frame.vectors, an.g) < 1e-7


def test_killing_deviation_fiber_field(warped, warped_point_analysis):
    dev = killing_deviation(warped_point_analysis, fiber_field(warped))
    assert np.abs(dev).max() < 1e-9


def test_killing_deviation_composite_field(warped, warped_point_analysis):
    # f JH rebuilt through the warp jets is the same Killing field
    def field(coords):
        _, f = warped.warp_jets(coords[0])
        out = warped.jh_field()(coords)
        return [f * c for c in out]

    dev = killing_deviation(warped_point_analysis, field)
    fr = warped_point_analysis.frame.vectors
    assert np.abs(fr @ dev @ fr.T).max() < 1e-7


def test_killing_deviation_axial_field_detects_expansion(warped, profile, sample_point):
    # L_H g = 2 r r' h on the base block and 2 f f' on the fiber block
    an = PointAnalysis(warped, sample_point)
    dev = killing_deviation(an, warped.h_field())
    r, rp, _, _ = profile.evaluate(sample_point[0])
    f, fp, _ = warp_derivatives(profile, sample_point[0])
    from qchgeom.jets import seed_chart

    h = warped.base.metric_jets(seed_chart(sample_point)[2:])
    h_vals = np.array([[j.value for j in row] for row in h])
    base_block = dev[2:, 2:] - (warped.s ** 2 * 2.0 * f * fp) * np.outer(
        [sj.value for sj in warped.base.connection_potential_jets(
            seed_chart(sample_point)[2:])],
        [sj.value for sj in warped.base.connection_potential_jets(
            seed_chart(sample_point)[2:])])
    assert np.allclose(base_block, 2.0 * r * rp * h_vals, atol=1e-12)
    assert abs(dev[1, 1] - 2.0 * f * fp) < 1e-12


def test_e_divergences(warped, warped_point_analysis, profile, params):
    an = warped_point_analysis
    e_frame = an.frame.horizontal
    r, rp, _, _ = profile.evaluate(an.x[0])
    div_h = div_e(an, warped.h_field(), e_frame)
    assert abs(div_h - 2.0 * (params.n - 1) * rp / r) < 1e-12
    assert abs(div_e(an, fiber_field(warped), e_frame)) < 1e-12


def test_hessian_form_of_killing_potential(warped, warped_point_analysis, profile, params):
    an = warped_point_analysis
    hess = hessian_form(an, warped.potential_field())
    e_frame = an.frame.horizontal
    hess_e = e_frame @ hess @ e_frame.T
    f = profile.warp(an.x[0])
    r, rp, _, _ = profile.evaluate(an.x[0])
    kappa = 2.0 * (params.n - 1) * rp / r
    target = f * kappa / (2.0 * (params.n - 1))
    assert np.abs(hess_e - target * np.eye(4)).max() < 1e-12
    # and the D block: Hess(tau)(H, H) = f'
    h_hat = an.frame.vectors[0]
    fp = warp_derivatives(profile, an.x[0])[1]
    assert abs(float(h_hat @ hess @ h_hat) - fp) < 1e-12


def test_sectional_degenerate_plane_rejected(warped_point_analysis):
    an = warped_point_analysis
    X = an.frame.vectors[0]
    with pytest.raises(ValueError, match="degenerate"):
        sectional_curvature(an.riemann, an.g, X, 2.0 * X)


def test_constant_vector_field_helper():
    field = constant_vector_field([1.0, 2.0])
    coords = [variable(i, 0.5, 2) for i in range(2)]
    vals = field(coords)
    assert vals[0].value == 1.0 and vals[1].value == 2.0
    assert np.abs(vals[0].gradient).max() == 0.0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_jacobi_operator_matches_full_riemann(n):
    """K = R(v, ., v, .) from the metric jet equals the Jacobi matrix of the full
    Riemann tensor, at off-axis points, for non-unit v, one point or a batch."""
    s = 2.0 / n
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    model = WarpedBundleMetric(BundleParams(n=n, c0=4.0, s=s, L=profile.L), profile)
    rng = np.random.default_rng(70 + n)
    points = sample_interior_points(model, rng, 3, 0.05, 1.5)
    v = 2.5 * rng.standard_normal((3, model.dim))
    batched = jacobi_operator(PointAnalysis(model, points), v)
    for i, p in enumerate(points):
        an = PointAnalysis(model, p)
        frame = an.frame.vectors
        reference = jacobi_matrix(an.riemann.components, v[i], frame)
        K = jacobi_operator(an, v[i])
        scale = np.abs(reference).max()
        assert np.abs(frame @ K.T @ frame.T - reference).max() <= 1e-12 * scale
        assert np.abs(batched[i] - K).max() <= 1e-13 * scale


def test_jacobi_operator_vanishes_on_flat_space():
    field = EuclideanMetric(4)
    v = np.array([0.3, -1.2, 2.0, 0.5])
    assert not np.any(jacobi_operator(PointAnalysis(field, np.ones(4)), v))


def test_christoffel_symbols_alone(warped, sample_point):
    """``gamma`` needs no dGamma, and is the connection's gamma bit for bit."""
    an = PointAnalysis(warped, sample_point)
    gamma = an.gamma
    assert "connection" not in vars(an)
    assert np.array_equal(gamma, PointAnalysis(warped, sample_point).connection.gamma)
