import functools

import numpy as np
import pytest

from qchgeom import FubiniStudy, suite
from qchgeom.cli import RunConfig
from qchgeom.curvature import (
    PointAnalysis,
    batch_slices,
    complex_step,
    contract_slots,
    div_e,
    hessian_form,
    holomorphic_curvature_along,
    holomorphic_sectional_curvature,
    jacobi_operator,
    killing_deviation,
    max_frame_component_3tensor,
    nabla_j,
    riemann_along,
    second_bianchi_residual,
)
from qchgeom.geometry import (
    BaseChartMetric,
    WarpedBundleMetric,
)
from qchgeom.jets import compose, seed_chart, zeros
from qchgeom.profile import build_polynomial, solve_profile
from qchgeom.suite import sample_interior_points

from helpers import (
    EuclideanMetric,
    constant_vector_field,
    dgamma,
    fiber_field,
    jacobi_matrix,
    sectional_curvature,
    warp_derivatives,
)


class Rotationally2D:
    """Toy metric diag(1, r(t)^2) on coordinates (t, x), r = 2 + sin t."""

    dim = 2

    def metric_jets(self, coords):
        t = coords[..., 0]
        r = compose(t, 2.0 + np.sin(t.value), np.cos(t.value), -np.sin(t.value))
        g = zeros(coords.shape[:-1] + (2, 2), coords.dim)
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = r * r
        return g

    complex_structure_jets = None

    def frame_at(self, point, g):
        return None


def test_flat_christoffel_vanishes():
    an = PointAnalysis(EuclideanMetric(3), np.array([0.3, -1.0, 2.0]))
    assert np.abs(an.gamma).max() == 0.0
    assert np.abs(dgamma(an)).max() == 0.0


def test_flat_curvature_vanishes():
    R = PointAnalysis(EuclideanMetric(4), np.zeros(4)).riemann
    assert np.abs(R).max() == 0.0


def test_warped_2d_christoffel_closed_form():
    model = Rotationally2D()
    t = 0.7
    gamma = PointAnalysis(model, np.array([t, 0.4])).gamma
    r, rp = 2.0 + np.sin(t), np.cos(t)
    assert abs(gamma[0, 1, 1] + r * rp) < 1e-14      # Gamma^t_xx = -r r'
    assert abs(gamma[1, 0, 1] - rp / r) < 1e-14      # Gamma^x_tx = r'/r
    assert np.abs(gamma - gamma.transpose(0, 2, 1)).max() == 0.0


def test_christoffel_symmetry_on_total_space(warped_point_analysis):
    gamma = warped_point_analysis.gamma
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
        k = holomorphic_sectional_curvature(an.riemann, an.g, base.j0, X[None])[0]
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
        R = an.riemann
        scale = np.abs(R).max()
        assert np.abs(R + R.transpose(1, 0, 2, 3)).max() / scale < 1e-9
        assert np.abs(R + R.transpose(0, 1, 3, 2)).max() / scale < 1e-9
        assert np.abs(R - R.transpose(2, 3, 0, 1)).max() / scale < 1e-9
        b1 = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
        assert np.abs(b1).max() / scale < 1e-9


def test_kahler_type_curvature(warped_point_analysis):
    an = warped_point_analysis
    R = an.riemann
    J = an.complex_structure[0]
    rj = np.einsum("ai,bj,abkl->ijkl", J, J, R)
    assert np.abs(rj - R).max() / np.abs(R).max() < 1e-8


def test_degenerate_curvature_components(warped_point_analysis):
    # R(X, Y, Z, V) = 0 for X, Y, Z spanning D and V a unit E direction
    an = warped_point_analysis
    fr = an.frame
    R = an.riemann
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
    assert max_frame_component_3tensor(nabla_j(an), an.frame, an.g) < 1e-7
    an_p = PointAnalysis(perturbed, sample_point)
    assert max_frame_component_3tensor(nabla_j(an_p), an_p.frame, an_p.g) > 1e-3


def test_nabla_j_product_mode(product, profile):
    pt = np.array([0.45 * profile.L, 0.8, 0.25, -0.2, 0.1, 0.3])
    an = PointAnalysis(product, pt)
    assert max_frame_component_3tensor(nabla_j(an), an.frame, an.g) < 1e-7


def test_killing_deviation_fiber_field(warped, warped_point_analysis):
    an = warped_point_analysis
    dev = killing_deviation(an, fiber_field(warped, an.coords))
    assert np.abs(dev).max() < 1e-9


def test_killing_deviation_composite_field(warped, warped_point_analysis):
    # f JH rebuilt through the warp jets is the same Killing field
    an = warped_point_analysis
    _, f = warped.warp_jets(an.coords[..., 0])
    dev = killing_deviation(an, warped.section_jets(an.coords)[1] * f[..., None])
    fr = an.frame
    assert np.abs(fr @ dev @ fr.T).max() < 1e-7


def test_killing_deviation_axial_field_detects_expansion(warped, profile, sample_point):
    # L_H g = 2 r r' h on the base block and 2 f f' on the fiber block
    an = PointAnalysis(warped, sample_point)
    dev = killing_deviation(an, warped.section_jets(an.coords)[0])
    r, rp, _, _ = profile.evaluate(sample_point[0])
    f, fp, _ = warp_derivatives(profile, sample_point[0])
    z = seed_chart(sample_point)[2:]
    h_vals = warped.base.metric_jets(z).value
    sigma = warped.base.connection_potential_jets(z).value
    base_block = dev[2:, 2:] - (warped.s ** 2 * 2.0 * f * fp) * np.outer(sigma, sigma)
    assert np.allclose(base_block, 2.0 * r * rp * h_vals, atol=1e-12)
    assert abs(dev[1, 1] - 2.0 * f * fp) < 1e-12


def test_e_divergences(warped, warped_point_analysis, profile):
    an = warped_point_analysis
    e_frame = an.frame[2:]
    r, rp, _, _ = profile.evaluate(an.x[0])
    div_h = div_e(an, warped.section_jets(an.coords)[0], e_frame)
    assert abs(div_h - 2.0 * (warped.n - 1) * rp / r) < 1e-12
    assert abs(div_e(an, fiber_field(warped, an.coords), e_frame)) < 1e-12


def test_hessian_form_of_killing_potential(warped, warped_point_analysis, profile):
    an = warped_point_analysis
    hess = hessian_form(an, warped.potential_jets(an.coords))
    e_frame = an.frame[2:]
    hess_e = e_frame @ hess @ e_frame.T
    f = warp_derivatives(profile, an.x[0])[0]
    r, rp, _, _ = profile.evaluate(an.x[0])
    kappa = 2.0 * (warped.n - 1) * rp / r
    target = f * kappa / (2.0 * (warped.n - 1))
    assert np.abs(hess_e - target * np.eye(4)).max() < 1e-12
    # and the D block: Hess(tau)(H, H) = f'
    h_hat = an.frame[0]
    fp = warp_derivatives(profile, an.x[0])[1]
    assert abs(float(h_hat @ hess @ h_hat) - fp) < 1e-12


def test_sectional_degenerate_plane_rejected(warped_point_analysis):
    an = warped_point_analysis
    X = an.frame[0]
    with pytest.raises(ValueError, match="degenerate"):
        sectional_curvature(an.riemann, an.g, X, 2.0 * X)


def test_constant_vector_field_helper():
    x = constant_vector_field(seed_chart(np.array([0.5, 0.5])), [1.0, 2.0])
    assert x.value.tolist() == [1.0, 2.0]
    assert x.gradient.shape == (2, 2) and np.abs(x.gradient).max() == 0.0


@pytest.mark.parametrize("n", [3, 5, 7])
def test_jacobi_operator_matches_full_riemann(n):
    """K = R(v, ., v, .) from the metric jet equals the Jacobi matrix of the full
    Riemann tensor, at off-axis points, for non-unit v, one point or a batch."""
    s = 2.0 / n
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    model = WarpedBundleMetric(profile, FubiniStudy(n - 1, 4.0))
    rng = np.random.default_rng(70 + n)
    points = sample_interior_points(model, rng, 3)
    v = 2.5 * rng.standard_normal((3, model.dim))
    batched = jacobi_operator(PointAnalysis(model, points), v)
    for i, p in enumerate(points):
        an = PointAnalysis(model, p)
        frame = an.frame
        reference = jacobi_matrix(an.riemann, v[i], frame)
        K = jacobi_operator(an, v[i])
        scale = np.abs(reference).max()
        assert np.abs(frame @ K.T @ frame.T - reference).max() <= 1e-12 * scale
        assert np.abs(batched[i] - K).max() <= 1e-13 * scale


def test_jacobi_operator_vanishes_on_flat_space():
    field = EuclideanMetric(4)
    v = np.array([0.3, -1.2, 2.0, 0.5])
    assert not np.any(jacobi_operator(PointAnalysis(field, np.ones(4)), v))


def test_christoffel_symbols_alone(warped, sample_point):
    """``gamma`` needs no dGamma and no curvature: it is g^-1 times the
    first-kind symbols of ``connection``."""
    an = PointAnalysis(warped, sample_point)
    gamma = an.gamma
    assert "riemann" not in vars(an) and "ricci" not in vars(an)
    raised = np.einsum("kl,lij->kij", an.g_inv, an.connection)
    assert np.abs(gamma - raised).max() <= 1e-14 * np.abs(raised).max()


@pytest.mark.parametrize("mode,n", [(mode, n) for mode in ("warped", "product", "circle-bundle")
                                    for n in (3, 5, 7)] + [("negative-control", 3)])
def test_riemann_along_matches_the_contracted_tensor(mode, n):
    """R(X, Y, ., .) contracted straight from the metric jet equals the full
    tensor contracted with X and Y, at real points and at complex-step
    points, in the real part and in the imaginary part (the derivative the
    second Bianchi check reads), each within 1e-13 of its largest entry of R."""
    model = suite.build_model(RunConfig(mode=mode, n=n, k=1, rng_seed=0))
    rng = np.random.default_rng(80 + n)
    points = sample_interior_points(model, rng, 3)
    X, Y, V = rng.standard_normal((3,) + points.shape)
    for x in (points, complex_step(points, V)):
        an = PointAnalysis(model, x)
        got, reference = riemann_along(an, X, Y), contract_slots(an.riemann, X, Y, rank=4)
        for part in (np.real, np.imag):
            scale = np.abs(part(an.riemann)).max()
            assert np.abs(part(got) - part(reference)).max() <= 1e-13 * scale
        assert got.dtype == reference.dtype


def test_holomorphic_curvature_along_refuses_a_null_vector(warped_point_analysis):
    """The probe of ``coefficient_base_independence`` keeps the fit's guard:
    a vector of zero length raises rather than dividing by |X|^4 = 0."""
    an = warped_point_analysis
    e1 = an.frame[2]
    assert holomorphic_curvature_along(an, e1) == pytest.approx(
        holomorphic_sectional_curvature(an.riemann, an.g, an.complex_structure[0],
                                        e1[None, :])[0], rel=1e-13)
    with pytest.raises(ValueError, match="null vector"):
        holomorphic_curvature_along(an, np.zeros_like(e1))


def test_a_warped_run_builds_the_riemann_tensor_only_where_it_is_read_whole(monkeypatch):
    """A count, not a timing: a warped run builds R once per sample slice and
    once per slice's complex step along t, and never inside the base
    independence or the second Bianchi check, which read it along pairs of
    directions (``riemann_along``)."""
    builds, inside = [], []
    compute = PointAnalysis.riemann.func

    def counting(self):
        builds.append((self.x, tuple(inside)))
        return compute(self)

    riemann = functools.cached_property(counting)
    riemann.__set_name__(PointAnalysis, "riemann")
    monkeypatch.setattr(PointAnalysis, "riemann", riemann)
    for name in ("coefficient_base_independence", "second_bianchi_residual"):
        family = getattr(suite, name)

        def marked(*args, family=family, name=name, **kwargs):
            inside.append(name)
            try:
                return family(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(suite, name, marked)
    config = RunConfig(mode="warped", n=5, k=1, rng_seed=3, sample_count=30)
    suite.run_suite(config)
    assert all(not within for _, within in builds)
    # the run's sample points are the first draw of its seed
    points = sample_interior_points(suite.build_model(config), np.random.default_rng(3), 30)
    slices = [points[sl] for sl in batch_slices(30, 10 ** 4)]
    real = [x for x, _ in builds if not np.iscomplexobj(x)]
    stepped = [x for x, _ in builds if np.iscomplexobj(x)]
    assert len(real) == len(stepped) == len(slices) == 5
    for x, t_step, sample in zip(real, stepped, slices):
        assert np.array_equal(x, sample) and np.array_equal(t_step.real, sample)
        assert np.any(t_step.imag[:, 0]) and not np.any(t_step.imag[:, 1:])
