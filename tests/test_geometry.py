import numpy as np
import pytest

from qchgeom import (
    CircleBundleMetric,
    FubiniStudy,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom import geometry
from qchgeom.cli import RunConfig
from qchgeom.curvature import PointAnalysis, batch_slices
from qchgeom.geometry import exterior_derivative_1form
from qchgeom.jets import seed_chart
from qchgeom.profile import ProfileSolution
from qchgeom.suite import (
    SAMPLE_MARGIN,
    Z_RADIUS,
    build_model,
    run_suite,
    sample_interior_points,
)

from helpers import warp_derivatives


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
        omega = base.j0.T @ base.metric_jets(zj).value
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
    omega = base.j0.T @ base.metric_jets(seed_chart(z)).value
    dtheta = exterior_derivative_1form(theta)
    # pulled back, d theta sees only the z block
    assert np.abs(dtheta[1:, 1:] - s * omega).max() < 1e-8
    assert np.abs(dtheta[0, :]).max() < 1e-15


def test_metric_sample_block_structure(warped, profile, sample_point):
    an = PointAnalysis(warped, sample_point)
    g = an.g
    f = warp_derivatives(profile, sample_point[0])[0]
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
    points = sample_interior_points(warped, rng, 100)
    for pt in points:
        an = PointAnalysis(warped, pt)
        g = an.g
        J = an.complex_structure[0]
        np.linalg.cholesky(g)
        assert np.abs(J @ J + np.eye(6)).max() < 1e-12
        assert np.abs(J.T @ g @ J - g).max() < 1e-10
        fr = an.frame
        assert np.abs(fr @ g @ fr.T - np.eye(6)).max() < 1e-10
        # H = d/dt and JH = xi/f for the coordinate field xi = d/dpsi, so
        # theta(xi) = 1 exactly and g(H, xi) is the entry g_{t psi}
        assert np.array_equal(fr[0], np.eye(6)[0])
        assert np.array_equal(np.flatnonzero(fr[1]), [1])
        assert abs(g[0, 1]) < 1e-12


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


@pytest.mark.parametrize("mode", ["warped", "product", "circle-bundle", "negative-control"])
def test_sample_points_stay_inside_the_sampling_region(mode):
    """Every sampled row has t in [SAMPLE_MARGIN L, (1 - SAMPLE_MARGIN) L]
    (where the chart has t) and |z| <= Z_RADIUS, the region the checks'
    tolerances are set for."""
    model = build_model(RunConfig(mode=mode, n=3, k=1, rng_seed=3))
    points = sample_interior_points(model, np.random.default_rng(3), 200)
    z = points[:, model.dim - model.base.dim:]
    assert np.linalg.norm(z, axis=-1).max() <= Z_RADIUS
    if mode != "circle-bundle":
        t, L = points[:, 0], model.profile.L
        assert t.min() >= SAMPLE_MARGIN * L and t.max() <= (1.0 - SAMPLE_MARGIN) * L


def test_circle_bundle_sample():
    cb = CircleBundleMetric(1.3, 0.8, 0.5, FubiniStudy(2, 4.0))
    an = PointAnalysis(cb, np.array([0.1, 0.2, -0.1, 0.3, 0.0]))
    g = an.g
    assert abs(g[0, 0] - 1.3 ** 2) < 1e-15
    assert an.complex_structure is None
    fr = an.frame
    assert np.abs(fr @ g @ fr.T - np.eye(5)).max() < 1e-10
    assert np.array_equal(np.flatnonzero(fr[0]), [0])  # xi/alpha, xi = d/dpsi
    assert fr[0, 0] == 1.0 / 1.3


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
    rho = an.frame @ an.ricci @ an.frame.T
    mu0 = np.trace(rho) / 4.0
    assert np.abs(rho - mu0 * np.eye(4)).max() < 1e-12  # Einstein
    # holomorphic curvature spreads over [c0/2, c0] on mixed directions
    g = an.g
    e1 = np.array([1.0, 0, 0, 0]); e1 /= np.sqrt(e1 @ g @ e1)
    e2 = np.array([0, 0, 1.0, 0]); e2 /= np.sqrt(e2 @ g @ e2)
    mix = (e1 + e2) / np.sqrt((e1 + e2) @ g @ (e1 + e2))
    k_pure, k_mix = holomorphic_sectional_curvature(an.riemann, g, base.j0, np.stack([e1, mix]))
    assert abs(k_pure - k_mix) > 0.5


def test_bundle_params_validation(profile):
    """The base and the profile fix the model: n = m + 1 >= 3, c0 is the
    base's and s the profile's (0 in product mode)."""
    with pytest.raises(ValueError, match="n >= 3"):
        WarpedBundleMetric(profile, FubiniStudy(1, 4.0))
    with pytest.raises(ValueError, match="must be positive"):
        FubiniStudy(2, 0.0)
    model = WarpedBundleMetric(profile, FubiniStudy(2, 4.0))
    assert (model.n, model.base.c0, model.s) == (3, 4.0, profile.s)
    assert WarpedBundleMetric(profile, FubiniStudy(2, 4.0), product_mode=True).s == 0.0


@pytest.mark.parametrize("chart", ["warped", "circle-bundle"])
def test_theta_derivative_detects_wrong_cross_term_pitch(warped, circle_bundle,
                                                         profile, chart):
    """theta is read off the assembled metric, so a metric whose cross terms
    carry another pitch than the model's s fails d theta = s Omega."""
    from qchgeom.suite import _connection_form_residuals

    z = np.array([0.3, -0.2, 0.1, 0.25])
    if chart == "warped":
        model = warped
        poly = profile.polynomial
        wrong = WarpedBundleMetric(
            solve_profile(build_polynomial(poly.x, poly.y, 1.1 * profile.s)), warped.base)
        point = np.array([0.4 * profile.L, 0.5, *z])
    else:
        model = circle_bundle
        wrong = CircleBundleMetric(model.alpha, model.beta, 1.1 * model.s, model.base)
        point = np.array([0.5, *z])
    res_sigma, res_theta = _connection_form_residuals(model, PointAnalysis(model, point))
    assert res_sigma < 1e-12 and res_theta < 1e-12
    res_sigma, res_theta = _connection_form_residuals(model, PointAnalysis(wrong, point))
    assert res_sigma < 1e-12  # the base potential does not see the pitch
    assert res_theta > 1e-3


def test_profile_evaluated_once_per_t_batch(monkeypatch):
    """A 10-point n = 7 ``perturb_f`` 1.05 run evaluates the warp profile once
    per distinct t batch (real or complex), up to a slack of 3: the metric,
    J, the frame, the fields and the checks at a batch share the model's
    memo.  The run reads 17 batches: 5 sample slices of 2 points, their 5
    complex steps, the base moves in 3 slices, the Bianchi points in 1 and
    3 single points (29 when a sample slice held 1 point).  Evaluated afresh
    for each of them, the run made 259 evaluations of 29 batches."""
    calls, batches = [], set()
    evaluate = ProfileSolution.evaluate

    def counted(self, t):
        a = np.asarray(t)
        calls.append(1)
        batches.add((a.dtype.str, a.shape, a.tobytes()))
        return evaluate(self, t)

    monkeypatch.setattr(ProfileSolution, "evaluate", counted)
    run_suite(RunConfig.from_dict({"mode": "warped", "n": 7, "k": 1, "perturb_f": 1.05,
                                   "sample_count": 10, "rng_seed": 42}))
    assert len(batches) >= 17
    assert len(calls) <= len(batches) + 3


def _base_builds(monkeypatch, config: dict) -> tuple[int, int]:
    """(builds of the z-only parts, distinct z batches built) in one run."""
    calls, batches = [], set()
    base_parts = geometry._base_parts

    def counted(base, z, d, s):
        calls.append(1)
        batches.add((z.dtype.str, z.shape, z.tobytes()))
        return base_parts(base, z, d, s)

    monkeypatch.setattr(geometry, "_base_parts", counted)
    run_suite(RunConfig.from_dict(config))
    return len(calls), len(batches)


def test_base_built_once_per_z_batch(monkeypatch):
    """The same run builds the z-only parts of the warped metric once per
    distinct z batch: the suite finishes each sample slice before the next,
    so the base memo, which holds the last real and the last complex batch,
    never sees a batch again once it has moved on.  At d = 14 that is 9
    batches: 5 sample slices of two points (their complex step along t
    shares the real entry), the 20 base moves in 3 directional slices of
    7, 7 and 6 and the 6 complex Bianchi points in 1 (16 batches when a
    sample slice held one point and a Bianchi slice 3).  With each family
    walking every slice in turn and a memo of 16 points, the run made 43
    builds of 36 batches; with the moves and the Bianchi points one per
    analysis, 36 of 36."""
    builds, batches = _base_builds(monkeypatch, {"mode": "warped", "n": 7, "k": 1,
                                                 "perturb_f": 1.05, "sample_count": 10,
                                                 "rng_seed": 42})
    assert batches == 9
    assert builds == batches


def test_decay_flow_builds_each_z_batch_once(monkeypatch):
    """The warped n = 5 run at 10 points, decay flow included, builds the
    z-only parts once per distinct z batch: 2 sample slices, the 20 base
    moves in 1 directional slice (2 when a slice held 16), the Bianchi
    points in 1, and the flow's 3 batches at z = 0 (its 24-node panels,
    its start point and the 7 points of its geodesic residual).
    The flow reads its start point between the geodesic's node batches and
    the Jacobi coefficients' batches of the same z; when a single point
    evicted the batch, the run made 11 builds of 10 batches (the moves then
    took 4 slices)."""
    builds, batches = _base_builds(monkeypatch, {"mode": "warped", "n": 5, "k": 1,
                                                 "sample_count": 10, "rng_seed": 42})
    assert batches == 7
    assert builds == batches


@pytest.mark.parametrize("batched", [True, False])
def test_one_control_scale_reaches_frame_sections_and_metric(profile, batched):
    """warp_scale 1.05 is read once (``warps``), and every reader of f sees
    the same scaled f: the frame's JH row is the section JH, its psi entry is
    J's (psi, t) entry, g(JH, JH) = 1, and f = 1.05 * 2 r r'/s.  A site that
    dropped or doubled the scale would break one of these."""
    model = WarpedBundleMetric(profile, FubiniStudy(2, 4.0), warp_scale=1.05)
    points = sample_interior_points(model, np.random.default_rng(17), 5)
    x = points if batched else points[0]
    coords = seed_chart(x)
    g = model.metric_jets(coords).value
    jh_row = model.frame_at(x, g)[..., 1, :]
    assert np.array_equal(jh_row, model.section_jets(coords)[1].value)
    assert np.array_equal(model.complex_structure_jets(coords).value[..., 1, 0],
                          jh_row[..., 1])
    assert np.abs(np.einsum("...i,...ij,...j->...", jh_row, g, jh_row) - 1.0).max() < 1e-14
    r, rp, _, _ = profile.evaluate(x[..., 0])
    f = model.warps(x[..., 0])[1][0]
    assert np.allclose(f, 1.05 * 2.0 * r * rp / profile.s, rtol=1e-15, atol=0.0)


def test_sections_built_four_times_per_slice(monkeypatch):
    """The n = 3 warped run at 10 points builds the pair (H, JH) four times
    per sample slice: the divergences of H and of the rotated section, the
    covariant derivatives of the structure identities, and the divergences at
    the complex step of the gradient laws.  Built once per section, the run
    made 8."""
    calls = []
    section_jets = WarpedBundleMetric.section_jets

    def counted(self, coords):
        calls.append(1)
        return section_jets(self, coords)

    monkeypatch.setattr(WarpedBundleMetric, "section_jets", counted)
    config = RunConfig.from_dict({"mode": "warped", "n": 3, "k": 1, "sample_count": 10,
                                  "rng_seed": 42})
    run_suite(config)
    assert len(calls) == 4 * len(batch_slices(10, build_model(config).dim ** 4))
