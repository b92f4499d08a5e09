import numpy as np
import pytest
from scipy import integrate

import qchgeom.curvature as curvature
import qchgeom.flows as flows
from qchgeom import (
    BundleParams,
    EuclideanMetric,
    FubiniStudy,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom.cli import main
from qchgeom.curvature import PointAnalysis, jacobi_operator
from qchgeom.flows import (
    FlowError,
    GeodesicState,
    coefficients_at,
    geodesic_acceleration,
    geodesic_residuals,
    integrate_geodesic,
    integrate_jacobi,
    jacobi_decay_experiment,
    jacobi_equation_residual,
    jacobi_matrix,
)
from qchgeom.geometry import BaseChartMetric
from qchgeom.jets import Jet2, compose


@pytest.fixture(scope="module")
def decay_report(warped):
    L = warped.profile.L
    return jacobi_decay_experiment(warped, 0.2 * L, L * (1.0 - 1e-3), samples=160)


def test_flat_geodesic_is_straight_line():
    field = EuclideanMetric(3)
    v = np.array([0.6, 0.8, 0.0])
    path = integrate_geodesic(field, GeodesicState(np.zeros(3), v), 2.5)
    for tau in (0.5, 1.7, 2.5):
        st = path.state(tau)
        assert np.abs(st.position - tau * v).max() < 1e-10
        assert abs(np.linalg.norm(st.velocity) - 1.0) < 1e-8


def test_axial_geodesic_stays_on_axis(warped, profile):
    t0 = 0.25 * profile.L
    x0 = np.array([t0, 0.7, 0.2, -0.1, 0.15, 0.05])
    v0 = np.zeros(6); v0[0] = 1.0
    span = 0.4 * profile.L
    path = integrate_geodesic(warped, GeodesicState(x0, v0), span)
    end = path.state(span)
    # metric components depend only on t, so the t-line is a unit geodesic
    assert abs(end.position[0] - (t0 + span)) < 1e-10
    assert np.abs(end.position[1:] - x0[1:]).max() < 1e-10
    g_end = PointAnalysis(warped, end.position).g
    assert abs(float(end.velocity @ g_end @ end.velocity) - 1.0) < 1e-8
    assert geodesic_residuals(path, [0.1 * span, 0.5 * span, 0.9 * span]) < 1e-8


def test_flat_jacobi_field_is_linear():
    field = EuclideanMetric(3)
    path = integrate_geodesic(field, GeodesicState(np.zeros(3),
                                                   np.array([1.0, 0.0, 0.0])), 2.0)
    C0 = np.array([0.0, 1.0, 0.0])
    DC0 = np.array([0.0, 0.0, 0.5])
    result = integrate_jacobi(path, C0, DC0, samples=40)
    for i, tau in enumerate(result.taus):
        expected = C0 + tau * DC0
        assert np.abs(result.y[i] @ result.frames[i] - expected).max() < 1e-9


def test_constant_curvature_jacobi_oscillates():
    # transverse Jacobi fields on the curvature-4 projective line scale like
    # cos(2 t) when started with vanishing covariant derivative
    bm = BaseChartMetric(FubiniStudy(1, 4.0))
    x0 = np.array([0.1, 0.05])
    an0 = PointAnalysis(bm, x0)
    v0 = np.array([1.0, 0.0]); v0 = v0 / np.sqrt(v0 @ an0.g @ v0)
    C0 = np.array([0.0, 1.0])
    C0 = C0 - (v0 @ an0.g @ C0) * v0
    C0 = C0 / np.sqrt(C0 @ an0.g @ C0)
    path = integrate_geodesic(bm, GeodesicState(x0, v0), 0.6)
    result = integrate_jacobi(path, C0, np.zeros(2), samples=30)
    for i, tau in enumerate(result.taus):
        assert abs(np.linalg.norm(result.y[i]) - abs(np.cos(2.0 * tau))) < 1e-6


def test_velocity_inner_product_conserved(warped, profile):
    # Killing-type initial data keeps g(c', C) at its initial value
    t0 = 0.3 * profile.L
    x0 = np.array([t0, 0.4, 0.1, 0.2, -0.1, 0.05])
    v0 = np.zeros(6); v0[0] = 1.0
    path = integrate_geodesic(warped, GeodesicState(x0, v0), 0.3 * profile.L)
    an0 = PointAnalysis(warped, x0)
    C0 = np.zeros(6); C0[1] = 1.0
    DC0 = an0.connection.gamma[:, 0, 1]
    result = integrate_jacobi(path, C0, DC0, samples=50)
    assert np.abs(result.velocity_inner).max() < 1e-8


def test_jacobi_equation_residual_on_solution(warped, profile):
    t0 = 0.3 * profile.L
    x0 = np.array([t0, 0.0, 0.0, 0.0, 0.0, 0.0])
    v0 = np.zeros(6); v0[0] = 1.0
    span = 0.3 * profile.L
    path = integrate_geodesic(warped, GeodesicState(x0, v0), span)
    an0 = PointAnalysis(warped, x0)
    C0 = np.zeros(6); C0[1] = 1.0
    DC0 = an0.connection.gamma[:, 0, 1]
    result = integrate_jacobi(path, C0, DC0, samples=50)
    taus = [0.2 * span, 0.5 * span, 0.8 * span]
    assert jacobi_equation_residual(result, taus) < 1e-7


def test_decay_norm_tracks_warp(decay_report, profile):
    assert decay_report.max_norm_deviation < 1e-6
    # and the tabulated f column really is the warp function
    t_col, _, f_col = decay_report.rows[:, 0], decay_report.rows[:, 1], decay_report.rows[:, 2]
    for t, f in zip(t_col[::40], f_col[::40]):
        assert abs(f - profile.warp(t)) < 1e-14


def test_decay_ratio_law(decay_report):
    assert decay_report.max_ratio_residual < 1e-6


def test_decay_collapse_factor(decay_report):
    assert decay_report.decay_factor < 1e-2


def test_decay_velocity_inner(decay_report):
    assert decay_report.max_velocity_inner < 1e-8


def test_decay_report_csv(tmp_path, decay_report):
    path = tmp_path / "decay.csv"
    decay_report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,C_norm,f,ratio_residual,g_cdot_C"
    assert len(lines) == 1 + decay_report.rows.shape[0]


def test_experiment_window_validation(warped, profile):
    with pytest.raises(ValueError, match="window"):
        jacobi_decay_experiment(warped, 0.2 * profile.L, 1.5 * profile.L)


def test_decay_report_counts_solver_work(decay_report):
    assert decay_report.geodesic_stats.nfev > decay_report.geodesic_stats.steps > 0
    assert decay_report.jacobi_stats.nfev > decay_report.jacobi_stats.steps > 0


def test_jacobi_equation_residual_on_desk_flow():
    """The warped n = 5 desk flow, integrated with the directional Jacobi
    operator, solves the Jacobi equation of the full Riemann tensor."""
    n, s = 5, 2.0 / 5
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    model = WarpedBundleMetric(BundleParams(n=n, c0=4.0, s=s, k=1, q=n, L=profile.L), profile)
    L = profile.L
    x0 = np.zeros(model.dim); x0[0] = 0.2 * L
    v0 = np.zeros(model.dim); v0[0] = 1.0
    span = L * (1.0 - 1e-3) - x0[0]
    path = integrate_geodesic(model, GeodesicState(x0, v0), span)
    C0 = np.zeros(model.dim); C0[1] = 1.0
    DC0 = PointAnalysis(model, x0).gamma[:, 0, 1]
    result = integrate_jacobi(path, C0, DC0, samples=160)
    assert jacobi_equation_residual(result, np.linspace(0.05, 0.95, 7) * span) < 1e-7


@pytest.mark.parametrize("x,y", [(0.1, 10.0), (1.0, 1.001)])
def test_decay_flow_work_stays_bounded_off_the_desk(x, y):
    """The suite's decay flow at these endpoints takes about the panels of
    the desk flow: the geodesic one panel of one Picard iteration, the Jacobi
    solve at most 24 panel trials (16 and 13 certified panels from 480 and
    384 exact evaluations), where it once took 49,766 right-hand sides and
    more."""
    n, s = 3, 2.0 / 3.0
    profile = solve_profile(build_polynomial(x, y, s))
    model = WarpedBundleMetric(BundleParams(n=n, c0=4.0, s=s, k=1, q=n, L=profile.L), profile)
    L = profile.L
    report = jacobi_decay_experiment(model, 0.2 * L, L * (1.0 - 1e-3), samples=160)
    assert report.geodesic_stats == flows.SolveStats(nfev=flows.PANEL_NODES, steps=1)
    assert report.jacobi_stats.steps <= report.jacobi_stats.nfev / flows.PANEL_NODES <= 24


def _fubini_study_ray(c0, span, direction):
    """(path, unit chart direction) of the radial Fubini-Study geodesic from
    the chart origin."""
    bm = BaseChartMetric(FubiniStudy(1, c0))
    g0 = PointAnalysis(bm, np.zeros(2)).g
    u = np.asarray(direction, dtype=float) / np.linalg.norm(direction)
    return integrate_geodesic(bm, GeodesicState(np.zeros(2), u / np.sqrt(u @ g0 @ u)), span), u


@pytest.mark.parametrize("c0,span,direction", [(4.0, 1.2, (1.0, 0.0)), (1.0, 2.5, (0.6, 0.8)),
                                               (9.0, 0.9, (1.0, 1.0))])
def test_radial_fubini_study_geodesic_matches_closed_form(c0, span, direction):
    """Radially the metric is h = (4/c0)/(1 + rho^2)^2, so the unit-speed ray
    from the origin is rho(tau) = tan(sqrt(c0) tau / 2): a curved geodesic,
    followed by Picard iteration out to rho = 2.6, 3.0 and 4.5."""
    path, u = _fubini_study_ray(c0, span, direction)
    taus = np.linspace(0.0, span, 101)
    x, v = path.states(taus)
    rho = np.tan(np.sqrt(c0) * taus / 2.0)
    speed = np.sqrt(c0) / 2.0 * (1.0 + rho ** 2)
    assert np.abs(x - rho[:, None] * u).max() <= 1e-13 * rho.max()
    assert np.abs(v - speed[:, None] * u).max() <= 1e-13 * speed.max()
    assert path.stats.steps > 1 and path.stats.nfev > path.stats.steps * flows.PANEL_NODES


@pytest.mark.parametrize("c0,span,direction,straight", [
    (4.0, 1.2, (1.0, 0.0), 4296), (1.0, 2.5, (0.6, 0.8), 4656), (9.0, 0.9, (1.0, 1.0), 6192)])
def test_curved_geodesic_panels_start_from_the_continuation(c0, span, direction, straight):
    """Each panel after the first starts its Picard iteration from the cubic
    Taylor continuation of the previous panel's end; started from the straight
    line the rays took ``straight`` exact evaluations."""
    path, _ = _fubini_study_ray(c0, span, direction)
    assert path.stats.nfev <= 0.7 * straight


def test_picard_cap_raises_flow_error(monkeypatch):
    """A curved geodesic needs more than one Picard iteration per panel."""
    monkeypatch.setattr(flows, "MAX_PICARD", 1)
    with pytest.raises(FlowError, match=r"^geodesic Picard iteration exceeds 1 iterations "
                                        r"on the panel at tau = 0$"):
        _fubini_study_ray(4.0, 1.2, (1.0, 0.0))


def test_geodesic_panel_cap_raises_flow_error(monkeypatch):
    monkeypatch.setattr(flows, "MAX_PANELS", 3)
    with pytest.raises(FlowError, match=r"^geodesic tables exceed 3 panels: no certified "
                                        r"Chebyshev interpolant near tau = 0\.\d+ of 1\.2$"):
        _fubini_study_ray(4.0, 1.2, (1.0, 0.0))


# -- the Jacobi flow on certified coefficient panels ------------------------------


def _desk_flow(n):
    """(path, C0, DC0) of the suite's decay flow on the warped desk at n."""
    s = 2.0 / n
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    model = WarpedBundleMetric(BundleParams(n=n, c0=4.0, s=s, k=1, q=n, L=profile.L), profile)
    L = profile.L
    x0 = np.zeros(model.dim); x0[0] = 0.2 * L
    v0 = np.zeros(model.dim); v0[0] = 1.0
    path = integrate_geodesic(model, GeodesicState(x0, v0), L * (1.0 - 1e-3) - x0[0])
    C0 = np.zeros(model.dim); C0[1] = 1.0
    return path, C0, PointAnalysis(model, x0).gamma[:, 0, 1]


def _reference_jacobi(path, C0, DC0, *, rtol, atol, samples=200):
    """The Jacobi solve with one exact analysis per stage of scipy's DOP853,
    as it was before the Chebyshev panels: (y, y') at ``samples`` equally
    spaced tau."""
    field = path.field
    d = path.positions.shape[1]
    start = path.state(0.0)
    analysis0 = PointAnalysis(field, start.position)
    frame0 = flows._initial_frame(analysis0, start.velocity)
    g0 = analysis0.g
    y0 = frame0 @ g0 @ np.asarray(C0, dtype=float)
    yp0 = frame0 @ g0 @ np.asarray(DC0, dtype=float)

    def rhs(tau, state):
        frame = state[:d * d].reshape(d, d)
        y = state[d * d:d * d + d]
        yp = state[d * d + d:]
        geo = path.state(tau)
        analysis = PointAnalysis(field, geo.position)
        v = geo.velocity
        dframe = -frame @ (v @ analysis.gamma).T
        ypp = frame @ (jacobi_operator(analysis, v).T @ (y @ frame))
        return np.concatenate([dframe.ravel(), yp, ypp])

    state0 = np.concatenate([frame0.ravel(), y0, yp0])
    sol = integrate.solve_ivp(rhs, (0.0, path.span), state0, method="DOP853",
                              rtol=rtol, atol=atol, dense_output=True)
    assert sol.success
    packed = sol.sol(np.linspace(0.0, path.span, samples)).T
    return packed[:, d * d:d * d + d], packed[:, d * d + d:]


@pytest.mark.parametrize("n", [3, 5])
def test_coefficient_panels_hold_off_the_nodes(n):
    """Midway between the nodes of every panel, the interpolated Gamma(., cdot)
    and K agree with exact evaluations within 1e-12 of the window's largest
    value of each."""
    path, C0, DC0 = _desk_flow(n)
    result = integrate_jacobi(path, C0, DC0)
    table = result.coefficients
    nodes = np.sort(flows._NODES)
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    a, b = table.edges[:-1, None], table.edges[1:, None]
    taus = (0.5 * (a + b) + 0.5 * (b - a) * mids).ravel()
    exact = coefficients_at(path, taus)
    interpolated = table(taus)
    scale = np.abs(table.values).max(axis=(0, 1, 3, 4))
    assert (np.abs(interpolated - exact).max(axis=(0, 2, 3)) <= 1e-12 * scale).all()
    assert table.edges[0] == 0.0 and table.edges[-1] == path.span
    assert result.stats == flows.SolveStats(result.stats.nfev, table.count)
    assert result.stats.nfev >= table.count * flows.PANEL_NODES


def test_certified_panel_tails_sit_near_roundoff():
    """Every certified panel of the n = 3 desk flow has a coefficient tail of
    at most 1e3 eps of the window's largest value of each table (Gamma(., cdot)
    and K; about 50 eps and 4 eps here).  The certificate accepts a tail up to
    its measured floor, so a floor lifted far above roundoff fails here."""
    path, C0, DC0 = _desk_flow(3)
    table = integrate_jacobi(path, C0, DC0).coefficients
    scale = np.abs(table.values).max(axis=(0, 1, 3, 4))
    tails = np.array([flows._certificate(panel)[1] for panel in table.values])
    assert tails.shape == (table.count, 2)
    assert (tails <= 1e3 * np.finfo(float).eps * scale).all(), tails / scale


def test_jacobi_flow_matches_the_per_stage_reference():
    """y and y' at the 200 samples of the n = 3 desk flow agree with scipy's
    DOP853 at rtol 3e-14, analysing every integrator stage exactly."""
    path, C0, DC0 = _desk_flow(3)
    result = integrate_jacobi(path, C0, DC0)
    y_ref, yp_ref = _reference_jacobi(path, C0, DC0, rtol=3e-14, atol=1e-16)
    for got, ref in ((result.y, y_ref), (result.yp, yp_ref)):
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(got - ref) <= 1e-9 * scale).all()


class _KinkedPlane(EuclideanMetric):
    """Flat R^2 but for g_11 = 1 + (x_0 - c)_+^2: the second derivative of g_11,
    and with it the Jacobi operator along e_0, jumps at x_0 = c."""

    def __init__(self, c):
        super().__init__(2)
        self.c = c

    def metric_jets(self, coords):
        u = coords[..., 0]
        s = np.maximum(u.value - self.c, 0.0)
        g = Jet2.constant(np.broadcast_to(np.eye(2), u.shape + (2, 2)), coords.dim)
        g[..., 1, 1] = g[..., 1, 1] + compose(u, s * s, 2.0 * s, 2.0 * (s > 0.0))
        return g


def test_coefficient_jump_is_never_certified():
    # c = 0.7 is no dyadic point of [0, 2], so no bisection lands on the jump
    field = _KinkedPlane(0.7)
    path = integrate_geodesic(field, GeodesicState(np.zeros(2), np.array([1.0, 0.0])), 2.0)
    with pytest.raises(FlowError, match=r"jacobi coefficient tables exceed 32 panels: "
                                        r"no certified Chebyshev interpolant near tau = 0\.7"):
        integrate_jacobi(path, np.array([0.0, 1.0]), np.zeros(2))


def test_panel_cap_ends_the_run_with_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(flows, "MAX_PANELS", 1)
    path, C0, DC0 = _desk_flow(3)
    with pytest.raises(FlowError, match="exceed 1 panels"):
        integrate_jacobi(path, C0, DC0)
    cfg = tmp_path / "config.json"
    cfg.write_text('{"mode": "warped", "rng_seed": 7, "k": 1, "sample_count": 10}')
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert "jacobi coefficient tables exceed 1 panels" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_jacobi_solve_analyses_a_fifth_of_its_stages_or_fewer(monkeypatch):
    """A count, not a timing: the n = 5 desk Jacobi solve builds fewer than
    nfev / 5 analyses (one per stage, 1,160, before the coefficient panels),
    and its nfev counts the points they analyse."""
    path, C0, DC0 = _desk_flow(5)
    built, analysed = [], []
    init = curvature.PointAnalysis.__init__

    def counting(self, field, x):
        built.append(1)
        analysed.append(self)
        init(self, field, x)

    monkeypatch.setattr(curvature.PointAnalysis, "__init__", counting)
    result = integrate_jacobi(path, C0, DC0, samples=160)
    assert 0 < len(built) < result.stats.nfev / 5
    # every exact evaluation is one analysed point (plus the start's frame),
    # and the panel march wastes fewer than the bisection's 552
    assert sum(np.size(a.x[..., 0]) for a in analysed) == result.stats.nfev + 1
    assert result.stats.nfev < 552


def test_decay_report_counts_coefficient_work(decay_report):
    panels, evaluations = decay_report.jacobi_stats.steps, decay_report.jacobi_stats.nfev
    assert 0 < panels <= flows.MAX_PANELS
    assert evaluations >= panels * flows.PANEL_NODES


def _loop_rows(model, jac, t0):
    """The decay table row by row, as it was computed before vectorising."""
    profile = model.profile
    n = model.params.n
    rows = np.empty((len(jac.taus), 5))
    for i, tau in enumerate(jac.taus):
        t = t0 + tau
        r, rp, rpp, rppp = profile.evaluate(t)
        f = profile.warp_from(r, rp, rpp, rppp)[0]
        y, yp = jac.y[i], jac.yp[i]
        norm = float(np.linalg.norm(y))
        dlog_c = float(y @ yp) / float(y @ y)
        dlog_kappa = rpp / rp - rp / r
        theta_cdot = float(jac.path.state(tau).velocity[0])
        kappa = 2.0 * (n - 1) * rp / r
        ratio_res = abs(dlog_kappa - dlog_c + kappa * theta_cdot / (n - 1))
        rows[i] = (t, norm, f, ratio_res, jac.velocity_inner[i])
    return rows


def test_decay_rows_match_the_row_loop(warped, profile, monkeypatch):
    captured = []

    def capture(*args, **kwargs):
        captured.append(integrate_jacobi(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(flows, "integrate_jacobi", capture)
    t0 = 0.2 * profile.L
    report = jacobi_decay_experiment(warped, t0, profile.L * (1.0 - 1e-3), samples=160)
    assert np.array_equal(report.rows, _loop_rows(warped, captured[0], t0))


def test_batched_residuals_match_point_loops():
    """One analysis over all tau gives the residuals of one analysis per tau,
    each with the derivative of the panels' interpolant taken at its tau."""
    bm = BaseChartMetric(FubiniStudy(1, 4.0))
    x0 = np.array([0.1, 0.05])
    g0 = PointAnalysis(bm, x0).g
    v0 = np.array([0.6, 0.8]); v0 = v0 / np.sqrt(v0 @ g0 @ v0)
    path = integrate_geodesic(bm, GeodesicState(x0, v0), 0.6)
    result = integrate_jacobi(path, np.array([0.3, -0.2]), np.array([0.1, 0.4]), samples=30)
    taus, d = np.array([0.1, 0.25, 0.4, 0.5]), 2

    geodesic_ref, jacobi_ref = [], []
    for tau in taus:
        s0 = path.state(tau)
        an = PointAnalysis(bm, s0.position)
        res = path.dense.derivative()(tau)[d:] - geodesic_acceleration(an.gamma, s0.velocity)
        geodesic_ref.append(np.sqrt(res @ an.g @ res))
        state = result.dense(tau)
        ypp = result.dense.derivative()(tau)[d * d + d:]
        M = jacobi_matrix(an.riemann.components, s0.velocity, state[:d * d].reshape(d, d))
        jacobi_ref.append(np.abs(ypp - M @ state[d * d:d * d + d]).max())
    assert geodesic_residuals(path, taus) == pytest.approx(max(geodesic_ref), rel=1e-6, abs=1e-13)
    assert jacobi_equation_residual(result, taus) == pytest.approx(max(jacobi_ref), rel=1e-6,
                                                                   abs=1e-13)


def test_panel_derivative_is_exact_for_the_interpolant():
    """``Panels.derivative`` of sin and of a cubic (which the nodes
    interpolate exactly) on three panels of different lengths, within 1e-10:
    the rounding of the differentiation matrix, about p^2 eps per unit of
    half-length, is 1.2e-12 on the shortest panel here."""
    edges = np.array([0.0, 0.3, 1.1, 2.0])
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * flows._NODES
    taus = np.linspace(0.0, 2.0, 41)
    waves = flows.Panels(edges, np.sin(nodes)).derivative()
    assert np.abs(waves(taus) - np.cos(taus)).max() < 1e-10
    cubic = flows.Panels(edges, np.stack([nodes ** 3, 2.0 - nodes], axis=-1)).derivative()
    expect = np.stack([3.0 * taus ** 2, -np.ones_like(taus)], axis=-1)
    assert np.abs(cubic(taus) - expect).max() < 1e-10
