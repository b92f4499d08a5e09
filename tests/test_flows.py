import tracemalloc
from functools import cached_property

import numpy as np
import pytest
from scipy import integrate

import qchgeom.curvature as curvature
import qchgeom.flows as flows
from qchgeom import (
    FubiniStudy,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom.batch import matvec, mT
from qchgeom.cli import main
from qchgeom.curvature import PointAnalysis, jacobi_operator
from qchgeom.flows import (
    FlowError,
    coefficients_at,
    geodesic_acceleration,
    geodesic_residuals,
    integrate_geodesic,
    integrate_jacobi,
    jacobi_decay_experiment,
    jacobi_equation_residual,
)
from qchgeom.geometry import BaseChartMetric, BundleJet
from qchgeom.jets import Jet2, compose

from helpers import (
    EuclideanMetric,
    gathered_panels,
    jacobi_matrix,
    jacobi_states,
    warp_derivatives,
)


@pytest.fixture(scope="module")
def decay_report(warped):
    L = warped.profile.L
    return jacobi_decay_experiment(warped, 0.2 * L, L * (1.0 - 1e-3), samples=160)


def test_flat_geodesic_is_straight_line():
    field = EuclideanMetric(3)
    v = np.array([0.6, 0.8, 0.0])
    path = integrate_geodesic(field, np.zeros(3), v, 2.5)
    for tau in (0.5, 1.7, 2.5):
        x, vt = path.states(tau)
        assert np.abs(x - tau * v).max() < 1e-10
        assert abs(np.linalg.norm(vt) - 1.0) < 1e-8


def test_axial_geodesic_stays_on_axis(warped, profile):
    t0 = 0.25 * profile.L
    x0 = np.array([t0, 0.7, 0.2, -0.1, 0.15, 0.05])
    v0 = np.zeros(6); v0[0] = 1.0
    span = 0.4 * profile.L
    path = integrate_geodesic(warped, x0, v0, span)
    x_end, v_end = path.states(span)
    # metric components depend only on t, so the t-line is a unit geodesic
    assert abs(x_end[0] - (t0 + span)) < 1e-10
    assert np.abs(x_end[1:] - x0[1:]).max() < 1e-10
    g_end = PointAnalysis(warped, x_end).g
    assert abs(float(v_end @ g_end @ v_end) - 1.0) < 1e-8
    assert geodesic_residuals(path, [0.1 * span, 0.5 * span, 0.9 * span]).max() < 1e-8


def test_flat_jacobi_field_is_linear():
    field = EuclideanMetric(3)
    path = integrate_geodesic(field, np.zeros(3), np.array([1.0, 0.0, 0.0]), 2.0)
    C0 = np.array([0.0, 1.0, 0.0])
    DC0 = np.array([0.0, 0.0, 0.5])
    result = integrate_jacobi(path, C0, DC0)
    taus = np.linspace(0.0, 2.0, 40)
    frames, y, _ = jacobi_states(result, taus)
    for i, tau in enumerate(taus):
        expected = C0 + tau * DC0
        assert np.abs(y[i] @ frames[i] - expected).max() < 1e-9


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
    path = integrate_geodesic(bm, x0, v0, 0.6)
    result = integrate_jacobi(path, C0, np.zeros(2))
    taus = np.linspace(0.0, 0.6, 30)
    y = jacobi_states(result, taus)[1]
    for i, tau in enumerate(taus):
        assert abs(np.linalg.norm(y[i]) - abs(np.cos(2.0 * tau))) < 1e-6


def test_velocity_inner_product_conserved(warped, profile):
    # Killing-type initial data keeps g(c', C) at its initial value
    t0 = 0.3 * profile.L
    x0 = np.array([t0, 0.4, 0.1, 0.2, -0.1, 0.05])
    v0 = np.zeros(6); v0[0] = 1.0
    path = integrate_geodesic(warped, x0, v0, 0.3 * profile.L)
    an0 = PointAnalysis(warped, x0)
    C0 = np.zeros(6); C0[1] = 1.0
    DC0 = an0.gamma[:, 0, 1]
    result = integrate_jacobi(path, C0, DC0)
    y = jacobi_states(result, np.linspace(0.0, path.span, 50))[1]
    assert np.abs(y @ result.velocity_row).max() < 1e-8


def test_jacobi_equation_residual_on_solution(warped, profile):
    t0 = 0.3 * profile.L
    x0 = np.array([t0, 0.0, 0.0, 0.0, 0.0, 0.0])
    v0 = np.zeros(6); v0[0] = 1.0
    span = 0.3 * profile.L
    path = integrate_geodesic(warped, x0, v0, span)
    an0 = PointAnalysis(warped, x0)
    C0 = np.zeros(6); C0[1] = 1.0
    DC0 = an0.gamma[:, 0, 1]
    result = integrate_jacobi(path, C0, DC0)
    taus = [0.2 * span, 0.5 * span, 0.8 * span]
    assert jacobi_equation_residual(result, taus) < 1e-7


def test_decay_norm_tracks_warp(decay_report, profile):
    assert decay_report.residuals()["decay_norm_tracks_warp"].max() < 1e-6
    # and the tabulated f column really is the warp function
    t_col, _, f_col = decay_report.rows[:, 0], decay_report.rows[:, 1], decay_report.rows[:, 2]
    for t, f in zip(t_col[::40], f_col[::40]):
        assert abs(f - warp_derivatives(profile, t)[0]) < 1e-14


def test_decay_ratio_law(decay_report):
    assert decay_report.residuals()["decay_ratio_law"].max() < 1e-6


def test_decay_collapse_factor(decay_report):
    assert decay_report.residuals()["decay_collapse"] < 1e-2


def test_decay_velocity_inner(decay_report):
    assert decay_report.residuals()["decay_velocity_inner"].max() < 1e-8


def test_decay_report_csv(tmp_path, decay_report):
    path = tmp_path / "decay.csv"
    decay_report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,C_norm,f,ratio_residual,g_cdot_C"
    assert len(lines) == 1 + decay_report.rows.shape[0]


def test_experiment_window_validation(warped, profile):
    with pytest.raises(ValueError, match="window"):
        jacobi_decay_experiment(warped, 0.2 * profile.L, 1.5 * profile.L, samples=160)


def test_decay_report_counts_solver_work(decay_report):
    assert decay_report.geodesic_stats.nfev > decay_report.geodesic_stats.steps > 0
    assert decay_report.jacobi_stats.nfev > decay_report.jacobi_stats.steps > 0


def test_jacobi_equation_residual_on_desk_flow():
    """The warped n = 5 desk flow, integrated with the directional Jacobi
    operator, solves the Jacobi equation of the full Riemann tensor."""
    n, s = 5, 2.0 / 5
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    model = WarpedBundleMetric(profile, FubiniStudy(n - 1, 4.0))
    L = profile.L
    x0 = np.zeros(model.dim); x0[0] = 0.2 * L
    v0 = np.zeros(model.dim); v0[0] = 1.0
    span = L * (1.0 - 1e-3) - x0[0]
    path = integrate_geodesic(model, x0, v0, span)
    C0 = np.zeros(model.dim); C0[1] = 1.0
    DC0 = PointAnalysis(model, x0).gamma[:, 0, 1]
    result = integrate_jacobi(path, C0, DC0)
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
    model = WarpedBundleMetric(profile, FubiniStudy(n - 1, 4.0))
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
    return integrate_geodesic(bm, np.zeros(2), u / np.sqrt(u @ g0 @ u), span), u


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
    model = WarpedBundleMetric(profile, FubiniStudy(n - 1, 4.0))
    L = profile.L
    x0 = np.zeros(model.dim); x0[0] = 0.2 * L
    v0 = np.zeros(model.dim); v0[0] = 1.0
    path = integrate_geodesic(model, x0, v0, L * (1.0 - 1e-3) - x0[0])
    C0 = np.zeros(model.dim); C0[1] = 1.0
    return path, C0, PointAnalysis(model, x0).gamma[:, 0, 1]


def _reference_jacobi(path, C0, DC0, *, rtol, atol, samples=200):
    """The Jacobi solve with one exact analysis per stage of scipy's DOP853,
    as it was before the Chebyshev panels: (y, y') at ``samples`` equally
    spaced tau."""
    field = path.field
    d = field.dim
    x0, v0 = path.start
    analysis0 = PointAnalysis(field, x0)
    frame0 = flows._initial_frame(analysis0, v0)
    g0 = analysis0.g
    y0 = frame0 @ g0 @ np.asarray(C0, dtype=float)
    yp0 = frame0 @ g0 @ np.asarray(DC0, dtype=float)

    def rhs(tau, state):
        frame = state[:d * d].reshape(d, d)
        y = state[d * d:d * d + d]
        yp = state[d * d + d:]
        x, v = path.states(tau)
        analysis = PointAnalysis(field, x)
        dframe = -frame @ (v @ analysis.gamma).T
        ypp = frame @ (jacobi_operator(analysis, v).T @ (y @ frame))
        return np.concatenate([dframe.ravel(), yp, ypp])

    state0 = np.concatenate([frame0.ravel(), y0, yp0])
    sol = integrate.solve_ivp(rhs, (0.0, path.span), state0, method="DOP853",
                              rtol=rtol, atol=atol, dense_output=True)
    assert sol.success
    packed = sol.sol(np.linspace(0.0, path.span, samples)).T
    return packed[:, d * d:d * d + d], packed[:, d * d + d:]


def _certified_tables(path, result):
    """Gamma(., cdot) and K at the nodes of each certified panel of a Jacobi
    solve, (P, p, 2, d, d), evaluated as the solve evaluated them."""
    edges = result.dense.edges
    return flows.Panels(edges, np.stack([
        coefficients_at(path, 0.5 * (a + b) + 0.5 * (b - a) * flows._NODES)
        for a, b in zip(edges[:-1], edges[1:])]))


@pytest.mark.parametrize("n", [3, 5])
def test_coefficient_panels_hold_off_the_nodes(n):
    """Midway between the nodes of every panel, the interpolated Gamma(., cdot)
    and K agree with exact evaluations within 1e-12 of the window's largest
    value of each."""
    path, C0, DC0 = _desk_flow(n)
    result = integrate_jacobi(path, C0, DC0)
    table = _certified_tables(path, result)
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
    table = _certified_tables(path, integrate_jacobi(path, C0, DC0))
    scale = np.abs(table.values).max(axis=(0, 1, 3, 4))
    tails = np.array([flows._certificate(panel)[1] for panel in table.values])
    assert tails.shape == (table.count, 2)
    assert (tails <= 1e3 * np.finfo(float).eps * scale).all(), tails / scale


def test_jacobi_flow_matches_the_per_stage_reference():
    """y and y' at the 200 samples of the n = 3 desk flow agree with scipy's
    DOP853 at rtol 3e-14, analysing every integrator stage exactly."""
    path, C0, DC0 = _desk_flow(3)
    _, y, yp = jacobi_states(integrate_jacobi(path, C0, DC0),
                             np.linspace(0.0, path.span, 200))
    y_ref, yp_ref = _reference_jacobi(path, C0, DC0, rtol=3e-14, atol=1e-16)
    for got, ref in ((y, y_ref), (yp, yp_ref)):
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
    path = integrate_geodesic(field, np.zeros(2), np.array([1.0, 0.0]), 2.0)
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


def _solve_sizes(monkeypatch):
    """The unknowns of every ``np.linalg.solve`` made from here on, one
    entry per system (a batched call counts each of its systems)."""
    sizes = []
    solve = np.linalg.solve

    def counting(a, b):
        sizes.extend([a.shape[-1]] * (a.size // a.shape[-1] ** 2))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return sizes


def test_jacobi_solve_starts_at_the_exact_start(monkeypatch):
    """The Jacobi start frame and metric are taken at the x0 the geodesic
    started from, where the decay experiment takes nabla C(0), not at the
    interpolant's value at tau = 0: on the n = 3 desk that misses t by
    6.7e-16."""
    path, C0, DC0 = _desk_flow(3)
    x0 = np.zeros(path.field.dim); x0[0] = 0.2 * path.field.profile.L
    assert path.states(0.0)[0][0] != x0[0]
    seen = []

    def recording(field, x):
        seen.append(x)
        return PointAnalysis(field, x)

    monkeypatch.setattr(flows, "PointAnalysis", recording)
    integrate_jacobi(path, C0, DC0)
    assert len(seen) == 1 and np.array_equal(seen[0], x0)


def test_decay_experiment_analyses_its_start_once(warped, profile, monkeypatch):
    """The experiment's nabla C(0) and the Jacobi solve's start frame and
    metric come from one analysis of x0 (``GeodesicPath.start_analysis``);
    every other analysis of the flow is a batch of nodes or samples."""
    x0 = np.zeros(warped.dim); x0[0] = 0.2 * profile.L
    starts = []
    init = curvature.PointAnalysis.__init__

    def counting(self, field, x):
        if np.ndim(x) == 1:
            starts.append(np.array(x))
        init(self, field, x)

    monkeypatch.setattr(curvature.PointAnalysis, "__init__", counting)
    jacobi_decay_experiment(warped, x0[0], profile.L * (1.0 - 1e-3), samples=160)
    assert len(starts) == 1 and np.array_equal(starts[0], x0)


def _dense_jacobi_panel(h2, coefficients, frame, y, yp):
    """The collocation panel as two dense solves in p d unknowns each, with
    the block matrix of the whole table: the reference for the grouped
    solve."""
    p, d = flows.PANEL_NODES, y.shape[0]
    S1, S2 = flows._S1, flows._S2

    def block(weights, tables):
        return (weights[:, None, :, None] * tables.transpose(1, 0, 2)[None]).reshape(p * d, p * d)

    transport, K = coefficients[:, 0], coefficients[:, 1]
    rows = np.linalg.solve(np.eye(p * d) + h2 * block(S1[:p], transport),
                           np.tile(frame.T, (p, 1)))
    frames = rows.reshape(p, d, d).transpose(0, 2, 1)
    frame_end = frame - h2 * (S1[p] @ (frames @ mT(transport)).reshape(p, -1)).reshape(d, d)
    M = frames @ mT(K) @ mT(frames)
    line = y + np.outer((flows._NODES + 1.0) * h2, yp)
    ys = np.linalg.solve(np.eye(p * d) - h2 * h2 * block(S2[:p], M), line.ravel()).reshape(p, d)
    ypp = matvec(M, ys)
    yps = yp + h2 * (S1[:p] @ ypp)
    end = (frame_end, y + 2.0 * h2 * yp + h2 * h2 * (S2[p] @ ypp), yp + h2 * (S1[p] @ ypp))
    return np.concatenate([frames.reshape(p, d * d), ys, yps], axis=1), end


@pytest.mark.parametrize("pattern", ["full", "two-block", "one-way", "chain", "diagonal"])
def test_grouped_panel_solve_matches_the_dense_one(pattern, monkeypatch):
    """At d = 7, with T, K and the start frame random but for zeros outside
    a coupling pattern, the panel's node values and end state agree with
    the dense solve within 1e-12 of the largest entry of each: the frame
    system with its d right-hand sides and the y system.  Each solve splits
    per coordinate when the pattern is diagonal, else it is one system.  The
    patterns: all coordinates coupled; a permuted group of 1 and one of 6;
    the same with the 6 reading the 1 at one node only; a permuted chain,
    each coordinate coupled to the next alone; each coordinate on its own."""
    d, p = 7, flows.PANEL_NODES
    rng = np.random.default_rng(11)
    if pattern == "full":
        mask = np.ones((d, d), dtype=bool)
    elif pattern == "diagonal":
        mask = np.eye(d, dtype=bool)
    elif pattern == "chain":
        order = np.argsort(rng.permutation(d))
        mask = np.abs(order[:, None] - order[None, :]) <= 1
    else:
        block = np.isin(np.arange(d), rng.permutation(d)[:1])
        mask = block[:, None] == block[None, :]
    coefficients = rng.normal(size=(p, 2, d, d)) * mask
    frame = (np.eye(d) + 0.3 * rng.normal(size=(d, d))) * mask
    if pattern == "one-way":
        coefficients[p // 2] += rng.normal(size=(2, d, d)) * np.outer(~block, block)
    y, yp = rng.normal(size=d), rng.normal(size=d)
    expected = _dense_jacobi_panel(0.15, coefficients, frame, y, yp)
    sizes = _solve_sizes(monkeypatch)
    values, end = flows._jacobi_panel(0.15, coefficients, frame, y, yp)
    for got, ref in zip((values,) + end, (expected[0],) + expected[1]):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # both systems split the same way: the frame rows carry the pattern to M
    counts = {size // p: sizes.count(size) // 2 for size in set(sizes)}
    assert counts == ({1: 7} if pattern == "diagonal" else {7: 1})


@pytest.mark.parametrize("n", [3, 5, 7])
def test_desk_flow_solves_one_coordinate_at_a_time(n, monkeypatch):
    """On the axial geodesic of the warped desk the tables the Jacobi solve
    reads, T = Gamma(., cdot) and K, and the transported frames are
    diagonal at every node, off-diagonal entries exactly zero, and the
    geodesic runs along e_t exactly.  So the solve makes no system larger
    than one panel's nodes: a coupling that crept in (a sigma(0) of 1e-17,
    say) fails here rather than going back to dense solves unseen."""
    path, C0, DC0 = _desk_flow(n)
    d = path.field.dim
    sizes = _solve_sizes(monkeypatch)
    result = integrate_jacobi(path, C0, DC0)
    assert max(sizes) == flows.PANEL_NODES
    off = ~np.eye(d, dtype=bool)
    table = _certified_tables(path, result).values
    frames = result.dense.values[..., :d * d].reshape(table.shape[:2] + (d, d))
    assert not table[..., off].any() and not frames[..., off].any()
    position, velocity = np.split(path.dense.values, 2, axis=-1)
    assert not position[..., 1:].any() and (velocity == np.eye(d)[0]).all()


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
    result = integrate_jacobi(path, C0, DC0)
    assert 0 < len(built) < result.stats.nfev / 5
    # every exact evaluation is one analysed point (plus the start's frame),
    # and the panel march wastes fewer than the bisection's 552
    assert sum(np.size(a.x[..., 0]) for a in analysed) == result.stats.nfev + 1
    assert result.stats.nfev < 552


def test_desk_decay_flow_reads_the_metric_along_its_velocity(monkeypatch):
    """Counts, not timings: the n = 5 desk decay experiment assembles no dense
    chart Hessian (``BundleJet.hessian``), since the flows read the metric
    only along directions, from z-only parts that the nodes of a panel share
    at z = 0; each Jacobi trial and the geodesic analyse their 24 nodes as
    one batch; and the solves take the work they took with the Hessian
    (geodesic 24 evaluations and 1 panel, Jacobi 384 and 13)."""
    dense, sizes = [], []
    assemble = BundleJet.hessian.func
    counted = cached_property(lambda self: dense.append(1) or assemble(self))
    counted.__set_name__(BundleJet, "hessian")
    monkeypatch.setattr(BundleJet, "hessian", counted)
    init = curvature.PointAnalysis.__init__

    def sized(self, field, x):
        sizes.append(np.size(x[..., 0]))
        init(self, field, x)

    monkeypatch.setattr(curvature.PointAnalysis, "__init__", sized)
    n = 5
    profile = solve_profile(build_polynomial(1.0, 2.0, 2.0 / n))
    model = WarpedBundleMetric(profile, FubiniStudy(n - 1, 4.0))
    L = profile.L
    report = jacobi_decay_experiment(model, 0.2 * L, L * (1.0 - 1e-3), samples=160)
    assert not dense
    assert report.geodesic_stats == flows.SolveStats(nfev=24, steps=1)
    assert report.jacobi_stats == flows.SolveStats(nfev=384, steps=13)
    assert sizes.count(flows.PANEL_NODES) == 1 + 384 // flows.PANEL_NODES


def test_decay_report_counts_coefficient_work(decay_report):
    panels, evaluations = decay_report.jacobi_stats.steps, decay_report.jacobi_stats.nfev
    assert 0 < panels <= flows.MAX_PANELS
    assert evaluations >= panels * flows.PANEL_NODES


def _loop_rows(model, jac, t0, samples):
    """The decay table row by row at ``samples`` equally spaced tau, as it was
    computed before vectorising."""
    profile = model.profile
    n = model.n
    taus = np.linspace(0.0, jac.path.span, samples)
    _, ys, yps = jacobi_states(jac, taus)
    rows = np.empty((samples, 5))
    for i, tau in enumerate(taus):
        t = t0 + tau
        r, rp, rpp, rppp = profile.evaluate(t)
        f = profile.warp_from(r, rp, rpp, rppp)[0]
        y, yp = ys[i], yps[i]
        norm = float(np.linalg.norm(y))
        dlog_c = float(y @ yp) / float(y @ y)
        dlog_kappa = rpp / rp - rp / r
        theta_cdot = float(jac.path.states(tau)[1][0])
        kappa = 2.0 * (n - 1) * rp / r
        ratio_res = abs(dlog_kappa - dlog_c + kappa * theta_cdot / (n - 1))
        rows[i] = (t, norm, f, ratio_res, y @ jac.velocity_row)
    return rows


def test_decay_rows_match_the_row_loop(warped, profile, monkeypatch):
    captured = []

    def capture(*args, **kwargs):
        captured.append(integrate_jacobi(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(flows, "integrate_jacobi", capture)
    t0 = 0.2 * profile.L
    report = jacobi_decay_experiment(warped, t0, profile.L * (1.0 - 1e-3), samples=160)
    assert np.array_equal(report.rows, _loop_rows(warped, captured[0], t0, 160))


def test_flows_never_read_the_second_kind_array(monkeypatch):
    """The flows read Gamma along the velocity alone (``connection_along``)
    and K from the first-kind form: with ``PointAnalysis.gamma`` made to
    raise, the desk decay experiment runs at n = 3 and 5, and so do a curved
    Fubini-Study geodesic, its Jacobi solve (whose tables couple every
    coordinate) and both their residuals."""
    def refuse(analysis):
        raise AssertionError("a flow read PointAnalysis.gamma")

    monkeypatch.setattr(PointAnalysis, "gamma", property(refuse))
    for n in (3, 5):
        profile = solve_profile(build_polynomial(1.0, 2.0, 2.0 / n))
        model = WarpedBundleMetric(profile, FubiniStudy(n - 1, 4.0))
        jacobi_decay_experiment(model, 0.2 * profile.L, profile.L * (1.0 - 1e-3), samples=160)
    bm = BaseChartMetric(FubiniStudy(2, 4.0))
    x0 = np.array([0.1, 0.05, -0.2, 0.15])
    v0 = np.array([0.6, 0.8, -0.3, 0.2])
    v0 = v0 / np.sqrt(v0 @ PointAnalysis(bm, x0).g @ v0)
    path = integrate_geodesic(bm, x0, v0, 0.6)
    result = integrate_jacobi(path, np.array([0.3, -0.2, 0.1, 0.5]),
                              np.array([0.1, 0.4, 0.0, -0.2]))
    taus = np.linspace(0.1, 0.5, 4)
    assert coefficients_at(path, taus)[:, :, ~np.eye(4, dtype=bool)].all()
    assert geodesic_residuals(path, taus).max() < 1e-10
    assert jacobi_equation_residual(result, taus) < 1e-8


def test_batched_residuals_match_point_loops():
    """One analysis over all tau gives the residuals of one analysis per tau,
    each with the derivative of the panels' interpolant taken at its tau."""
    bm = BaseChartMetric(FubiniStudy(1, 4.0))
    x0 = np.array([0.1, 0.05])
    g0 = PointAnalysis(bm, x0).g
    v0 = np.array([0.6, 0.8]); v0 = v0 / np.sqrt(v0 @ g0 @ v0)
    path = integrate_geodesic(bm, x0, v0, 0.6)
    result = integrate_jacobi(path, np.array([0.3, -0.2]), np.array([0.1, 0.4]))
    taus, d = np.array([0.1, 0.25, 0.4, 0.5]), 2

    geodesic_ref, jacobi_ref = [], []
    for tau in taus:
        x, v = path.states(tau)
        an = PointAnalysis(bm, x)
        res = path.dense.derivative()(tau)[d:] - geodesic_acceleration(an, v)
        geodesic_ref.append(np.sqrt(res @ an.g @ res))
        state = result.dense(tau)
        ypp = result.dense.derivative()(tau)[d * d + d:]
        M = jacobi_matrix(an.riemann, v, state[:d * d].reshape(d, d))
        jacobi_ref.append(np.abs(ypp - M @ state[d * d:d * d + d]).max())
    assert geodesic_residuals(path, taus) == pytest.approx(geodesic_ref, rel=1e-6, abs=1e-13)
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


# -- the dense output's contract ------------------------------------------------

# three panels of different lengths, the first starting away from 0
_EDGES = np.array([-0.4, 0.3, 1.1, 2.0])


def _random_panels(shape, seed=0):
    rng = np.random.default_rng(seed)
    return flows.Panels(_EDGES, rng.normal(size=(3, flows.PANEL_NODES) + shape))


def _node_taus():
    """Each panel's nodes mapped onto it, as the Jacobi solve places them."""
    a, b = _EDGES[:-1, None], _EDGES[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * flows._NODES).ravel()


def _tau_kinds(rng):
    """A float tau, a 2-D array of random taus, the edges and the nodes."""
    return [0.7, rng.uniform(_EDGES[0], _EDGES[-1], size=(5, 4)), _EDGES, _node_taus()]


@pytest.mark.parametrize("shape", [(), (7,), (2, 3, 3)])
def test_panels_read_node_values_exactly(shape):
    """A tau that the panel's map sends onto a node reads that node's value
    bit for bit, of values that differ in sign and size (the formula's
    first + (value - first) would round them)."""
    panels = _random_panels(shape)
    taus = _node_taus()
    i = np.repeat(np.arange(3), flows.PANEL_NODES)
    a, b = _EDGES[i], _EDGES[i + 1]
    on_node = (2.0 * taus - a - b) / (b - a) == np.tile(flows._NODES, 3)
    assert on_node.sum() >= 10
    nodes = panels.values.reshape((-1,) + shape)
    assert np.array_equal(panels(taus)[on_node], nodes[on_node])


@pytest.mark.parametrize("shape", [(), (7,), (2, 3, 3)])
def test_panels_give_a_constant_back_bit_for_bit(shape):
    """A constant, one per entry, comes back bit for bit anywhere on the
    panels: every difference from the first node value is 0."""
    rng = np.random.default_rng(1)
    constant = rng.normal(size=shape) / 3.0
    panels = flows.Panels(_EDGES, np.broadcast_to(constant, (3, flows.PANEL_NODES) + shape))
    for taus in _tau_kinds(rng):
        got = panels(taus)
        assert got.shape == np.shape(taus) + shape
        assert np.array_equal(got, np.broadcast_to(constant, got.shape))


@pytest.mark.parametrize("shape", [(7,), (2, 3, 3)])
def test_node_by_node_sum_is_the_gathered_formula(shape):
    """The evaluator adds the barycentric sum up one node at a time; the
    gathered formula (``helpers.gathered_panels``) sums whole panels.  Both
    add each entry's terms in node order, so they agree bit for bit, for
    the value shapes the flows use: packed states (m,) and the coefficient
    tables (2, d, d) of ``_certified_tables``."""
    panels = _random_panels(shape, seed=2)
    for taus in _tau_kinds(np.random.default_rng(3)):
        assert np.array_equal(panels(taus), gathered_panels(panels, taus))


def test_panels_read_columns_as_the_whole_read_gives_them():
    """Each column is summed on its own, so a view of some columns, of one
    column, or of one column taken down to scalar values, reads what the
    whole read gives them.  (The gathered formula would not: on scalar
    values numpy sums the nodes pairwise, within rounding of node order.)"""
    panels = _random_panels((9,), seed=4)
    rng = np.random.default_rng(5)
    for taus in _tau_kinds(rng):
        whole = panels(taus)
        for which in (slice(2, 5), slice(4, 5), slice(6, None), 3):
            part = panels.columns(which)
            assert np.shares_memory(part.values, panels.values)
            assert np.array_equal(part(taus), whole[..., which])
        scalar = panels.columns(3)
        reference = gathered_panels(scalar, taus)
        assert np.allclose(scalar(taus), reference, rtol=0.0,
                           atol=64 * np.finfo(float).eps * np.abs(scalar.values).max())


@pytest.mark.parametrize("tau", [np.nextafter(-0.4, -1.0), np.nextafter(2.0, 3.0), -5.0,
                                 np.nan, [0.5, 2.5]])
def test_panels_refuse_a_tau_outside_their_span(tau):
    """No tau outside [edges[0], edges[-1]] is extrapolated with an end
    panel's polynomial: it raises, naming the tau and the span.  The edges
    themselves are read."""
    panels = _random_panels((2,))
    with pytest.raises(ValueError, match=r"tau = .* outside the panels' span \[-0\.4, 2\.0\]"):
        panels(tau)
    assert panels(_EDGES).shape == (4, 2)


def test_dense_output_works_in_place_of_gathering():
    """Reading the n = 5 desk Jacobi solve at 160 taus, as the decay
    experiment does, peaks below a quarter of one (160, p, d^2 + 2 d) gather
    of its panels (0.92 of 3.7 MB; the node-by-node sum reads about 0.7
    MB), under tracemalloc, which sees numpy's allocations."""
    path, C0, DC0 = _desk_flow(5)
    result = integrate_jacobi(path, C0, DC0)
    taus = np.linspace(0.0, path.span, 160)
    d = path.field.dim
    gather = taus.size * flows.PANEL_NODES * (d * d + 2 * d) * np.dtype(float).itemsize
    tracemalloc.start()
    try:
        jacobi_states(result, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < gather / 4, (peak, gather)
