import numpy as np
import pytest

import qchgeom.flows as flows
from qchgeom import (
    BundleParams,
    ChartPoint,
    EuclideanMetric,
    FubiniStudy,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom.curvature import PointAnalysis
from qchgeom.flows import (
    FlowError,
    GeodesicState,
    geodesic_residuals,
    integrate_geodesic,
    integrate_jacobi,
    jacobi_decay_experiment,
    jacobi_equation_residual,
)
from qchgeom.geometry import BaseChartMetric


@pytest.fixture(scope="module")
def decay_report(warped):
    L = warped.profile.L
    return jacobi_decay_experiment(warped, 0.2 * L, L * (1.0 - 1e-3),
                                   samples=160, rtol=1e-12, atol=1e-14)


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
    g_end = PointAnalysis(warped, warped.point(end.position)).g
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
        assert np.abs(result.coordinate_field(i) - expected).max() < 1e-9


def test_constant_curvature_jacobi_oscillates():
    # transverse Jacobi fields on the curvature-4 projective line scale like
    # cos(2 t) when started with vanishing covariant derivative
    bm = BaseChartMetric(FubiniStudy(1, 4.0))
    x0 = np.array([0.1, 0.05])
    an0 = PointAnalysis(bm, ChartPoint(z=x0))
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
    an0 = PointAnalysis(warped, warped.point(x0))
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
    an0 = PointAnalysis(warped, warped.point(x0))
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
    path = integrate_geodesic(model, GeodesicState(x0, v0), span, rtol=1e-12, atol=1e-14)
    C0 = np.zeros(model.dim); C0[1] = 1.0
    DC0 = PointAnalysis(model, model.point(x0)).gamma[:, 0, 1]
    result = integrate_jacobi(path, C0, DC0, rtol=1e-12, atol=1e-14, samples=160)
    assert jacobi_equation_residual(result, np.linspace(0.05, 0.95, 7) * span) < 1e-7


@pytest.mark.parametrize("x,y", [(0.1, 10.0), (1.0, 1.001)])
def test_decay_flow_work_stays_bounded_off_the_desk(x, y):
    """The suite's decay flow at these endpoints takes about the right-hand
    sides of the desk flow (1,184), not the 49,766 and more it took when the
    profile was interpolated."""
    n, s = 3, 2.0 / 3.0
    profile = solve_profile(build_polynomial(x, y, s))
    model = WarpedBundleMetric(BundleParams(n=n, c0=4.0, s=s, k=1, q=n, L=profile.L), profile)
    L = profile.L
    report = jacobi_decay_experiment(model, 0.2 * L, L * (1.0 - 1e-3), samples=160,
                                     rtol=1e-12, atol=1e-14)
    assert report.jacobi_stats.nfev <= 2400


def test_solve_budget_raises_flow_error(warped, profile, monkeypatch):
    # the axial geodesic needs 77 right-hand sides at these tolerances
    monkeypatch.setattr(flows, "MAX_RHS_CALLS", 40)
    x0 = np.array([0.25 * profile.L, 0.0, 0.1, 0.2, 0.0, 0.0])
    v0 = np.zeros(6); v0[0] = 1.0
    with pytest.raises(FlowError, match=r"geodesic integration exceeded its budget of 40 "
                                        r"right-hand-side evaluations at tau = "):
        integrate_geodesic(warped, GeodesicState(x0, v0), 0.5 * profile.L,
                           rtol=1e-12, atol=1e-14)
