"""Geodesic and Jacobi-field integration.

The Jacobi system is integrated in a parallel-transported orthonormal frame,
which turns the covariant second derivative into a plain one: carrying the
frame alongside the geodesic, the field C = sum_a y_a e_a solves

    y_a'' = R(cdot, e_b, cdot, e_a) y_b ,

with the curvature sampled (jet-exactly) at every integrator stage.  In the
parallel frame |C| is the Euclidean norm of y and g(cdot, C) is a fixed
linear functional of y, so the decay diagnostics near the collapsing end of
the chart stay well conditioned even though coordinate components blow up
like 1/f there.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .curvature import PointAnalysis, contract_slots, jacobi_operator

# right-hand-side evaluations one solve may make before it is abandoned: about
# 10x the most any tier-1 or benchmark configuration needs (about 1,200, the
# Jacobi solves of the warped n = 3 and n = 5 desk runs), so a solve that
# crawls ends in a FlowError (exit 3) instead of running for hours.  Counting
# calls rather than seconds keeps the outcome independent of the machine's
# speed.
MAX_RHS_CALLS = 12_000


class FlowError(RuntimeError):
    """Geodesic or Jacobi integration failed."""


@dataclass(frozen=True)
class SolveStats:
    """Work of one solve: right-hand-side evaluations and accepted steps."""

    nfev: int
    steps: int


@dataclass(frozen=True)
class GeodesicState:
    """Position and (unit) velocity, in chart coordinates."""

    position: np.ndarray
    velocity: np.ndarray


@dataclass
class GeodesicPath:
    """A solved geodesic with dense output on [0, span]."""

    field: object
    span: float
    taus: np.ndarray
    positions: np.ndarray   # (N, d)
    velocities: np.ndarray  # (N, d)
    stats: SolveStats
    _dense: object = None

    def state(self, tau: float) -> GeodesicState:
        d = self.positions.shape[1]
        packed = self._dense(tau)
        return GeodesicState(position=packed[:d], velocity=packed[d:])


def _solve(name: str, rhs, t_span, *args, **kwargs):
    """solve_ivp on ``rhs`` within ``MAX_RHS_CALLS`` evaluations of it.

    Past the budget the solve raises ``FlowError`` naming the solve (``name``)
    and the furthest tau it reached.  ``rhs`` is reached through a holder
    emptied when the solve returns: scipy's solver and its wrapper of ``rhs``
    form a reference cycle that only the cyclic garbage collector frees, and
    through ``rhs`` it would keep the metric model (and its memos) of a
    finished run alive until then.
    """
    holder = [rhs]
    calls, reached = 0, t_span[0]

    def counted(t, y):
        nonlocal calls, reached
        calls += 1
        reached = max(reached, t)
        if calls > MAX_RHS_CALLS:
            raise FlowError(
                f"{name} integration exceeded its budget of {MAX_RHS_CALLS} right-hand-side "
                f"evaluations at tau = {reached:.6g} of {t_span[1]:.6g}")
        return holder[0](t, y)

    try:
        return solve_ivp(counted, t_span, *args, **kwargs)
    finally:
        holder.clear()


def _stats(sol) -> SolveStats:
    return SolveStats(nfev=int(sol.nfev), steps=len(sol.t) - 1)


def geodesic_acceleration(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """-Gamma^k_ij v^i v^j."""
    return -((gamma @ v) @ v)


def transport_derivative(gamma: np.ndarray, v: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """d/dtau of parallel frame rows e_a: -Gamma^k_ij v^i e_a^j."""
    return -frame @ (v @ gamma).T


def jacobi_matrix(R4: np.ndarray, v: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """M[a, b] = R(v, e_b, v, e_a): the Jacobi operator in the frame rows e."""
    return contract_slots(R4, v, frame, v, frame).T


def integrate_geodesic(field, start: GeodesicState, span: float, *,
                       rtol: float = 1e-11, atol: float = 1e-12,
                       samples: int = 64) -> GeodesicPath:
    """Integrate the geodesic equation x'' = -Gamma(x)(x', x')."""
    d = start.position.shape[0]

    def rhs(_, state):
        x, v = state[:d], state[d:]
        gamma = PointAnalysis(field, field.point(x)).gamma
        return np.concatenate([v, geodesic_acceleration(gamma, v)])

    y0 = np.concatenate([start.position, start.velocity])
    sol = _solve("geodesic", rhs, (0.0, span), y0, method="DOP853",
                 rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise FlowError(f"geodesic integration failed: {sol.message}")
    taus = np.linspace(0.0, span, samples)
    dense = sol.sol
    packed = np.stack([dense(tau) for tau in taus])
    return GeodesicPath(field=field, span=span, taus=taus,
                        positions=packed[:, :d], velocities=packed[:, d:],
                        stats=_stats(sol), _dense=dense)


def geodesic_residuals(path: GeodesicPath, taus=None, step: float = 1e-4):
    """max |nabla_cdot cdot| re-evaluated on the dense solution by differencing."""
    if taus is None:
        taus = path.taus[1:-1]
    worst = 0.0
    for tau in taus:
        sp = path.state(tau + step)
        sm = path.state(tau - step)
        s0 = path.state(tau)
        vdot = (sp.velocity - sm.velocity) / (2.0 * step)
        analysis = PointAnalysis(path.field, path.field.point(s0.position))
        res = vdot - geodesic_acceleration(analysis.gamma, s0.velocity)
        g = analysis.g
        worst = max(worst, float(np.sqrt(res @ g @ res)))
    return worst


@dataclass
class JacobiResult:
    """Jacobi field along a geodesic, in the transported frame."""

    path: GeodesicPath
    taus: np.ndarray
    y: np.ndarray             # (N, d) frame components of C
    yp: np.ndarray            # (N, d) frame components of nabla_cdot C
    frames: np.ndarray        # (N, d, d) transported frame rows at samples
    velocity_inner: np.ndarray  # g(cdot, C) at samples
    stats: SolveStats
    _dense: object = None
    _dot0: np.ndarray = None

    def coordinate_field(self, idx: int) -> np.ndarray:
        """C in chart coordinates at sample ``idx``."""
        return self.y[idx] @ self.frames[idx]

    def sample(self, tau: float):
        """(y, y') from the dense solution at an arbitrary parameter."""
        d = self.y.shape[1]
        state = self._dense(tau)
        return state[d * d:d * d + d], state[d * d + d:]


def _initial_frame(analysis: PointAnalysis, velocity: np.ndarray) -> np.ndarray:
    """Orthonormal frame with e_0 = cdot(0), completed from the chart frame."""
    g = analysis.g
    candidates = [velocity] + list(analysis.frame.vectors)
    rows = []
    for vec in candidates:
        w = np.array(vec, dtype=float)
        for e in rows:
            w -= (e @ g @ w) * e
        nrm = float(np.sqrt(max(w @ g @ w, 0.0)))
        if nrm < 1e-8:
            continue
        rows.append(w / nrm)
        if len(rows) == g.shape[0]:
            break
    if len(rows) != g.shape[0]:
        raise FlowError("could not complete an orthonormal frame along the geodesic")
    return np.stack(rows)


def integrate_jacobi(path: GeodesicPath, C0: np.ndarray, DC0: np.ndarray, *,
                     rtol: float = 1e-10, atol: float = 1e-12,
                     samples: int = 200) -> JacobiResult:
    """Integrate nabla^2 C = R(cdot, C) cdot along a solved geodesic.

    Each right-hand side evaluates the metric jet at the geodesic's point,
    the Christoffel symbols and the Jacobi operator along its velocity
    (``curvature.jacobi_operator``); neither dGamma nor the Riemann tensor
    is built.
    """
    field = path.field
    d = path.positions.shape[1]
    start = path.state(0.0)
    analysis0 = PointAnalysis(field, field.point(start.position))
    frame0 = _initial_frame(analysis0, start.velocity)
    g0 = analysis0.g
    y0 = frame0 @ g0 @ np.asarray(C0, dtype=float)
    yp0 = frame0 @ g0 @ np.asarray(DC0, dtype=float)
    dot0 = frame0 @ g0 @ start.velocity  # g(cdot, e_a), parallel-constant

    def rhs(tau, state):
        frame = state[:d * d].reshape(d, d)
        y = state[d * d:d * d + d]
        yp = state[d * d + d:]
        geo = path.state(tau)
        analysis = PointAnalysis(field, field.point(geo.position))
        v = geo.velocity
        dframe = transport_derivative(analysis.gamma, v, frame)
        # (frame K^T frame^T) y: the Jacobi matrix of the frame, applied to y
        ypp = frame @ (jacobi_operator(analysis, v).T @ (y @ frame))
        return np.concatenate([dframe.ravel(), yp, ypp])

    state0 = np.concatenate([frame0.ravel(), y0, yp0])
    sol = _solve("jacobi", rhs, (0.0, path.span), state0, method="DOP853",
                 rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise FlowError(f"jacobi integration failed: {sol.message}")
    taus = np.linspace(0.0, path.span, samples)
    packed = np.stack([sol.sol(tau) for tau in taus])
    frames = packed[:, :d * d].reshape(samples, d, d)
    y = packed[:, d * d:d * d + d]
    yp = packed[:, d * d + d:]
    return JacobiResult(path=path, taus=taus, y=y, yp=yp, frames=frames,
                        velocity_inner=y @ dot0, stats=_stats(sol), _dense=sol.sol,
                        _dot0=dot0)


def jacobi_equation_residual(result: JacobiResult, taus, step: float = 1e-4) -> float:
    """max |nabla^2 C - R(cdot, C) cdot| on the integrated solution (frame comps)."""
    worst = 0.0
    d = result.y.shape[1]
    for tau in taus:
        _, yp_plus = result.sample(tau + step)
        _, yp_minus = result.sample(tau - step)
        ypp = (yp_plus - yp_minus) / (2.0 * step)
        y, _ = result.sample(tau)
        geo = result.path.state(tau)
        analysis = PointAnalysis(result.path.field,
                                 result.path.field.point(geo.position))
        state = result._dense(tau)
        frame = state[:d * d].reshape(d, d)
        M = jacobi_matrix(analysis.riemann.components, geo.velocity, frame)
        worst = max(worst, float(np.abs(ypp - M @ y).max()))
    return worst


# -- the decay experiment -----------------------------------------------------


@dataclass
class DecayReport:
    """Decay law of the Jacobi field carrying the fiber Killing vector."""

    rows: np.ndarray          # columns: t, |C|, f(t), ratio_residual, g(cdot, C)
    max_norm_deviation: float
    max_ratio_residual: float
    decay_factor: float
    max_velocity_inner: float
    geodesic_residual: float
    geodesic_stats: SolveStats
    jacobi_stats: SolveStats

    COLUMNS = ("t", "C_norm", "f", "ratio_residual", "g_cdot_C")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for row in self.rows:
                writer.writerow([format(v, ".17g") for v in row])


def jacobi_decay_experiment(model, t0: float, t_end: float, *,
                            z0: np.ndarray | None = None, psi0: float = 0.0,
                            samples: int = 200, rtol: float = 1e-10,
                            atol: float = 1e-12) -> DecayReport:
    """Integrate the Jacobi field that restricts the fiber Killing field along
    the t-line geodesic and compare against the closed forms.

    Initial data: C(0) = fiber field = f(t0) JH, nabla C(0) its covariant
    derivative, both engine-evaluated.  Diagnostics per sample:

    * |C(t)| against f(t);
    * the ratio law d/dt log(kappa/|C|) + kappa theta(cdot)/(n-1), with
      d log|C|/dt = (y . y')/(y . y) from the integrated state (no numerical
      differencing) and d log kappa/dt = r''/r' - r'/r from the profile;
    * g(cdot, C), which must stay at its initial value 0.
    """
    profile = model.profile
    L = profile.L
    margin = model.end_margin_frac * L
    if not (0.0 < t0 < t_end <= L - margin + 1e-12):
        raise ValueError(
            f"experiment window [{t0}, {t_end}] must sit inside (0, {L - margin}]")
    d = model.dim
    if z0 is None:
        z0 = np.zeros(model.base.dim)
    x0 = np.concatenate(([t0, psi0], z0))
    v0 = np.zeros(d)
    v0[0] = 1.0

    path = integrate_geodesic(model, GeodesicState(x0, v0), t_end - t0,
                              rtol=rtol, atol=atol)
    analysis0 = PointAnalysis(model, model.point(x0))
    C0 = np.zeros(d)
    C0[1] = 1.0  # the fiber field: f(t0) JH in coordinates
    DC0 = analysis0.gamma[:, 0, 1]  # nabla_H of the fiber field
    jac = integrate_jacobi(path, C0, DC0, rtol=rtol, atol=atol, samples=samples)

    n = model.params.n
    rows = np.empty((samples, 5))
    max_dev = 0.0
    max_ratio = 0.0
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
        max_dev = max(max_dev, abs(norm - f))
        max_ratio = max(max_ratio, ratio_res)

    interior = np.linspace(0.05, 0.95, 7) * path.span
    return DecayReport(
        rows=rows,
        max_norm_deviation=max_dev,
        max_ratio_residual=max_ratio,
        decay_factor=float(rows[-1, 1] / rows[0, 1]),
        max_velocity_inner=float(np.abs(jac.velocity_inner).max()),
        geodesic_residual=geodesic_residuals(path, interior),
        geodesic_stats=path.stats,
        jacobi_stats=jac.stats,
    )
