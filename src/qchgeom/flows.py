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

from .curvature import PointAnalysis, contract_slots


class FlowError(RuntimeError):
    """Geodesic or Jacobi integration failed."""


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
    _dense: object = None

    def state(self, tau: float) -> GeodesicState:
        d = self.positions.shape[1]
        packed = self._dense(tau)
        return GeodesicState(position=packed[:d], velocity=packed[d:])


def _gamma_at(field, coords: np.ndarray) -> np.ndarray:
    return PointAnalysis(field, field.point(coords)).connection.gamma


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
        gamma = _gamma_at(field, x)
        return np.concatenate([v, geodesic_acceleration(gamma, v)])

    y0 = np.concatenate([start.position, start.velocity])
    sol = solve_ivp(rhs, (0.0, span), y0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise FlowError(f"geodesic integration failed: {sol.message}")
    taus = np.linspace(0.0, span, samples)
    dense = sol.sol
    packed = np.stack([dense(tau) for tau in taus])
    return GeodesicPath(field=field, span=span, taus=taus,
                        positions=packed[:, :d], velocities=packed[:, d:],
                        _dense=dense)


def geodesic_residuals(path: GeodesicPath, taus=None, step: float = 1e-4):
    """max |nabla_cdot cdot| re-evaluated on the dense solution by differencing."""
    if taus is None:
        taus = path.taus[1:-1]
    d = path.positions.shape[1]
    worst = 0.0
    for tau in taus:
        sp = path.state(tau + step)
        sm = path.state(tau - step)
        s0 = path.state(tau)
        vdot = (sp.velocity - sm.velocity) / (2.0 * step)
        gamma = _gamma_at(path.field, s0.position)
        res = vdot - geodesic_acceleration(gamma, s0.velocity)
        g = PointAnalysis(path.field, path.field.point(s0.position)).g
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
    _dense: object = None
    _dot0: np.ndarray = None

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.y, axis=1)

    def coordinate_field(self, idx: int) -> np.ndarray:
        """C in chart coordinates at sample ``idx``."""
        return self.y[idx] @ self.frames[idx]

    def sample(self, tau: float):
        """(y, y') from the dense solution at an arbitrary parameter."""
        d = self.y.shape[1]
        state = self._dense(tau)
        return state[d * d:d * d + d], state[d * d + d:]


def _initial_frame(field, start: GeodesicState) -> np.ndarray:
    """Orthonormal frame with e_0 = cdot(0), completed from the chart frame."""
    analysis = PointAnalysis(field, field.point(start.position))
    g = analysis.g
    candidates = [start.velocity] + list(analysis.frame.vectors)
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
    """Integrate nabla^2 C = R(cdot, C) cdot along a solved geodesic."""
    field = path.field
    d = path.positions.shape[1]
    start = path.state(0.0)
    frame0 = _initial_frame(field, start)
    g0 = PointAnalysis(field, field.point(start.position)).g
    y0 = frame0 @ g0 @ np.asarray(C0, dtype=float)
    yp0 = frame0 @ g0 @ np.asarray(DC0, dtype=float)
    dot0 = frame0 @ g0 @ start.velocity  # g(cdot, e_a), parallel-constant

    def rhs(tau, state):
        frame = state[:d * d].reshape(d, d)
        y = state[d * d:d * d + d]
        yp = state[d * d + d:]
        geo = path.state(tau)
        analysis = PointAnalysis(field, field.point(geo.position))
        gamma = analysis.connection.gamma
        R4 = analysis.riemann.components
        v = geo.velocity
        dframe = transport_derivative(gamma, v, frame)
        return np.concatenate([dframe.ravel(), yp, jacobi_matrix(R4, v, frame) @ y])

    state0 = np.concatenate([frame0.ravel(), y0, yp0])
    sol = solve_ivp(rhs, (0.0, path.span), state0, method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise FlowError(f"jacobi integration failed: {sol.message}")
    taus = np.linspace(0.0, path.span, samples)
    packed = np.stack([sol.sol(tau) for tau in taus])
    frames = packed[:, :d * d].reshape(samples, d, d)
    y = packed[:, d * d:d * d + d]
    yp = packed[:, d * d + d:]
    return JacobiResult(path=path, taus=taus, y=y, yp=yp, frames=frames,
                        velocity_inner=y @ dot0, _dense=sol.sol, _dot0=dot0)


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
    DC0 = analysis0.connection.gamma[:, 0, 1]  # nabla_H of the fiber field
    jac = integrate_jacobi(path, C0, DC0, rtol=rtol, atol=atol, samples=samples)

    n = model.params.n
    rows = np.empty((samples, 5))
    max_dev = 0.0
    max_ratio = 0.0
    for i, tau in enumerate(jac.taus):
        t = t0 + tau
        r, rp, rpp, _ = profile.evaluate(t)
        f = profile.warp(t)
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
    )
