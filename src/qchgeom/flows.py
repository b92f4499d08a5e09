"""Geodesic and Jacobi-field integration.

The Jacobi system is integrated in a parallel-transported orthonormal frame,
which turns the covariant second derivative into a plain one: carrying the
frame alongside the geodesic, the field C = sum_a y_a e_a solves

    y_a'' = R(cdot, e_b, cdot, e_a) y_b .

Its coefficients along the geodesic, the transport matrix Gamma(., cdot) and
the Jacobi operator K(tau), are tabulated once per solve on certified
Chebyshev panels (``coefficient_panels``): jet-exact batched analyses at the
first-kind Chebyshev nodes of panels of [0, span], bisected until the tail of
every panel's Chebyshev coefficients lies at the roundoff floor of the values
over the whole window.  Each integrator stage then reads both by barycentric
interpolation.  In the parallel frame |C| is the Euclidean norm of y and
g(cdot, C) is a fixed linear functional of y, so the decay diagnostics near
the collapsing end of the chart stay well conditioned even though coordinate
components blow up like 1/f there.
"""

from __future__ import annotations

import csv
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .batch import inner, matvec, mT
from .curvature import PointAnalysis, batch_slices, contract_slots, jacobi_operator

# right-hand-side evaluations one solve may make before it is abandoned: about
# 10x the most any tier-1 or benchmark configuration needs (about 1,200, the
# Jacobi solves of the warped n = 3 and n = 5 desk runs), so a solve that
# crawls ends in a FlowError (exit 3) instead of running for hours.  Counting
# calls rather than seconds keeps the outcome independent of the machine's
# speed.
MAX_RHS_CALLS = 12_000

# Chebyshev nodes per coefficient panel, and the most panels one Jacobi solve
# may refine its tables into before it is abandoned (FlowError, exit 3).  The
# desk runs and the ends of the profile range need 12 or 13 panels.  A
# coefficient that jumps inside the window never certifies, and with at most
# 32 panels bisection toward it stops 31 halvings deep, where a panel still
# spans 5e-10 of the window and its nodes stay distinct in double precision.
PANEL_NODES = 24
MAX_PANELS = 32

_EPS = np.finfo(float).eps


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

    def states(self, taus) -> tuple[np.ndarray, np.ndarray]:
        """(positions, velocities) at an array of parameters, (N, d) each."""
        d = self.positions.shape[1]
        packed = self._dense(np.asarray(taus, dtype=float)).T
        return packed[:, :d], packed[:, d:]

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
    """-Gamma^k_ij v^i v^j, for v of shape B + (d,)."""
    return -matvec(matvec(gamma, v[..., None, :]), v)


def transport_matrix(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T[k, j] = Gamma^k_ij v^i, for v of shape B + (d,): parallel frame rows e
    along velocity v change as d/dtau e = -e @ T^T."""
    return (v[..., None, None, :] @ gamma)[..., 0, :]


def jacobi_matrix(R4: np.ndarray, v: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """M[a, b] = R(v, e_b, v, e_a): the Jacobi operator in the frame rows e,
    for R4 of batch shape B, v of B + (d,) and frame of B + (d, d)."""
    return mT(contract_slots(R4, v, frame, v, frame, rank=4))


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
    packed = sol.sol(taus).T
    return GeodesicPath(field=field, span=span, taus=taus,
                        positions=packed[:, :d], velocities=packed[:, d:],
                        stats=_stats(sol), _dense=sol.sol)


def geodesic_residuals(path: GeodesicPath, taus=None, step: float = 1e-4):
    """max |nabla_cdot cdot| re-evaluated on the dense solution by differencing."""
    if taus is None:
        taus = path.taus[1:-1]
    taus = np.asarray(taus, dtype=float)
    _, plus = path.states(taus + step)
    _, minus = path.states(taus - step)
    x, v = path.states(taus)
    vdot = (plus - minus) / (2.0 * step)
    analysis = PointAnalysis(path.field, path.field.point(x))
    res = vdot - geodesic_acceleration(analysis.gamma, v)
    return float(np.sqrt(inner(analysis.g, res, res)).max())


# -- coefficient panels ---------------------------------------------------------


def _chebyshev(p: int):
    """First-kind Chebyshev nodes on [-1, 1], their barycentric weights
    (Trefethen, ATAP ch. 5) and the matrix taking values at the nodes to
    Chebyshev coefficients (a DCT-II)."""
    theta = (2 * np.arange(p) + 1) * np.pi / (2 * p)
    to_coeffs = 2.0 / p * np.cos(np.outer(np.arange(p), theta))
    to_coeffs[0] *= 0.5
    return np.cos(theta), (-1.0) ** np.arange(p) * np.sin(theta), to_coeffs


_NODES, _WEIGHTS, _TO_COEFFS = _chebyshev(PANEL_NODES)


def coefficients_at(path: GeodesicPath, taus: np.ndarray) -> np.ndarray:
    """(N, 2, d, d): Gamma(., cdot) and K = ``jacobi_operator`` along cdot at
    the geodesic's points of parameters ``taus``, jet-exact, from one array
    call into the dense output and one batched analysis per memory-bounded
    slice."""
    field = path.field
    x, v = path.states(taus)
    d = x.shape[1]
    out = np.empty((len(x), 2, d, d))
    for sl in batch_slices(len(x), d):
        analysis = PointAnalysis(field, field.point(x[sl]))
        out[sl, 0] = transport_matrix(analysis.gamma, v[sl])
        out[sl, 1] = jacobi_operator(analysis, v[sl])
    return out


def _certificate(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tail, plateau) of panels with node values (P, p, 2, d, d), per panel
    and table (P, 2).

    The tail is the largest of the panel's last three Chebyshev coefficients,
    over all entries.  It is a noise plateau (and ``plateau`` holds it, else
    0) when the coefficients fell below eps^(2/3) of their largest and then
    stopped falling: a tail within 10x of the three before it.  Roundoff in
    the values spreads evenly over the coefficients, while a series still
    converging cannot do both within 24 coefficients: falling 10x or less per
    three, it falls no further than about 10^-8, short of eps^(2/3) = 4e-11
    (the criterion of Aurentz and Trefethen's "Chopping a Chebyshev series",
    on one panel's coefficients).
    """
    coeffs = np.einsum("kj,pjq...->pkq...", _TO_COEFFS, values)
    envelope = np.abs(coeffs.reshape(coeffs.shape[:3] + (-1,))).max(axis=-1)
    tail = envelope[:, -3:].max(axis=1)
    flat = tail >= 0.1 * envelope[:, -6:-3].max(axis=1)
    fallen = tail <= _EPS ** (2.0 / 3.0) * envelope.max(axis=1)
    return tail, np.where(flat & fallen, tail, 0.0)


@dataclass
class CoefficientPanels:
    """Gamma(., cdot) and the Jacobi operator K along a solved geodesic, as
    Chebyshev interpolants on certified panels of [0, span]."""

    edges: np.ndarray    # (P + 1,) panel boundaries
    values: np.ndarray   # (P, PANEL_NODES, 2, d, d) exact values at each panel's nodes
    evaluations: int     # exact evaluations made, those of bisected panels included

    def __post_init__(self):
        self._bounds = self.edges.tolist()  # bisect on a list beats searchsorted on a float
        self._flat = self.values.reshape(self.values.shape[:2] + (-1,))

    @property
    def count(self) -> int:
        return len(self.edges) - 1

    def __call__(self, tau: float) -> np.ndarray:
        """(2, d, d): Gamma(., cdot) and K at ``tau``, by the barycentric
        formula of the second kind on the panel holding it."""
        i = min(max(bisect_right(self._bounds, tau) - 1, 0), self.count - 1)
        a, b = self._bounds[i], self._bounds[i + 1]
        gap = (2.0 * tau - a - b) / (b - a) - _NODES
        if not gap.all():  # tau on a node
            return self.values[i, np.argmin(np.abs(gap))]
        q = _WEIGHTS / gap
        return ((q @ self._flat[i]) / q.sum()).reshape(self.values.shape[2:])


def coefficient_panels(path: GeodesicPath) -> CoefficientPanels:
    """Tabulate Gamma(., cdot) and K along ``path`` on certified panels.

    Refinement starts from the one panel [0, span] and evaluates the nodes of
    all new panels in one batch per round.  A panel is certified when, for
    both tables, its coefficient tail (``_certificate``) lies at or below the
    roundoff floor of the window: the larger of eps times the largest value
    met anywhere in the window and the highest noise plateau of any panel.
    That floor is measured, not set: it follows the noise of the evaluations,
    which differs between the two tables and across the profile range by
    orders of magnitude.  Uncertified panels are bisected; past
    ``MAX_PANELS`` the solve raises ``FlowError``.  The floor only rises, so
    a certified panel stays certified.
    """
    certified, pending = [], [(0.0, path.span)]
    scale = noise = np.zeros(2)
    evaluations = 0
    while pending:
        if len(certified) + len(pending) > MAX_PANELS:
            a, b = pending[0]
            raise FlowError(
                f"jacobi coefficient tables exceed {MAX_PANELS} panels: no certified "
                f"Chebyshev interpolant near tau = {0.5 * (a + b):.6g} of {path.span:.6g}")
        bounds = np.array(pending)
        taus = (bounds.mean(axis=1)[:, None]
                + 0.5 * (bounds[:, 1] - bounds[:, 0])[:, None] * _NODES).ravel()
        fresh = coefficients_at(path, taus)
        fresh = fresh.reshape((len(pending), PANEL_NODES) + fresh.shape[1:])
        evaluations += len(taus)
        scale = np.maximum(scale, np.abs(fresh).max(axis=(0, 1, 3, 4)))
        tail, plateau = _certificate(fresh)
        noise = np.maximum(noise, plateau.max(axis=0))
        good = (tail <= np.maximum(_EPS * scale, noise)).all(axis=1)
        certified += [(a, v) for (a, _), v, ok in zip(pending, fresh, good) if ok]
        pending = [half for (a, b), ok in zip(pending, good) if not ok
                   for half in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
    certified.sort(key=lambda panel: panel[0])
    return CoefficientPanels(edges=np.array([a for a, _ in certified] + [path.span]),
                             values=np.stack([v for _, v in certified]),
                             evaluations=evaluations)


# -- the Jacobi flow --------------------------------------------------------------


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
    coefficients: CoefficientPanels
    _dense: object = None

    def coordinate_field(self, idx: int) -> np.ndarray:
        """C in chart coordinates at sample ``idx``."""
        return self.y[idx] @ self.frames[idx]

    def states(self, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frames, y, y') from the dense solution at an array of parameters."""
        d = self.y.shape[1]
        packed = self._dense(np.asarray(taus, dtype=float)).T
        return (packed[:, :d * d].reshape(-1, d, d), packed[:, d * d:d * d + d],
                packed[:, d * d + d:])


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

    The coefficients of the system, Gamma(., cdot) for the frame transport
    and the directional Jacobi operator (``curvature.jacobi_operator``), come
    from the certified panels of ``coefficient_panels``, built once; each
    right-hand side interpolates them and applies the frame algebra.
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
    table = coefficient_panels(path)

    def rhs(tau, state):
        frame = state[:d * d].reshape(d, d)
        y = state[d * d:d * d + d]
        yp = state[d * d + d:]
        transport, K = table(tau)
        # (frame K^T frame^T) y: the Jacobi matrix of the frame, applied to y
        ypp = frame @ (K.T @ (y @ frame))
        return np.concatenate([(-frame @ transport.T).ravel(), yp, ypp])

    state0 = np.concatenate([frame0.ravel(), y0, yp0])
    sol = _solve("jacobi", rhs, (0.0, path.span), state0, method="DOP853",
                 rtol=rtol, atol=atol, dense_output=True)
    if not sol.success:
        raise FlowError(f"jacobi integration failed: {sol.message}")
    taus = np.linspace(0.0, path.span, samples)
    packed = sol.sol(taus).T
    frames = packed[:, :d * d].reshape(samples, d, d)
    y = packed[:, d * d:d * d + d]
    yp = packed[:, d * d + d:]
    return JacobiResult(path=path, taus=taus, y=y, yp=yp, frames=frames,
                        velocity_inner=y @ dot0, stats=_stats(sol), coefficients=table,
                        _dense=sol.sol)


def jacobi_equation_residual(result: JacobiResult, taus, step: float = 1e-4) -> float:
    """max |nabla^2 C - R(cdot, C) cdot| on the integrated solution (frame comps)."""
    taus = np.asarray(taus, dtype=float)
    _, _, yp_plus = result.states(taus + step)
    _, _, yp_minus = result.states(taus - step)
    ypp = (yp_plus - yp_minus) / (2.0 * step)
    frame, y, _ = result.states(taus)
    x, v = result.path.states(taus)
    field = result.path.field
    analysis = PointAnalysis(field, field.point(x))
    M = jacobi_matrix(analysis.riemann.components, v, frame)
    return float(np.abs(ypp - matvec(M, y)).max())


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
    jacobi_panels: int        # certified coefficient panels of the Jacobi solve
    jacobi_evaluations: int   # exact coefficient evaluations that built them

    COLUMNS = ("t", "C_norm", "f", "ratio_residual", "g_cdot_C")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for row in self.rows:
                writer.writerow([format(v, ".17g") for v in row])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y per row, rounded as the 1-D dot product of each row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


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
    t = t0 + jac.taus
    r, rp, rpp, rppp = profile.evaluate(t)
    f = profile.warp_from(r, rp, rpp, rppp)[0]
    y, yp = jac.y, jac.yp
    norm = np.sqrt(_dot(y, y))
    dlog_c = _dot(y, yp) / _dot(y, y)
    dlog_kappa = rpp / rp - rp / r
    theta_cdot = path.states(jac.taus)[1][:, 0]
    kappa = 2.0 * (n - 1) * rp / r
    ratio_res = np.abs(dlog_kappa - dlog_c + kappa * theta_cdot / (n - 1))
    rows = np.column_stack([t, norm, f, ratio_res, jac.velocity_inner])

    interior = np.linspace(0.05, 0.95, 7) * path.span
    return DecayReport(
        rows=rows,
        max_norm_deviation=float(np.abs(norm - f).max()),
        max_ratio_residual=float(ratio_res.max()),
        decay_factor=float(rows[-1, 1] / rows[0, 1]),
        max_velocity_inner=float(np.abs(jac.velocity_inner).max()),
        geodesic_residual=geodesic_residuals(path, interior),
        geodesic_stats=path.stats,
        jacobi_stats=jac.stats,
        jacobi_panels=jac.coefficients.count,
        jacobi_evaluations=jac.coefficients.evaluations,
    )
