"""Geodesic and Jacobi-field integration on Chebyshev panels, numpy only.

Both flows march across [0, span] on panels, each carrying its solution as
values at the first-kind Chebyshev nodes of the panel; dense output is the
barycentric formula of the second kind (Trefethen, *Approximation Theory and
Approximation Practice*, ch. 5).  On a panel [a, b] the equations are solved
in integral form (Greengard's spectral integration): with S and S2 the
Chebyshev matrices that integrate node values once and twice from a,

    x'' = A   becomes   x = x(a) + (tau - a) x'(a) + S2 A,   x' = x'(a) + S A.

* The geodesic x'' = -Gamma(x)(x', x') is solved by Picard iteration of that
  form, one batched ``PointAnalysis`` of the panel's nodes per iteration,
  started on each panel after the first from the cubic Taylor continuation
  of the previous one's end.  On the axial line of the warped metric
  Gamma(e_t, e_t) = 0 and the first iteration is already the fixed point.
* The Jacobi system is integrated in a parallel-transported orthonormal
  frame, which turns the covariant second derivative into a plain one:
  carrying the frame rows e_a alongside the geodesic, the field
  C = sum_a y_a e_a solves y_a'' = R(cdot, e_b, cdot, e_a) y_b.  Its
  coefficients, the transport matrix Gamma(., cdot) and the Jacobi operator
  K(tau), are evaluated jet-exactly at the panel's nodes, and the system is
  linear in them: per panel one block solve for the frame, F' = -F T^T, and
  one for y'' = (F K^T F^T) y, each in p d unknowns.  In the parallel frame
  |C| is the Euclidean norm of y and g(cdot, C) is a fixed linear functional
  of y, so the decay diagnostics near the collapsing end of the chart stay
  well conditioned even though coordinate components blow up like 1/f there.

A panel is accepted when the tail of its Chebyshev coefficients lies at the
roundoff floor of the values met in the window (``_certificate``); the next
panel's length comes from the decay of the accepted one's coefficients, and a
rejected panel is tried again shorter.  Every solve is bounded: once
``MAX_PANELS`` panels are certified, or as many rejected, short of the end,
or past ``MAX_PICARD`` iterations on one panel, it raises ``FlowError``
(exit 3 from the CLI).

The equation residuals of both flows read the derivative of the same
interpolant (``Panels.derivative``): the Chebyshev differentiation matrix on
each panel's nodes, exact for its polynomial, so no step enters them.
"""

from __future__ import annotations

import csv
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev

from .batch import inner, matvec, mT
from .curvature import PointAnalysis, batch_slices, contract_slots, jacobi_operator

# Chebyshev nodes per panel, and the most panels one solve may certify, and
# reject, before it is abandoned (FlowError, exit 3).  The desk runs and the
# ends of the profile range certify 12 to 16.  A coefficient that jumps
# inside the window never certifies: the panels close in on the jump, halved
# on each rejection, until the cap, by then within about 1e-10 of the window
# of it and with nodes still distinct in double precision.
PANEL_NODES = 24
MAX_PANELS = 32

# Picard iterations one geodesic panel may take.  A panel whose iterates
# contract too slowly to meet the cap is rejected and tried shorter, so the
# cap ends only an iteration that stalls.  Panels are sized for a contraction
# rate of about PICARD_RATE per iteration, which scales with their length.
MAX_PICARD = 24
PICARD_RATE = 0.1

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


class FlowError(RuntimeError):
    """Geodesic or Jacobi integration failed."""


@dataclass(frozen=True)
class SolveStats:
    """Work of one solve: exact evaluations (one per point analysed) and
    accepted panels."""

    nfev: int
    steps: int


def _chebyshev(p: int):
    """First-kind Chebyshev nodes on [-1, 1], their barycentric weights, the
    matrix taking node values to Chebyshev coefficients (a DCT-II), the
    matrices that integrate the interpolant once and twice from -1 (rows at
    the nodes, then a last row at +1), and the one that differentiates it
    (rows at the nodes)."""
    theta = (2 * np.arange(p) + 1) * np.pi / (2 * p)
    nodes = np.cos(theta)
    to_coeffs = 2.0 / p * np.cos(np.outer(np.arange(p), theta))
    to_coeffs[0] *= 0.5
    at = np.append(nodes, 1.0)
    once = chebyshev.chebvander(at, p) @ chebyshev.chebint(to_coeffs, 1, lbnd=-1.0)
    twice = chebyshev.chebvander(at, p + 1) @ chebyshev.chebint(to_coeffs, 2, lbnd=-1.0)
    derivative = chebyshev.chebvander(nodes, p - 2) @ chebyshev.chebder(to_coeffs)
    return nodes, (-1.0) ** np.arange(p) * np.sin(theta), to_coeffs, once, twice, derivative


_NODES, _WEIGHTS, _TO_COEFFS, _S1, _S2, _D = _chebyshev(PANEL_NODES)


@dataclass
class Panels:
    """Values at the Chebyshev nodes of consecutive panels, evaluable anywhere
    on [edges[0], edges[-1]] by the barycentric formula."""

    edges: np.ndarray    # (P + 1,) panel boundaries
    values: np.ndarray   # (P, PANEL_NODES) + value shape

    @property
    def count(self) -> int:
        return len(self.edges) - 1

    def __call__(self, taus) -> np.ndarray:
        """Values at a float or an array of parameters: taus.shape + value
        shape.  The formula is applied to the differences from each panel's
        first node value, so a constant comes back bit for bit."""
        taus = np.asarray(taus, dtype=float)
        flat = taus.reshape(-1)
        i = np.clip(np.searchsorted(self.edges, flat, side="right") - 1, 0, self.count - 1)
        a, b = self.edges[i], self.edges[i + 1]
        gap = ((2.0 * flat - a - b) / (b - a))[:, None] - _NODES
        hit = gap == 0.0
        q = np.where(hit.any(axis=1, keepdims=True), hit, _WEIGHTS / np.where(hit, 1.0, gap))
        values = self.values[i]
        first = values[:, :1]
        q = q.reshape(q.shape + (1,) * (values.ndim - 2))
        out = first[:, 0] + (q * (values - first)).sum(axis=1) / q.sum(axis=1)
        return out.reshape(taus.shape + self.values.shape[2:])

    def derivative(self) -> "Panels":
        """The tau-derivative of the interpolant, as its values at the same
        nodes: on each panel a polynomial of one degree less, so it is
        interpolated exactly."""
        count, p = self.values.shape[:2]
        slopes = _D @ self.values.reshape(count, p, -1)
        scale = 2.0 / np.diff(self.edges)
        return Panels(self.edges, (scale[:, None, None] * slopes).reshape(self.values.shape))


# -- the panel march ------------------------------------------------------------


@dataclass
class _Trial:
    """One panel tried by ``solve_ivp``: node values the certificate reads,
    (p, tables) + entries, or None when the panel failed outright; the exact
    evaluations it made; ``finish``, called once it is accepted, giving its
    dense node values (p, m) and the state at its right end; and a bound on
    the next panel's length over this one's."""

    tables: np.ndarray | None
    evaluations: int
    finish: Callable[[], tuple[np.ndarray, object]] | None
    limit: float = np.inf


@dataclass
class PanelSolution:
    """A finished march: ``t`` the accepted panels' edges, ``values`` their
    dense node values, ``nfev`` the exact evaluations of every trial.  A march
    that fails raises, so ``success`` is always true."""

    t: np.ndarray
    values: np.ndarray
    nfev: int
    success: bool = True

    @property
    def stats(self) -> SolveStats:
        return SolveStats(nfev=self.nfev, steps=len(self.t) - 1)


def _certificate(values: np.ndarray):
    """(envelope, tail, plateau) of one panel's node values (p, tables, ...).

    The envelope is the largest |Chebyshev coefficient| of each degree over a
    table's entries, (p, tables); the tail is the largest of its last three.
    It is a noise plateau (and ``plateau`` holds it, else 0) when the
    coefficients fell below eps^(2/3) of their largest and then stopped
    falling: a tail within 10x of the three before it.  Roundoff in the
    values spreads evenly over the coefficients, while a series still
    converging cannot do both within 24 coefficients: falling 10x or less
    per three, it falls no further than about 10^-8, short of eps^(2/3) =
    4e-11 (the criterion of Aurentz and Trefethen's "Chopping a Chebyshev
    series", on one panel's coefficients).
    """
    p, tables = values.shape[:2]
    coeffs = _TO_COEFFS @ values.reshape(p, -1)
    envelope = np.abs(coeffs.reshape(p, tables, -1)).max(axis=-1)
    tail = envelope[-3:].max(axis=0)
    flat = tail >= 0.1 * envelope[-6:-3].max(axis=0)
    fallen = tail <= _EPS ** (2.0 / 3.0) * envelope.max(axis=0)
    return envelope, tail, np.where(flat & fallen, tail, 0.0)


def _length_factor(envelope: np.ndarray, floor: np.ndarray) -> float:
    """The next panel's length over that of this certified one, from the
    decay of its coefficient envelope (p, tables) down to the floor.

    A series decaying like rho^-k belongs to a function analytic inside the
    Bernstein ellipse of parameter rho, i.e. with its nearest singularity
    (x_rho - 1) h/2 past the panel's end, x_rho = (rho + 1/rho)/2, when it
    lies ahead: the pole of Gamma(., cdot) just past the window's end.  rho
    is read off the degree from which the envelope stays within 8x of the
    floor, and the next panel is sized so that the same singularity would
    bring the envelope there by degree p - 5.  Tables within 8x of their
    floor throughout give no bound; the next panel grows at most 2x.
    """
    p = PANEL_NODES
    ratio = envelope.max(axis=0) / (8.0 * floor)
    above = envelope > 8.0 * floor
    used = above.any(axis=0)
    if not used.any():
        return 2.0
    ratio, reach = ratio[used], p - np.argmax(above[::-1], axis=0)[used]
    rho, target = ratio ** (1.0 / reach), ratio ** (1.0 / (p - 5))
    factor = (0.5 * (rho + 1.0 / rho) - 1.0) / (0.5 * (target + 1.0 / target) + 1.0)
    return float(np.clip(factor.min(), 0.125, 2.0))


def solve_ivp(trial: Callable[[float, float, object], _Trial], span: float, state, *,
              name: str) -> PanelSolution:
    """March Chebyshev panels across [0, span] from the initial ``state``.

    ``trial(a, b, state)`` tries the panel [a, b] from the state at a.  A
    panel is certified when, for every table, its coefficient tail lies at
    or below the roundoff floor of the window: the larger of eps times the
    largest value met in the window and the highest noise plateau of any
    panel.  That floor is measured, not set: it follows the noise of the
    evaluations, which differs between tables and across the profile range
    by orders of magnitude.  It only rises, so a certified panel stays
    certified.  A rejected panel is tried again at half its length (or at
    its trial's ``limit``, down to 1/8), and the panel after it does not
    grow.  Once ``MAX_PANELS`` panels are certified, or as many rejected,
    short of span, the solve raises ``FlowError`` naming the solve
    (``name``) and the tau its certified part reached.
    """
    edges, values = [0.0], []
    scale = noise = 0.0
    nfev, rejected, length, grow = 0, 0, span, True
    while edges[-1] < span:
        a = edges[-1]
        if MAX_PANELS in (len(values), rejected):
            raise FlowError(
                f"{name} exceed {MAX_PANELS} panels: no certified Chebyshev interpolant "
                f"near tau = {a:.6g} of {span:.6g}")
        b = min(a + length, span)
        piece = trial(a, b, state)
        nfev += piece.evaluations
        if piece.tables is not None:
            envelope, tail, plateau = _certificate(piece.tables)
            scale = np.maximum(scale, np.abs(piece.tables.reshape(PANEL_NODES, len(tail), -1))
                               .max(axis=(0, 2)))
            noise = np.maximum(noise, plateau)
            floor = np.maximum(_EPS * scale, noise)
        if piece.tables is None or not (tail <= floor).all():
            rejected += 1
            length, grow = (b - a) * min(max(piece.limit, 0.125), 0.5), False
            continue
        factor = _length_factor(envelope, np.maximum(floor, _TINY))
        length = (b - a) * min(factor, piece.limit, np.inf if grow else 1.0)
        grow = True
        node_values, state = piece.finish()
        values.append(node_values)
        edges.append(b)
    return PanelSolution(t=np.array(edges), values=np.stack(values), nfev=nfev)


# -- geodesics --------------------------------------------------------------------


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
    dense: Panels           # packed (position, velocity) on the solve's panels

    def states(self, taus) -> tuple[np.ndarray, np.ndarray]:
        """(positions, velocities) at a float or an array of parameters."""
        d = self.positions.shape[1]
        packed = self.dense(taus)
        return packed[..., :d], packed[..., d:]

    def state(self, tau: float) -> GeodesicState:
        x, v = self.states(tau)
        return GeodesicState(position=x, velocity=v)


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


def _analyses(field, x: np.ndarray):
    """(slice, analysis) over the points x (N, d), one batched analysis per
    memory-bounded slice."""
    return [(sl, PointAnalysis(field, x[sl]))
            for sl in batch_slices(len(x), x.shape[1])]


def _geodesic_panel(field, a: float, b: float, start) -> _Trial:
    """Picard iteration of the integral form on [a, b] from the state at a:
    position, velocity, and, after the first panel, the acceleration and its
    tau-derivative there.  The first iterate is the straight line through the
    state, or with those two its cubic Taylor continuation, which starts a
    curved geodesic near the fixed point.  It stops when an iterate moves no
    node further than the rounding of the values; a panel whose iterates
    contract too slowly to get there within ``MAX_PICARD`` iterations is
    returned as failed, and an iteration past the cap raises ``FlowError``."""
    x, v, acc0, jerk0 = start
    h2 = 0.5 * (b - a)
    step = (_NODES + 1.0) * h2
    line = x + np.outer(step, v)
    X, V = line, np.broadcast_to(v, line.shape)
    if acc0 is not None:
        X = line + np.outer(step ** 2 / 2.0, acc0) + np.outer(step ** 3 / 6.0, jerk0)
        V = V + np.outer(step, acc0) + np.outer(step ** 2 / 2.0, jerk0)
    p = PANEL_NODES
    history = []
    while True:
        if len(history) == MAX_PICARD:
            raise FlowError(f"geodesic Picard iteration exceeds {MAX_PICARD} iterations "
                            f"on the panel at tau = {a:.6g}")
        acc = np.empty_like(X)
        for sl, analysis in _analyses(field, X):
            acc[sl] = geodesic_acceleration(analysis.gamma, V[sl])
        X1 = line + h2 * h2 * (_S2[:p] @ acc)
        V1 = v + h2 * (_S1[:p] @ acc)
        speed = np.abs(V1).max()
        tol_x = 8.0 * _EPS * (np.abs(X1).max() + 2.0 * h2 * speed) + _TINY
        tol_v = 8.0 * _EPS * (speed + 2.0 * h2 * np.abs(acc).max()) + _TINY
        history.append(max(np.abs(X1 - X).max() / tol_x, np.abs(V1 - V).max() / tol_v))
        X, V = X1, V1
        if history[-1] <= 1.0:
            break
        if len(history) > 1:
            rate = history[-1] / history[-2]
            if rate >= 1.0 or len(history) - np.log(history[-1]) / np.log(rate) > MAX_PICARD:
                return _Trial(None, p * len(history), None, PICARD_RATE / rate)

    def finish():
        # the acceleration and its tau-derivative at b, from its Chebyshev
        # coefficients: T_k(1) = 1 and T_k'(1) = k^2
        coeffs = _TO_COEFFS @ acc
        end = (x + 2.0 * h2 * v + h2 * h2 * (_S2[p] @ acc), v + h2 * (_S1[p] @ acc),
               coeffs.sum(axis=0), (np.arange(p) ** 2 @ coeffs) / h2)
        return np.concatenate([X, V], axis=1), end

    # the mean contraction before the last step, which rounding may cut short
    rate = (history[-2] / history[0]) ** (1.0 / (len(history) - 2)) if len(history) > 2 else 0.0
    return _Trial(np.stack([X, V], axis=1), p * len(history), finish,
                  PICARD_RATE / rate if rate else np.inf)


def integrate_geodesic(field, start: GeodesicState, span: float, *,
                       samples: int = 64) -> GeodesicPath:
    """Integrate the geodesic equation x'' = -Gamma(x)(x', x') on [0, span]."""
    sol = solve_ivp(lambda a, b, state: _geodesic_panel(field, a, b, state), span,
                    (start.position, start.velocity, None, None), name="geodesic tables")
    dense = Panels(sol.t, sol.values)
    d = start.position.shape[0]
    taus = np.linspace(0.0, span, samples)
    packed = dense(taus)
    return GeodesicPath(field=field, span=span, taus=taus, positions=packed[:, :d],
                        velocities=packed[:, d:], stats=sol.stats, dense=dense)


def geodesic_residuals(path: GeodesicPath, taus=None):
    """max |nabla_cdot cdot| on the dense solution: the acceleration is the
    derivative of the panels' interpolant (``Panels.derivative``), Gamma is
    re-evaluated at its points."""
    if taus is None:
        taus = path.taus[1:-1]
    taus = np.asarray(taus, dtype=float)
    x, v = path.states(taus)
    vdot = path.dense.derivative()(taus)[..., x.shape[-1]:]
    analysis = PointAnalysis(path.field, x)
    res = vdot - geodesic_acceleration(analysis.gamma, v)
    return float(np.sqrt(inner(analysis.g, res, res)).max())


# -- the Jacobi flow --------------------------------------------------------------


def coefficients_at(path: GeodesicPath, taus: np.ndarray) -> np.ndarray:
    """(N, 2, d, d): Gamma(., cdot) and K = ``jacobi_operator`` along cdot at
    the geodesic's points of parameters ``taus``, jet-exact, from one array
    call into the dense output and one batched analysis per memory-bounded
    slice."""
    x, v = path.states(taus)
    d = x.shape[1]
    out = np.empty((len(x), 2, d, d))
    for sl, analysis in _analyses(path.field, x):
        out[sl, 0] = transport_matrix(analysis.gamma, v[sl])
        out[sl, 1] = jacobi_operator(analysis, v[sl])
    return out


def _block(weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The (p d, p d) matrix of sum_k weights[j, k] blocks[k] acting on the
    node values (p, d) of a vector, flattened."""
    p, d = blocks.shape[:2]
    return (weights[:, None, :, None] * blocks.transpose(1, 0, 2)[None]).reshape(p * d, p * d)


def _jacobi_panel(h2: float, coefficients: np.ndarray, frame: np.ndarray, y: np.ndarray,
                  yp: np.ndarray):
    """Collocation of the transport + Jacobi system on one panel of half-length
    h2, from the coefficients at its nodes (p, 2, d, d) and the state at its
    left end: (node values (p, d d + 2 d), state at its right end)."""
    p, d = PANEL_NODES, y.shape[0]
    transport, K = coefficients[:, 0], coefficients[:, 1]
    # every frame row e solves e' = -T e: one matrix, d right-hand sides
    rows = np.linalg.solve(np.eye(p * d) + h2 * _block(_S1[:p], transport),
                           np.tile(frame.T, (p, 1)))
    frames = rows.reshape(p, d, d).transpose(0, 2, 1)
    frame_end = frame - h2 * (_S1[p] @ (frames @ mT(transport)).reshape(p, -1)).reshape(d, d)
    # y'' = M y with M = F K^T F^T, the Jacobi matrix of the frame
    M = frames @ mT(K) @ mT(frames)
    line = y + np.outer((_NODES + 1.0) * h2, yp)
    ys = np.linalg.solve(np.eye(p * d) - h2 * h2 * _block(_S2[:p], M),
                         line.ravel()).reshape(p, d)
    ypp = matvec(M, ys)
    yps = yp + h2 * (_S1[:p] @ ypp)
    end = (frame_end, y + 2.0 * h2 * yp + h2 * h2 * (_S2[p] @ ypp),
           yp + h2 * (_S1[p] @ ypp))
    return np.concatenate([frames.reshape(p, d * d), ys, yps], axis=1), end


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
    coefficients: Panels      # Gamma(., cdot) and K at the nodes, (P, p, 2, d, d)
    dense: Panels             # packed (frame, y, y') on the solve's panels

    def states(self, taus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(frames, y, y') from the dense solution at a float or an array of
        parameters."""
        return _unpack(self.dense(taus), self.y.shape[1])


def _unpack(packed: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(frames, y, y') from packed Jacobi states B + (d d + 2 d,)."""
    return (packed[..., :d * d].reshape(packed.shape[:-1] + (d, d)),
            packed[..., d * d:d * d + d], packed[..., d * d + d:])


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
                     samples: int = 200) -> JacobiResult:
    """Integrate nabla^2 C = R(cdot, C) cdot along a solved geodesic.

    Each panel evaluates Gamma(., cdot) and the directional Jacobi operator
    (``curvature.jacobi_operator``) jet-exactly at its nodes; once those
    tables certify, the linear system is solved on the panel by collocation
    (``_jacobi_panel``).  The certified tables are kept as the result's
    ``coefficients``.
    """
    field = path.field
    start = path.state(0.0)
    analysis0 = PointAnalysis(field, start.position)
    frame0 = _initial_frame(analysis0, start.velocity)
    g0 = analysis0.g
    y0 = frame0 @ g0 @ np.asarray(C0, dtype=float)
    yp0 = frame0 @ g0 @ np.asarray(DC0, dtype=float)
    dot0 = frame0 @ g0 @ start.velocity  # g(cdot, e_a), parallel-constant
    tables = []

    def trial(a, b, state):
        coefficients = coefficients_at(path, 0.5 * (a + b) + 0.5 * (b - a) * _NODES)

        def finish():
            tables.append(coefficients)
            return _jacobi_panel(0.5 * (b - a), coefficients, *state)

        return _Trial(coefficients, PANEL_NODES, finish)

    sol = solve_ivp(trial, path.span, (frame0, y0, yp0), name="jacobi coefficient tables")
    dense = Panels(sol.t, sol.values)
    taus = np.linspace(0.0, path.span, samples)
    frames, y, yp = _unpack(dense(taus), len(y0))
    return JacobiResult(path=path, taus=taus, y=y, yp=yp, frames=frames,
                        velocity_inner=y @ dot0, stats=sol.stats,
                        coefficients=Panels(sol.t, np.stack(tables)),
                        dense=dense)


def jacobi_equation_residual(result: JacobiResult, taus) -> float:
    """max |nabla^2 C - R(cdot, C) cdot| on the integrated solution (frame
    comps), with y'' the derivative of the panels' interpolant of y'
    (``Panels.derivative``)."""
    taus = np.asarray(taus, dtype=float)
    frame, y, _ = result.states(taus)
    _, _, ypp = _unpack(result.dense.derivative()(taus), y.shape[-1])
    x, v = result.path.states(taus)
    analysis = PointAnalysis(result.path.field, x)
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
    jacobi_stats: SolveStats  # exact coefficient evaluations, certified panels

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
                            samples: int = 200) -> DecayReport:
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

    path = integrate_geodesic(model, GeodesicState(x0, v0), t_end - t0)
    analysis0 = PointAnalysis(model, x0)
    C0 = np.zeros(d)
    C0[1] = 1.0  # the fiber field: f(t0) JH in coordinates
    DC0 = analysis0.gamma[:, 0, 1]  # nabla_H of the fiber field
    jac = integrate_jacobi(path, C0, DC0, samples=samples)

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
    )
