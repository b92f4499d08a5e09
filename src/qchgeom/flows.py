"""Geodesic and Jacobi-field integration on Chebyshev panels, numpy only.

Both flows march across [0, span] on panels, each carrying its solution as
values at the first-kind Chebyshev nodes of the panel; dense output is the
barycentric formula of the second kind (Trefethen, *Approximation Theory and
Approximation Practice*, ch. 5), added up one node at a time, so a read
holds a few arrays of samples x columns, never samples x nodes x columns.
Each solve hands out that interpolant (``GeodesicPath.states``,
``JacobiResult.dense``), not samples of it: a caller picks its own
parameters, and reads only the columns it uses through a view of the node
values (``Panels.columns``).  On a panel [a, b] the equations are solved in
integral form (Greengard's spectral integration): with S and S2 the
Chebyshev matrices that integrate node values once and twice from a,

    x'' = A   becomes   x = x(a) + (tau - a) x'(a) + S2 A,   x' = x'(a) + S A.

* The geodesic x'' = -Gamma(x)(x', x') is solved by Picard iteration of that
  form, one batched ``PointAnalysis`` of the panel's nodes per iteration,
  started from the straight line through the state at the panel's start.
  On the axial line of the warped metric Gamma(e_t, e_t) = 0 and the first
  iteration is already the fixed point.
* The Jacobi system is integrated in a parallel-transported orthonormal
  frame, which turns the covariant second derivative into a plain one:
  carrying the frame rows e_a alongside the geodesic, the field
  C = sum_a y_a e_a solves y_a'' = R(cdot, e_b, cdot, e_a) y_b.  Its
  coefficients, the transport matrix T = Gamma(cdot, .) and the Jacobi
  operator K(tau), are evaluated jet-exactly at the panel's nodes, and the
  system is linear in them: per panel one collocation solve for the frame,
  F' = -F T^T, and one for y'' = (F K^T F^T) y.  Where T, K and F are
  diagonal at every node, as on the axial line of the warped metric, each
  solve is d systems of p unknowns; else it is one in p d.  In the parallel
  frame |C| is the Euclidean norm of y and g(cdot, C) = y . g(cdot, e_a), a
  row fixed at the start (``JacobiResult.velocity_row``), so the decay
  diagnostics near the collapsing end of the chart stay well conditioned
  even though coordinate components blow up like 1/f there.

Both flows read Gamma only along the velocity, Gamma^k(cdot, .) =
``curvature.connection_along``, and K from the first-kind form of R
(``curvature.jacobi_operator``): no flow builds the second-kind array
``PointAnalysis.gamma``, and none assembles the dense metric Hessian.  K
reads the metric's second derivatives along cdot, which a bundle model
contracts from its z-only parts and t-warps (``geometry.BundleJet``).  So
each analysis of the flows is directional (``batch_analyses(...,
directional=True)``): where a panel's nodes share one z, as on the axial
line, the parts are built once for the panel and the analysis holds d^3
entries per node, so a whole panel of 24 nodes is one analysis while
24 d^3 fits ``curvature.BATCH_ELEMENTS`` (d <= 14; two of 12 at d = 16),
and off the axis the panel goes in slices of ``curvature.DIRECTIONS`` d^3
entries per node.

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
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev

from .batch import inner, matvec, mT
from .curvature import PointAnalysis, batch_analyses, connection_along, jacobi_operator
from .geometry import END_MARGIN_FRAC, _gram_schmidt
from .qch import kappa_closed_form

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
# cap ends only an iteration that stalls.
MAX_PICARD = 24

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
        """Values at a float or an array of parameters in [edges[0],
        edges[-1]]: taus.shape + value shape.  The formula is applied to the
        differences from each panel's first node value, so a constant comes
        back bit for bit, and a tau on a node reads that node's value.  Its sum
        is added up one node at a time, in node order, each column on its
        own: the working set is a few arrays of taus.size x columns, and a
        caller that reads a view of some columns (``columns``) gets them as
        the whole read would give them.  A tau outside the panels raises
        ``ValueError``."""
        taus = np.asarray(taus, dtype=float)
        flat = taus.reshape(-1)
        lo, hi = self.edges[0], self.edges[-1]
        outside = ~((flat >= lo) & (flat <= hi))
        if outside.any():
            raise ValueError(f"tau = {float(flat[outside][0])!r} lies outside the panels' "
                             f"span [{float(lo)!r}, {float(hi)!r}]")
        i = np.minimum(np.searchsorted(self.edges, flat, side="right") - 1, self.count - 1)
        a, b = self.edges[i], self.edges[i + 1]
        gap = ((2.0 * flat - a - b) / (b - a))[:, None] - _NODES
        hit = gap == 0.0
        on_node = hit.any(axis=1)
        q = np.where(on_node[:, None], hit, _WEIGHTS / np.where(hit, 1.0, gap))
        q = q.reshape(q.shape + (1,) * (self.values.ndim - 2))
        first = self.values[i, 0]
        total = q[:, 0] * (first - first)     # node 0's term, then the rest in order
        for k in range(1, PANEL_NODES):
            step = self.values[i, k]
            step -= first
            step *= q[:, k]
            total += step
        total /= q.sum(axis=1)
        total += first
        total[on_node] = self.values[i[on_node], hit[on_node].argmax(axis=1)]
        return total.reshape(taus.shape + self.values.shape[2:])

    def columns(self, which) -> "Panels":
        """The interpolant of some columns of the last value axis (a slice, or
        an index for one column as scalar values), on a view of the node
        values."""
        return Panels(self.edges, self.values[..., which])

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
    evaluations it made; and ``finish``, called once it is accepted, giving
    its dense node values (p, m) and the state at its right end."""

    tables: np.ndarray | None
    evaluations: int
    finish: Callable[[], tuple[np.ndarray, object]] | None


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
    certified.  A rejected panel is tried again at half its length, and the
    panel after it does not grow.  Once ``MAX_PANELS`` panels are certified,
    or as many rejected, short of span, the solve raises ``FlowError`` naming
    the solve (``name``) and the tau its certified part reached.
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
            length, grow = 0.5 * (b - a), False
            continue
        factor = _length_factor(envelope, np.maximum(floor, _TINY))
        length = (b - a) * (factor if grow else min(factor, 1.0))
        grow = True
        node_values, state = piece.finish()
        values.append(node_values)
        edges.append(b)
    return PanelSolution(t=np.array(edges), values=np.stack(values), nfev=nfev)


# -- geodesics --------------------------------------------------------------------


@dataclass
class GeodesicPath:
    """A solved geodesic with dense output on [0, span]."""

    field: object
    span: float
    stats: SolveStats
    dense: Panels           # packed (position, velocity) on the solve's panels
    start: tuple[np.ndarray, np.ndarray]   # the exact (position, velocity) at tau = 0

    def states(self, taus) -> tuple[np.ndarray, np.ndarray]:
        """(positions, velocities) at a float or an array of parameters."""
        packed = self.dense(taus)
        return packed[..., :self.field.dim], packed[..., self.field.dim:]

    @cached_property
    def start_analysis(self) -> PointAnalysis:
        """The analysis of the exact start position, built once for every
        solve and diagnostic that reads it."""
        return PointAnalysis(self.field, self.start[0])


def geodesic_acceleration(analysis: PointAnalysis, v: np.ndarray) -> np.ndarray:
    """-Gamma^k_ij v^i v^j at the analysed point(s), for v of shape B + (d,)."""
    return -matvec(connection_along(analysis, v), v)


def _geodesic_panel(field, a: float, b: float, start) -> _Trial:
    """Picard iteration of the integral form on [a, b] from the position and
    velocity at a, started from the straight line through them.  It stops
    when an iterate moves no node further than the rounding of the values; a
    panel whose iterates contract too slowly to get there within
    ``MAX_PICARD`` iterations is returned as failed, and an iteration past
    the cap raises ``FlowError``."""
    x, v = start
    h2 = 0.5 * (b - a)
    line = x + np.outer((_NODES + 1.0) * h2, v)
    X, V = line, np.broadcast_to(v, line.shape)
    p = PANEL_NODES
    history = []
    while True:
        if len(history) == MAX_PICARD:
            raise FlowError(f"geodesic Picard iteration exceeds {MAX_PICARD} iterations "
                            f"on the panel at tau = {a:.6g}")
        acc = np.empty_like(X)
        for sl, analysis in batch_analyses(field, X, directional=True):
            acc[sl] = geodesic_acceleration(analysis, V[sl])
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
                return _Trial(None, p * len(history), None)

    def finish():
        end = (x + 2.0 * h2 * v + h2 * h2 * (_S2[p] @ acc), v + h2 * (_S1[p] @ acc))
        return np.concatenate([X, V], axis=1), end

    return _Trial(np.stack([X, V], axis=1), p * len(history), finish)


def integrate_geodesic(field, x0: np.ndarray, v0: np.ndarray, span: float) -> GeodesicPath:
    """Integrate the geodesic equation x'' = -Gamma(x)(x', x') on [0, span]
    from the position x0 and the velocity v0, in chart coordinates."""
    sol = solve_ivp(lambda a, b, state: _geodesic_panel(field, a, b, state), span,
                    (x0, v0), name="geodesic tables")
    return GeodesicPath(field=field, span=span, stats=sol.stats,
                        dense=Panels(sol.t, sol.values),
                        start=(np.array(x0, dtype=float), np.array(v0, dtype=float)))


def geodesic_residuals(path: GeodesicPath, taus) -> np.ndarray:
    """|nabla_cdot cdot| at each of the parameters ``taus``: the acceleration
    is the derivative of the panels' interpolant (``Panels.derivative``),
    Gamma is re-evaluated at its points."""
    taus = np.asarray(taus, dtype=float)
    x, v = path.states(taus)
    vdot = path.dense.derivative().columns(slice(x.shape[-1], None))(taus)
    analysis = PointAnalysis(path.field, x)
    res = vdot - geodesic_acceleration(analysis, v)
    return np.sqrt(inner(analysis.g, res, res))


# -- the Jacobi flow --------------------------------------------------------------


def coefficients_at(path: GeodesicPath, taus: np.ndarray) -> np.ndarray:
    """(N, 2, d, d): the transport matrix T[k, j] = Gamma^k(cdot, e_j), along
    which parallel frame rows e change as e' = -e T^T, and K =
    ``jacobi_operator`` along cdot at the geodesic's points of parameters
    ``taus``, jet-exact, from one array call into the dense output and one
    batched directional analysis per memory-bounded slice."""
    x, v = path.states(taus)
    d = x.shape[1]
    out = np.empty((len(x), 2, d, d))
    for sl, analysis in batch_analyses(path.field, x, directional=True):
        out[sl, 0] = connection_along(analysis, v[sl])
        out[sl, 1] = jacobi_operator(analysis, v[sl])
    return out


def _grouped_solve(weights: np.ndarray, tables: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """X (p, d, r) with X[j] + sum_k weights[j, k] tables[k] X[k] = rhs[j],
    for tables (p, d, d) and rhs (p, d, r).  When every table is diagonal at
    every node the system splits into d systems in p unknowns, solved as one
    batch; else it is one system in p * d unknowns.  (The axial flow's tables
    are diagonal, and an off-axis flow couples every coordinate.)"""
    p, d = tables.shape[:2]
    diagonal = not tables[:, ~np.eye(d, dtype=bool)].any()
    members = np.arange(d).reshape((d, 1) if diagonal else (1, d))
    count, size = members.shape
    sub = tables[:, members[:, :, None], members[:, None, :]]    # (p, count, size, size)
    system = weights[:, None, :, None] * sub.transpose(1, 2, 0, 3)[:, None]
    system = system.reshape(count, p * size, p * size) + np.eye(p * size)
    part = rhs[:, members].transpose(1, 0, 2, 3).reshape(count, p * size, -1)
    solved = np.linalg.solve(system, part).reshape(count, p, size, -1)
    return solved.transpose(1, 0, 2, 3).reshape(rhs.shape)


def _jacobi_panel(h2: float, coefficients: np.ndarray, frame: np.ndarray, y: np.ndarray,
                  yp: np.ndarray):
    """Collocation of the transport + Jacobi system on one panel of half-length
    h2, from the coefficients at its nodes (p, 2, d, d) and the state at its
    left end: (node values (p, d d + 2 d), state at its right end)."""
    p, d = PANEL_NODES, y.shape[0]
    transport, K = coefficients[:, 0], coefficients[:, 1]
    # every frame row e solves e' = -T e: d right-hand sides
    rows = _grouped_solve(_S1[:p], h2 * transport, np.broadcast_to(frame.T, (p, d, d)))
    frames = rows.transpose(0, 2, 1)
    frame_end = frame - h2 * (_S1[p] @ (frames @ mT(transport)).reshape(p, -1)).reshape(d, d)
    # y'' = M y with M = F K^T F^T, the Jacobi matrix of the frame
    M = frames @ mT(K) @ mT(frames)
    line = y + np.outer((_NODES + 1.0) * h2, yp)
    ys = _grouped_solve(_S2[:p], -h2 * h2 * M, line[..., None])[..., 0]
    ypp = matvec(M, ys)
    yps = yp + h2 * (_S1[:p] @ ypp)
    end = (frame_end, y + 2.0 * h2 * yp + h2 * h2 * (_S2[p] @ ypp),
           yp + h2 * (_S1[p] @ ypp))
    return np.concatenate([frames.reshape(p, d * d), ys, yps], axis=1), end


@dataclass
class JacobiResult:
    """Jacobi field along a geodesic, in the transported frame, as panels."""

    path: GeodesicPath
    stats: SolveStats
    dense: Panels               # packed (frame, y, y') on the solve's panels
    velocity_row: np.ndarray    # (d,) g(cdot, e_a), parallel-constant: g(cdot, C) = y . it


def _initial_frame(analysis: PointAnalysis, velocity: np.ndarray) -> np.ndarray:
    """Orthonormal frame with e_0 = cdot(0): cdot(0) first, then the chart
    frame without its row of largest |g(e_a, cdot)|, orthonormalised in that
    order."""
    frame, g = analysis.frame, analysis.g
    drop = np.argmax(np.abs(frame @ g @ velocity))
    return _gram_schmidt(np.vstack([velocity, np.delete(frame, drop, axis=0)]), g)


def integrate_jacobi(path: GeodesicPath, C0: np.ndarray, DC0: np.ndarray) -> JacobiResult:
    """Integrate nabla^2 C = R(cdot, C) cdot along a solved geodesic.

    Each panel evaluates Gamma(., cdot) and the directional Jacobi operator
    (``curvature.jacobi_operator``) jet-exactly at its nodes; once those
    tables certify, the linear system is solved on the panel by collocation
    (``_jacobi_panel``).  The start frame and metric are taken at the
    geodesic's exact start (``GeodesicPath.start_analysis``), not at its
    interpolant.
    """
    v0 = path.start[1]
    analysis0 = path.start_analysis
    frame0 = _initial_frame(analysis0, v0)
    g0 = analysis0.g
    y0 = frame0 @ g0 @ np.asarray(C0, dtype=float)
    yp0 = frame0 @ g0 @ np.asarray(DC0, dtype=float)

    def trial(a, b, state):
        coefficients = coefficients_at(path, 0.5 * (a + b) + 0.5 * (b - a) * _NODES)
        return _Trial(coefficients, PANEL_NODES,
                      lambda: _jacobi_panel(0.5 * (b - a), coefficients, *state))

    sol = solve_ivp(trial, path.span, (frame0, y0, yp0), name="jacobi coefficient tables")
    return JacobiResult(path=path, stats=sol.stats, dense=Panels(sol.t, sol.values),
                        velocity_row=frame0 @ g0 @ v0)


def jacobi_equation_residual(result: JacobiResult, taus) -> float:
    """max |nabla^2 C - R(cdot, C) cdot| on the integrated solution (frame
    comps): y'' from the panels' interpolant of y' (``Panels.derivative``),
    and R(cdot, C) cdot = M y with M = F K^T F^T for the frame rows F and K
    from ``jacobi_operator``, as the panels take it."""
    taus = np.asarray(taus, dtype=float)
    d = len(result.velocity_row)
    packed = result.dense.columns(slice(d * d + d))(taus)
    frame, y = packed[..., :d * d].reshape(packed.shape[:-1] + (d, d)), packed[..., d * d:]
    ypp = result.dense.derivative().columns(slice(d * d + d, None))(taus)
    x, v = result.path.states(taus)
    K = jacobi_operator(PointAnalysis(result.path.field, x), v)
    M = frame @ mT(K) @ mT(frame)
    return float(np.abs(ypp - matvec(M, y)).max())


# -- the decay experiment -----------------------------------------------------


@dataclass
class DecayReport:
    """Decay law of the Jacobi field carrying the fiber Killing vector: one
    row per sample, and the geodesic equation's residual at 7 interior
    parameters of the flow."""

    rows: np.ndarray          # columns: t, |C|, f(t), ratio_residual, g(cdot, C)
    geodesic_residuals: np.ndarray
    geodesic_stats: SolveStats
    jacobi_stats: SolveStats  # exact coefficient evaluations, certified panels

    COLUMNS = ("t", "C_norm", "f", "ratio_residual", "g_cdot_C")

    def residuals(self) -> dict[str, np.ndarray]:
        """Each sample's residual under the name of the ``suite.CHECKS`` check
        it feeds; the collapse is |C| at the last sample over the first."""
        _, norm, f, ratio, inner = self.rows.T
        return {"decay_norm_tracks_warp": np.abs(norm - f), "decay_ratio_law": ratio,
                "decay_collapse": norm[-1] / norm[0], "decay_velocity_inner": np.abs(inner),
                "geodesic_residual": self.geodesic_residuals}

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            for row in self.rows:
                writer.writerow([format(v, ".17g") for v in row])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x . y per row, rounded as the 1-D dot product of each row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def jacobi_decay_experiment(model, t0: float, t_end: float, *, samples: int) -> DecayReport:
    """Integrate the Jacobi field that restricts the fiber Killing field along
    the t-line geodesic through psi = 0, z = 0 and compare against the closed
    forms.

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
    margin = END_MARGIN_FRAC * L
    if not (0.0 < t0 < t_end <= L - margin + 1e-12):
        raise ValueError(
            f"experiment window [{t0}, {t_end}] must sit inside (0, {L - margin}]")
    d = model.dim
    x0 = np.zeros(d)
    x0[0] = t0
    v0 = np.zeros(d)
    v0[0] = 1.0

    path = integrate_geodesic(model, x0, v0, t_end - t0)
    C0 = np.zeros(d)
    C0[1] = 1.0  # the fiber field: f(t0) JH in coordinates
    DC0 = connection_along(path.start_analysis, v0)[:, 1]  # nabla_H of the fiber field
    jac = integrate_jacobi(path, C0, DC0)

    n = model.n
    taus = np.linspace(0.0, path.span, samples)
    packed = jac.dense.columns(slice(d * d, None))(taus)
    y, yp = packed[:, :d], packed[:, d:]
    velocity_inner = y @ jac.velocity_row
    t = t0 + taus
    r, rp, rpp, rppp = profile.evaluate(t)
    f = profile.warp_from(r, rp, rpp, rppp)[0]
    norm = np.sqrt(_dot(y, y))
    dlog_c = _dot(y, yp) / _dot(y, y)
    dlog_kappa = rpp / rp - rp / r
    theta_cdot = path.dense.columns(slice(d, d + 1))(taus)[:, 0]
    kappa = kappa_closed_form(n, r, rp)
    ratio_res = np.abs(dlog_kappa - dlog_c + kappa * theta_cdot / (n - 1))
    rows = np.column_stack([t, norm, f, ratio_res, velocity_inner])

    interior = np.linspace(0.05, 0.95, 7) * path.span
    return DecayReport(rows=rows, geodesic_residuals=geodesic_residuals(path, interior),
                       geodesic_stats=path.stats, jacobi_stats=jac.stats)
