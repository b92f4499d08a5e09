"""Warp-profile machinery.

The warp function r(t) solves r'' = P'(r)/2 with r(0) = x, r'(0) = 0 for a
cubic P chosen so that r climbs from x to y over one half-period [0, L] with
the boundary behaviour (r odd-derivatives vanishing at both ends, endpoint
slopes of f = 2 r r'/s equal to +-1) that lets the warped metric close up
smoothly on the sphere bundle.  The cubic is pinned by four constraints:

    P(x) = 0,  P(y) = 0,  x P'(x) = s,  y P'(y) = -s,

whose unique solution is s/(x y (y - x)) * (t - x)(t - y)(t - x - y).

Along a solution the first integral r'^2 = P(r) holds, which makes every
higher derivative of r, and hence of f, algebraic in r alone.  The dense
evaluator exploits this: only t -> r(t) is interpolated (from the integrator's
dense output); r', r'', r''' and f, f', f'' are recovered exactly from P.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from .jets import Jet2, compose


class ProfileError(RuntimeError):
    """Profile construction or integration failed."""


@dataclass(frozen=True)
class CubicProfilePolynomial:
    """Cubic P(t) = c0 + c1 t + c2 t^2 + c3 t^3 with roots x, y, x + y."""

    x: float
    y: float
    s: float
    coefficients: tuple[float, float, float, float]

    def __call__(self, t):
        c0, c1, c2, c3 = self.coefficients
        return c0 + t * (c1 + t * (c2 + t * c3))

    def deriv1(self, t):
        _, c1, c2, c3 = self.coefficients
        return c1 + t * (2.0 * c2 + 3.0 * c3 * t)

    def deriv2(self, t):
        _, _, c2, c3 = self.coefficients
        return 2.0 * c2 + 6.0 * c3 * t

    def deriv3(self, t):
        return 6.0 * self.coefficients[3]


def build_polynomial(x: float, y: float, s: float) -> CubicProfilePolynomial:
    """Construct the unique admissible cubic for endpoint values (x, y) and pitch s.

    Raises ``ValueError`` on invalid ordering/sign, ``ProfileError`` if the
    constructed polynomial fails its defining constraints (which would indicate
    a numerically degenerate parameter choice).
    """
    if not (0.0 < x < y):
        raise ValueError(f"endpoint values must satisfy 0 < x < y, got x={x}, y={y}")
    if s <= 0.0:
        raise ValueError(f"pitch s must be positive, got s={s}")
    c3 = s / (x * y * (y - x))
    e1 = 2.0 * (x + y)                # sum of roots x, y, x+y
    e2 = x * y + (x + y) ** 2         # sum of pairwise products
    e3 = x * y * (x + y)              # product
    poly = CubicProfilePolynomial(x, y, s, (-c3 * e3, c3 * e2, -c3 * e1, c3))

    scale = max(abs(c) for c in poly.coefficients) * max(1.0, y) ** 3
    for value, label in ((poly(x), "P(x)"), (poly(y), "P(y)")):
        if abs(value) > 1e-12 * scale:
            raise ProfileError(f"{label} = {value} is not zero within tolerance")
    for value, target, label in (
        (x * poly.deriv1(x), s, "x P'(x)"),
        (y * poly.deriv1(y), -s, "y P'(y)"),
    ):
        if abs(value - target) > 1e-12 * max(1.0, abs(s)):
            raise ProfileError(f"{label} = {value}, expected {target}")
    samples = x + (y - x) * (np.arange(1, 21) / 21.0)
    if not np.all(poly(samples) > 0.0):
        raise ProfileError("cubic is not positive on the interior of (x, y)")
    return poly


def period_length(poly: CubicProfilePolynomial, *, tol: float = 1e-9) -> float:
    """Half-period L = integral over [x, y] of dt / sqrt(P(t)).

    The inverse-square-root endpoint singularities are removed by the
    substitution t = x + (y - x) sin^2(u), after which the integrand
    2 / sqrt(c3 (y - (y - x) sin^2 u)) is smooth on [0, pi/2].
    """
    x, y = poly.x, poly.y
    c3 = poly.coefficients[3]

    def integrand(u):
        return 2.0 / np.sqrt(c3 * (y - (y - x) * np.sin(u) ** 2))

    value, err = quad(integrand, 0.0, 0.5 * np.pi, epsabs=1e-13, epsrel=1e-13)
    if err > tol:
        raise ProfileError(f"period quadrature error estimate {err:.3e} exceeds {tol:.1e}")
    return value


class _CubicDerivatives:
    """Dense derivative backend for cubic profiles.

    Only r(t) is interpolated; all derivatives come from the first integral
    r'^2 = P(r):

        r'   = sqrt(P(r))           (positive branch on the open interior)
        r''  = P'(r) / 2
        r''' = P''(r) r' / 2

    Near the two turning points the integrator's dense output is replaced by
    the even power series of the true solution anchored there (coefficients
    exact from the equation of motion, anchor abscissa from the quadrature
    length, which is far more accurate than the event location).  Without
    this, interpolation noise of order 1e-13 in r gets amplified by 1/r'^2
    in quantities like d/dt log r', which must stay accurate down to the
    interior margin of the chart.
    """

    def __init__(self, poly: CubicProfilePolynomial, dense_sol,
                 L_event: float, L_anchor: float):
        self.poly = poly
        self._dense = dense_sol
        self.L = L_event
        self._anchor_end = L_anchor
        self._window = 0.02 * L_event
        self._series_0 = self._series_coeffs(poly.x)
        self._series_L = self._series_coeffs(poly.y)

    def _series_coeffs(self, root: float):
        # r(anchor + tau) = root + c2 tau^2 + c4 tau^4 + c6 tau^6 + O(tau^8)
        g0 = 0.5 * self.poly.deriv1(root)
        g1 = 0.5 * self.poly.deriv2(root)
        g2 = 0.5 * self.poly.deriv3(root)
        return (root, 0.5 * g0, g1 * g0 / 24.0,
                (3.0 * g2 * g0 * g0 + g1 * g1 * g0) / 720.0)

    @staticmethod
    def _series_r(coeffs, tau: float) -> float:
        root, c2, c4, c6 = coeffs
        t2 = tau * tau
        return root + t2 * (c2 + t2 * (c4 + t2 * c6))

    def r_of_t(self, t):
        """r at one t or at an array of t, each element on its own window."""
        if np.ndim(t) == 0:
            return self._r_at(float(t))
        t = np.asarray(t, dtype=float)
        start = t <= self._window
        end = ~start & (t >= self.L - self._window)
        inner = ~(start | end)
        r = np.empty(t.shape)
        if start.any():
            r[start] = self._series_r(self._series_0, t[start])
        if end.any():
            r[end] = self._series_r(self._series_L,
                                    np.minimum(t[end], self.L) - self._anchor_end)
        if inner.any():
            r[inner] = self._dense(t[inner])[0]
        return r

    def _r_at(self, t: float) -> np.float64:
        """``r_of_t`` at one t, without the masks; the same arithmetic, and one
        call of the dense output skips its array route (sort and group)."""
        if t <= self._window:
            return np.float64(self._series_r(self._series_0, t))
        if t >= self.L - self._window:
            return np.float64(self._series_r(self._series_L, min(t, self.L) - self._anchor_end))
        return self._dense(t)[0]

    def eval(self, t):
        r = self.r_of_t(t)
        rp = np.sqrt(np.maximum(self.poly(r), 0.0))
        rpp = 0.5 * self.poly.deriv1(r)
        rppp = 0.5 * self.poly.deriv2(r) * rp
        return r, rp, rpp, rppp

    def integrated_state(self, t):
        t = np.asarray(t, dtype=float)
        r, rp = self._dense(np.minimum(t, self.L))
        # before the Taylor start point there is no integrator state;
        # return the initial-data series there
        early = t < self._dense.t_min
        x = self.poly.x
        d1, d2 = self.poly.deriv1(x), self.poly.deriv2(x)
        r = np.where(early, x + 0.25 * d1 * t * t + d1 * d2 * t ** 4 / 96.0, r)
        rp = np.where(early, 0.5 * d1 * t + d1 * d2 * t ** 3 / 24.0, rp)
        return r[()], rp[()]


class _CallableDerivatives:
    """Backend wrapping closed-form r and its derivatives, as numpy functions of
    t that map arrays elementwise (used by tests)."""

    def __init__(self, fns, L: float):
        self._fns = fns
        self.L = L

    def eval(self, t):
        return tuple(np.asarray(f(t), dtype=float)[()] for f in self._fns)

    def integrated_state(self, t):
        return self.eval(t)[:2]


@dataclass
class ProfileSolution:
    """A solved warp profile, densely evaluable together with f = 2 r r'/s."""

    grid: np.ndarray
    r: np.ndarray
    rp: np.ndarray
    rpp: np.ndarray
    L: float
    s: float
    f: np.ndarray = field(init=False)
    fp: np.ndarray = field(init=False)
    polynomial: CubicProfilePolynomial | None = None
    quadrature_length: float | None = None
    _model: object = None
    _recent: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.f = 2.0 * self.r * self.rp / self.s
        self.fp = 2.0 * (self.rp ** 2 + self.r * self.rpp) / self.s

    # -- dense evaluation ----------------------------------------------------

    def evaluate(self, t):
        """(r, r', r'', r''') at ``t``, a float or an array of t (elementwise),
        using the backend's exact derivative model.

        An analysed batch asks for its warp many times (metric, complex
        structure, frame, fields, closed forms), so the last few t batches
        are kept, read-only, and reused.
        """
        if np.ndim(t) == 0:
            t = key = float(t)
        else:
            t = np.asarray(t, dtype=float)
            key = (t.shape, t.tobytes())
        hit = self._recent.get(key)
        if hit is None:
            hit = tuple(self._model.eval(t))
            for v in hit:
                if isinstance(v, np.ndarray):
                    v.setflags(write=False)
            if len(self._recent) >= 4:
                self._recent.clear()
            self._recent[key] = hit
        return hit

    def integrated_state(self, t):
        """(r, r') as carried by the integrator state (no first-integral algebra),
        at a float or an array of t."""
        return self._model.integrated_state(t)

    def warp(self, t):
        r, rp, _, _ = self.evaluate(t)
        return 2.0 * r * rp / self.s

    def warp_derivatives(self, t):
        """(f, f', f'') at ``t``, a float or an array of t."""
        return self._warp_from(*self.evaluate(t))

    def _warp_from(self, r, rp, rpp, rppp) -> tuple[float, float, float]:
        f = 2.0 * r * rp / self.s
        fp = 2.0 * (rp ** 2 + r * rpp) / self.s
        fpp = 2.0 * (3.0 * rp * rpp + r * rppp) / self.s
        return f, fp, fpp

    def jets(self, t_jet: Jet2) -> tuple[Jet2, Jet2]:
        """(r, f) at a jet-seeded t, from one evaluation of the profile."""
        r, rp, rpp, rppp = self.evaluate(t_jet.value)
        return (compose(t_jet, r, rp, rpp),
                compose(t_jet, *self._warp_from(r, rp, rpp, rppp)))

    # -- diagnostics ---------------------------------------------------------

    def first_integral_residual(self, samples: int = 400) -> float:
        """max |r'^2 - P(r)| over the interior, using the *integrated* r'."""
        if self.polynomial is None:
            raise ProfileError("first-integral residual requires a cubic-built profile")
        r, rp = self.integrated_state(np.linspace(0.0, self.L, samples + 2)[1:-1])
        return float(np.max(np.abs(rp * rp - self.polynomial(r))))

    def export_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "r", "rp", "rpp", "f", "fp"])
            for i in range(self.grid.shape[0]):
                writer.writerow([
                    format(v, ".17g")
                    for v in (self.grid[i], self.r[i], self.rp[i], self.rpp[i],
                              self.f[i], self.fp[i])
                ])


def solve_profile(poly: CubicProfilePolynomial, *, grid_points: int = 512,
                  rtol: float = 1e-12, atol: float = 1e-13) -> ProfileSolution:
    """Integrate r'' = P'(r)/2 from (x, 0) until r' first returns to zero.

    The integration starts from a fourth-order even Taylor step at t1 << L
    (the second-order form is regular there, but the Taylor start also keeps
    the terminal event r' = 0 away from the initial point).  The first-passage
    time is cross-checked against the singularity-free quadrature length.
    """
    L_quad = period_length(poly)
    t1 = 1e-3 * L_quad
    x = poly.x
    d1, d2 = poly.deriv1(x), poly.deriv2(x)
    r1 = x + 0.25 * d1 * t1 * t1 + d1 * d2 * t1 ** 4 / 96.0
    rp1 = 0.5 * d1 * t1 + d1 * d2 * t1 ** 3 / 24.0

    def rhs(_, state):
        return [state[1], 0.5 * poly.deriv1(state[0])]

    def slope_vanishes(_, state):
        return state[1]

    slope_vanishes.terminal = True
    slope_vanishes.direction = -1.0

    # max_step keeps the 7th-order dense interpolation at the same accuracy
    # as the step endpoints; the solve is one-time, so the cost is irrelevant
    sol = solve_ivp(rhs, (t1, 3.0 * L_quad), [r1, rp1], method="DOP853",
                    rtol=rtol, atol=atol, dense_output=True, events=slope_vanishes,
                    max_step=L_quad / 128.0)
    if sol.status == -1 or len(sol.t_events[0]) == 0:
        raise ProfileError(f"profile integration failed: {sol.message}")
    L = float(sol.t_events[0][0])
    if abs(L - L_quad) > 1e-6:
        raise ProfileError(
            f"first-passage length {L!r} disagrees with quadrature length {L_quad!r}")

    model = _CubicDerivatives(poly, sol.sol, L, L_quad)
    grid = np.linspace(0.0, L, grid_points)
    r, rp, rpp, _ = model.eval(grid)
    return ProfileSolution(grid=grid, r=r, rp=rp, rpp=rpp,
                           L=L, s=poly.s, polynomial=poly,
                           quadrature_length=L_quad, _model=model)


def boundary_report(sol: ProfileSolution) -> dict[str, float]:
    """Named endpoint residuals; reports, never gates.

    ``f`` must be odd at both ends with slopes +1 and -1 for the metric to
    close up on the sphere bundle; with f = 2 r r'/s this is equivalent to
    2 r(0) r''(0) = s and 2 r(L) r''(L) = -s.  Evaluated from the integrated
    endpoint state (with r'' from the equation of motion when a cubic is
    attached, else from the interpolant), so the residuals are honest measures
    of the solved object rather than algebraic identities.
    """
    L = sol.L

    def endpoint(t):
        r, rp = sol.integrated_state(t)
        if sol.polynomial is not None:
            rpp = 0.5 * sol.polynomial.deriv1(r)
        else:
            rpp = sol.evaluate(t)[2]
        return r, rp, rpp

    r0, rp0, rpp0 = endpoint(0.0)
    rL, rpL, rppL = endpoint(L)
    fp0 = 2.0 * (rp0 ** 2 + r0 * rpp0) / sol.s
    fpL = 2.0 * (rpL ** 2 + rL * rppL) / sol.s

    # one-sided 2nd-order estimates of r''' at the ends (evenness check)
    h = 1e-3 * L
    rppp0 = (-3.0 * endpoint(0.0)[2] + 4.0 * endpoint(h)[2] - endpoint(2 * h)[2]) / (2 * h)
    rpppL = (3.0 * endpoint(L)[2] - 4.0 * endpoint(L - h)[2] + endpoint(L - 2 * h)[2]) / (2 * h)

    return {
        "fp_start_minus_one": fp0 - 1.0,
        "fp_end_plus_one": fpL + 1.0,
        "rp_start": rp0,
        "rp_end": rpL,
        "boundary_start": 2.0 * r0 * rpp0 - sol.s,
        "boundary_end": 2.0 * rL * rppL + sol.s,
        "rppp_start_estimate": rppp0,
        "rppp_end_estimate": rpppL,
    }


def profile_from_callables(r, rp, rpp, rppp, L: float, s: float,
                           *, grid_points: int = 257) -> ProfileSolution:
    """Wrap closed-form r(t) and derivatives as a ProfileSolution."""
    model = _CallableDerivatives((r, rp, rpp, rppp), L)
    grid = np.linspace(0.0, L, grid_points)
    values = model.eval(grid)
    return ProfileSolution(grid=grid, r=values[0], rp=values[1], rpp=values[2],
                           L=L, s=s, polynomial=None, quadrature_length=None,
                           _model=model)
