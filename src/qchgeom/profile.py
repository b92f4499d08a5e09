"""Warp-profile machinery.

The warp function r(t) solves r'' = P'(r)/2 with r(0) = x, r'(0) = 0 for a
cubic P chosen so that r climbs from x to y over one half-period [0, L] with
the boundary behaviour (r odd-derivatives vanishing at both ends, endpoint
slopes of f = 2 r r'/s equal to +-1) that lets the warped metric close up
smoothly on the sphere bundle.  The cubic is pinned by four constraints:

    P(x) = 0,  P(y) = 0,  x P'(x) = s,  y P'(y) = -s,

whose unique solution is s/(x y (y - x)) * (t - x)(t - y)(t - x - y).

Along a solution the first integral r'^2 = P(r) holds, and with the roots of
P known it integrates in closed form:

    r(t) = x + (y - x) sn^2(omega t | m),   m = (y - x)/y,
    omega = sqrt(s / (x (y - x))) / 2,      L = K(m) / omega,

so r' = 2 (y - x) omega sn cn dn, while r'' = P'(r)/2 (with P' from the
roots) and r''' = P''(r) r'/2 follow from the equation of motion.  sn, cn,
dn and K come from the arithmetic-geometric mean and the descending Landen
transformation (DLMF 19.8.1, 22.20.1), vectorised over t.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps

# interior points at which the first integral r'^2 = P(r) is checked
FIRST_INTEGRAL_SAMPLES = 400
# relative agreement of two successive period quadrature rules
PERIOD_RTOL = 1e-9


class ProfileError(RuntimeError):
    """Profile construction or quadrature failed."""


@dataclass(frozen=True)
class CubicProfilePolynomial:
    """Cubic P(t) = c3 (t - x)(t - y)(t - x - y), evaluated from its roots:
    free of the cancellation of the monomial form between nearby roots, and
    exactly zero at x and y."""

    x: float
    y: float
    s: float
    c3: float

    def __call__(self, t):
        x, y = self.x, self.y
        return self.c3 * (t - x) * (t - y) * (t - x - y)

    def deriv1(self, t):
        """P'(t) = c3 [(t-y)(t-x-y) + (t-x)(t-x-y) + (t-x)(t-y)]."""
        a, b, c = t - self.x, t - self.y, t - self.x - self.y
        return self.c3 * (b * c + a * c + a * b)

    def deriv2(self, t):
        return 2.0 * self.c3 * (3.0 * t - 2.0 * self.x - 2.0 * self.y)


def build_polynomial(x: float, y: float, s: float) -> CubicProfilePolynomial:
    """The unique admissible cubic for endpoint values (x, y) and pitch s.

    P(x) = P(y) = 0, x P'(x) = s, y P'(y) = -s and P > 0 on (x, y) hold by
    construction once 0 < x < y, s > 0 and the leading coefficient
    s/(x y (y - x)) is finite; otherwise ``ValueError``.
    """
    if not (0.0 < x < y):
        raise ValueError(f"endpoint values must satisfy 0 < x < y, got x={x}, y={y}")
    if s <= 0.0:
        raise ValueError(f"pitch s must be positive, got s={s}")
    scale = x * y * (y - x)
    if not (scale > 0.0 and np.isfinite(s / scale)):
        raise ValueError(f"the cubic's leading coefficient s/(x y (y - x)) is not finite "
                         f"at x={x}, y={y}, s={s}")
    return CubicProfilePolynomial(x, y, s, s / scale)


def period_length(poly: CubicProfilePolynomial) -> float:
    """Half-period L = integral over [x, y] of dt / sqrt(P(t)), by Gauss-Legendre.

    The inverse-square-root endpoint singularities are removed by the
    substitution t = x + (y - x) sin^2(u), after which the integrand
    2 / sqrt(c3 (y - (y - x) sin^2 u)) is smooth on [0, pi/2].  The node count
    doubles from 32 until two successive rules agree within ``PERIOD_RTOL``
    relative to the finer (32 nodes alone miss by 1.4e-5 at x = 0.1, y = 10); the
    estimate is floored at the rounding level of the sum, and past 1,024
    nodes the quadrature fails.  The test is relative because L grows with
    the endpoints: at x = 1e6, y = 3e6, L = 7.0e6, rounding alone moves the
    sum by 3e-9.
    """
    x, y, c3 = poly.x, poly.y, poly.c3

    def rule(nodes: int) -> float:
        u, w = np.polynomial.legendre.leggauss(nodes)
        u = 0.25 * np.pi * (u + 1.0)
        return 0.5 * np.pi * float(w @ (1.0 / np.sqrt(c3 * (y - (y - x) * np.sin(u) ** 2))))

    value = rule(32)
    for nodes in (64, 128, 256, 512, 1024):
        finer = rule(nodes)
        err = max(abs(finer - value), _EPS * finer)
        if err <= PERIOD_RTOL * finer:
            return finer
        value = finer
    raise ProfileError(f"period quadrature error estimate {err:.3e} exceeds {PERIOD_RTOL:.1e} "
                       f"of the length {finer:.6g}")


def _landen(m: float, kp: float) -> tuple[np.ndarray, np.ndarray]:
    """AGM sequences a_n and c_n of parameter m, with kp = sqrt(1 - m): from
    a_0 = 1, b_0 = kp, c_0 = sqrt(m) until c_N is below the rounding of a_N
    (DLMF 19.8.1).  K(m) = pi / (2 a_N)."""
    a, b, c = [1.0], kp, [np.sqrt(m)]
    while c[-1] > _EPS * a[-1]:
        a_next = 0.5 * (a[-1] + b)
        c.append(0.25 * c[-1] ** 2 / a_next)  # (a - b)/2, free of cancellation
        b = np.sqrt(a[-1] * b)
        a.append(a_next)
    return np.array(a), np.array(c)


def _sn_cn_dn(u, a: np.ndarray, c: np.ndarray):
    """sn, cn, dn at u (any shape) by the descending Landen transformation:
    phi_N = 2^N a_N u, then sin(2 phi_{n-1} - phi_n) = (c_n/a_n) sin(phi_n)
    down to phi_0 (DLMF 22.20.1)."""
    n = len(a) - 1
    phi = 2.0 ** n * a[n] * u
    for k in range(n, 0, -1):
        prev = phi
        phi = 0.5 * (phi + np.arcsin(c[k] / a[k] * np.sin(phi)))
    cn = np.cos(phi)
    return np.sin(phi), cn, cn / np.cos(prev - phi)


class ProfileSolution:
    """The warp profile r(t) = x + (y - x) sn^2(omega t | m) on [0, L], with
    f = 2 r r'/s, evaluable at a float or elementwise at an array of t."""

    def __init__(self, polynomial: CubicProfilePolynomial, omega: float,
                 quadrature_length: float):
        x, y = polynomial.x, polynomial.y
        self.polynomial = polynomial
        self.s = polynomial.s
        self.omega = omega
        self.quadrature_length = quadrature_length
        self._a, self._c = _landen((y - x) / y, np.sqrt(x / y))
        self.L = float(0.5 * np.pi / self._a[-1] / omega)

    def evaluate(self, t):
        """(r, r', r'', r''') at ``t``, a float or an array of t (elementwise).

        Past L/2 the elliptic functions are taken at u' = omega (L - t) and
        reflected, sn = cn'/dn', cn = k' sn'/dn', dn = k'/dn' (DLMF 22.4.iii,
        k'^2 = 1 - m = x/y), so that y - r = (y - x) cn^2 keeps its relative
        accuracy at the far turning point as r - x = (y - x) sn^2 does at the
        near one; r' carries both, as a product rather than sqrt(P(r)).
        Every step is analytic in t, so at a complex t (a complex step) the
        imaginary parts carry the derivatives along t.
        """
        poly = self.polynomial
        x, y = poly.x, poly.y
        t = np.asarray(t)
        far = t.real > 0.5 * self.L
        sn, cn, dn = _sn_cn_dn(self.omega * np.where(far, self.L - t, t), self._a, self._c)
        sn2, kp2 = sn * sn, x / y
        r = np.where(far, y - (y - x) * kp2 * sn2 / (dn * dn), x + (y - x) * sn2)[()]
        rp = (2.0 * (y - x) * self.omega * sn * cn * np.where(far, kp2 / (dn * dn * dn), dn))[()]
        return r, rp, 0.5 * poly.deriv1(r), 0.5 * poly.deriv2(r) * rp

    def warp_from(self, r, rp, rpp, rppp) -> tuple:
        """(f, f', f'') from an evaluated (r, r', r'', r''')."""
        f = 2.0 * r * rp / self.s
        fp = 2.0 * (rp ** 2 + r * rpp) / self.s
        fpp = 2.0 * (3.0 * rp * rpp + r * rppp) / self.s
        return f, fp, fpp

    # -- diagnostics ---------------------------------------------------------

    def first_integral_residuals(self) -> np.ndarray:
        """|r'^2 - P(r)| at each of ``FIRST_INTEGRAL_SAMPLES`` interior points,
        with r' from the elliptic functions and P(r) from the cubic."""
        r, rp, _, _ = self.evaluate(
            np.linspace(0.0, self.L, FIRST_INTEGRAL_SAMPLES + 2)[1:-1])
        return np.abs(rp * rp - self.polynomial(r))

    def export_csv(self, path) -> None:
        """(t, r, r', r'', f, f') at 512 equally spaced t on [0, L], 17 digits."""
        t = np.linspace(0.0, self.L, 512)
        r, rp, rpp, rppp = self.evaluate(t)
        f, fp, _ = self.warp_from(r, rp, rpp, rppp)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "r", "rp", "rpp", "f", "fp"])
            for row in zip(t, r, rp, rpp, f, fp):
                writer.writerow([format(v, ".17g") for v in row])


def solve_profile(poly: CubicProfilePolynomial) -> ProfileSolution:
    """The closed-form profile of ``poly``, with the quadrature length of
    ``period_length`` attached as an independent check of L = K(m)/omega."""
    omega = 0.5 * np.sqrt(poly.s / (poly.x * (poly.y - poly.x)))
    return ProfileSolution(poly, float(omega), period_length(poly))


def boundary_report(sol: ProfileSolution) -> dict[str, float]:
    """Named endpoint residuals; reports, never gates.

    ``f`` must be odd at both ends with slopes +1 and -1 for the metric to
    close up on the sphere bundle; with f = 2 r r'/s this is equivalent to
    2 r(0) r''(0) = s and 2 r(L) r''(L) = -s.  r' and r''' = P''(r) r'/2,
    both exact from ``evaluate``, vanish there when r is even about each end.
    """
    start, end = sol.evaluate(0.0), sol.evaluate(sol.L)
    (r0, rp0, rpp0, rppp0), (rL, rpL, rppL, rpppL) = start, end
    fp0, fpL = sol.warp_from(*start)[1], sol.warp_from(*end)[1]
    return {
        "fp_start_minus_one": fp0 - 1.0,
        "fp_end_plus_one": fpL + 1.0,
        "rp_start": rp0,
        "rp_end": rpL,
        "boundary_start": 2.0 * r0 * rpp0 - sol.s,
        "boundary_end": 2.0 * rL * rppL + sol.s,
        "rppp_start": rppp0,
        "rppp_end": rpppL,
    }
