"""Local coordinate models of the warped circle-bundle construction.

Charts
------
* base chart: an affine chart of CP^m carrying the Fubini-Study metric with
  holomorphic sectional curvature c0 (real coordinates u_1..u_m, v_1..v_m).
* circle-bundle chart (psi, z): the odd-dimensional bundle metric
  alpha^2 theta x theta + beta^2 h with theta = dpsi + s sigma, d sigma = Omega.
* total-space chart (t, psi, z): the warped metric
  dt^2 + f(t)^2 theta^2 + r(t)^2 h, and its product-mode variant
  dt^2 + f(t)^2 dpsi^2 + h (pitch s = 0, base block unscaled).

All metric and complex-structure components are jet-evaluable so the
curvature layer sees exact first and second derivatives.  The Fubini-Study
jets are closed forms in z (``FubiniStudy``), and each bundle model builds
its z-only parts once per batch of base points (``_SliceMemo``): the metric,
the frame, the horizontal lifts and the connection-form check all read that
one evaluation.  A point is its chart coordinates, shape (d,), and
a batch of points carries leading batch axes, B + (d,); each model reads t,
psi and z by slicing its own layout.  The connection
potential is fixed in the rotation-invariant gauge sigma = -(1/4) dK o J for
the Kaehler potential K, which vanishes at the chart origin and satisfies
d sigma = Omega componentwise (this pins its sign).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import matvec, mT
from .jets import Jet2, pullback, reciprocal, scale_along, zeros
from .jets import sqrt as jet_sqrt
from .profile import ProfileSolution

CHART_RADIUS_DEFAULT = 4.0
END_MARGIN_FRAC_DEFAULT = 1e-3


class ChartBoundsError(ValueError):
    """Point lies outside the valid region of its chart."""


@dataclass(frozen=True)
class BundleParams:
    """Construction parameters of the total space.

    n is half the real dimension (so dim M = 2n >= 6), the base is complex
    m = n - 1 dimensional with holomorphic sectional curvature c0, and s is
    the fiber pitch d theta = s Omega.  When the integers (k, q) are given
    they must record s = 2k/q; q equals n for the projective-space base.
    """

    n: int
    c0: float
    s: float
    k: int | None = None
    q: int | None = None
    L: float | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3 (real dimension >= 6), got n={self.n}")
        if self.c0 <= 0.0:
            raise ValueError(f"base curvature c0 must be positive, got {self.c0}")
        if self.k is not None and self.q is not None:
            if abs(self.s - 2.0 * self.k / self.q) > 1e-12:
                raise ValueError(
                    f"s={self.s} does not match 2k/q = {2.0 * self.k / self.q}")

    @property
    def m(self) -> int:
        return self.n - 1


# -- base models --------------------------------------------------------------


class _BaseModel:
    """What the base models share: the chart-radius gate."""

    def check_bounds(self, z: np.ndarray) -> None:
        rad = float(np.max(np.linalg.norm(z, axis=-1)))
        if rad >= self.chart_radius:
            raise ChartBoundsError(
                f"|z| = {rad} exceeds chart radius {self.chart_radius}")


class FubiniStudy(_BaseModel):
    """Fubini-Study metric on an affine chart of CP^m, curvature c0.

    Real layout (u_1..u_m, v_1..v_m) for complex w_a = u_a + i v_a.  With
    K = (4/c0) log(1 + |w|^2) the components are the real/imaginary parts of
    d_a d_bbar K, which gives holomorphic sectional curvature exactly c0:
    h = (4/c0) (u I - u^2 P) with u = 1/(1 + |z|^2) and P = z z^T + (Jz)(Jz)^T.

    The jets are closed forms in z: with

        d u = -2 u^2 z,   d^2 u = -2 u^2 I + 8 u^3 z z^T,

    P linear in z in its first derivative and of constant second derivative
    (``_d2p``), the derivatives of h and sigma in z's entries are a few
    broadcast products, pushed through z's own jet by one chain rule
    (``jets.pullback``).
    """

    def __init__(self, m: int, c0: float, chart_radius: float = CHART_RADIUS_DEFAULT):
        if m < 1:
            raise ValueError(f"base complex dimension must be >= 1, got {m}")
        if c0 <= 0.0:
            raise ValueError(f"holomorphic sectional curvature must be positive, got {c0}")
        self.m = m
        self.c0 = c0
        self.dim = 2 * m
        self.chart_radius = chart_radius
        j0 = np.zeros((self.dim, self.dim))
        for a in range(m):
            j0[m + a, a] = 1.0   # J du_a = dv_a
            j0[a, m + a] = -1.0  # J dv_a = -du_a
        self.j0 = j0
        # d_a d_b P_ij = delta_ia delta_jb + delta_ib delta_ja + J_ia J_jb + J_ib J_ja
        eye = np.eye(self.dim)
        half = (eye[:, None, :, None] * eye[None, :, None, :]
                + j0[:, None, :, None] * j0[None, :, None, :])
        self._d2p = half + np.swapaxes(half, -1, -2)

    def _u_jz(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """u = 1/(1 + |z|^2) at the values x, and Jz."""
        return 1.0 / (1.0 + np.sum(x * x, axis=-1)), x @ self.j0.T

    def metric_jets(self, z: Jet2) -> Jet2:
        x = z.value
        u, jx = self._u_jz(x)
        n, eye, k = self.dim, np.eye(self.dim), 4.0 / self.c0
        batch = np.shape(u)
        u1, u2, u3 = (p[..., None, None] for p in (u, u * u, u * u * u))
        outer = x[..., :, None] * x[..., None, :]
        P = outer + jx[..., :, None] * jx[..., None, :]
        # dP[i, j, a] = e[i, j, a] + e[j, i, a], e[i, j, a] = delta_ia z_j + J_ia (Jz)_j
        e = eye[:, None, :] * x[..., None, :, None] + self.j0[:, None, :] * jx[..., None, :, None]
        dp = e + np.swapaxes(e, -2, -3)
        # h = k (u I - u^2 P) by the product rule, with d u^2 = -4 u^3 z and
        # d^2 u^2 = -4 u^3 I + 24 u^4 z z^T:
        #   d_a h_ij / k = A_ij z_a - u^2 dP_ija,
        #   d_a d_b h_ij / k = A_ij delta_ab + C_ij z_a z_b
        #                      + 4 u^3 (z_a dP_ijb + z_b dP_ija) - u^2 d2P_ijab,
        # A = 4 u^3 P - 2 u^2 I and C = 8 u^3 I - 24 u^4 P
        a = 4.0 * u3 * P - 2.0 * u2 * eye
        c = 8.0 * u3 * eye - 24.0 * u2 * u2 * P
        d1 = a[..., None] * x[..., None, None, :] - u2[..., None] * dp
        # all but the d2P term as one product of (n^2, n + 2) and (n + 2, n^2)
        # factors, with sym[c, a, b] = z_a delta_cb + delta_ca z_b
        sym = x[..., None, :, None] * eye[:, None, :] + eye[:, :, None] * x[..., None, None, :]
        left = np.concatenate([a.reshape(batch + (n * n, 1)), c.reshape(batch + (n * n, 1)),
                               4.0 * u3 * dp.reshape(batch + (n * n, n))], axis=-1)
        right = np.concatenate([np.broadcast_to(eye.reshape(1, n * n), batch + (1, n * n)),
                                outer.reshape(batch + (1, n * n)),
                                sym.reshape(batch + (n, n * n))], axis=-2)
        d2 = (k * left @ right).reshape(batch + (n,) * 4) - k * u2[..., None, None] * self._d2p
        return pullback(z, k * (u1 * eye - u2 * P), k * d1, d2)

    def connection_potential_jets(self, z: Jet2) -> Jet2:
        """sigma with d sigma = Omega, sigma(origin) = 0.

        sigma = -(1/4) dK o J = (2/c0) u Jz = (2/c0) (u dv - v du) / (1 + |w|^2):
        the du_a slot carries -v_a, the dv_a slot +u_a.
        """
        x = z.value
        u, jx = self._u_jz(x)
        k = 2.0 / self.c0
        u1, u2 = u[..., None, None], (u * u)[..., None, None]
        outer = x[..., :, None] * x[..., None, :]
        # d_a sigma_i / k = u J_ia - 2 u^2 (Jz)_i z_a, and its z_b-derivative
        # (Jz)_i (8 u^3 z_a z_b - 2 u^2 delta_ab) - 2 u^2 (z_a J_ib + z_b J_ia)
        d1 = u1 * self.j0 - 2.0 * u2 * (jx[..., :, None] * x[..., None, :])
        zj = x[..., None, :, None] * self.j0[:, None, :]          # [i, a, b] = z_a J_ib
        dd = 8.0 * u1 * u2 * outer - 2.0 * u2 * np.eye(self.dim)
        d2 = (jx[..., :, None, None] * dd[..., None, :, :]
              - 2.0 * u2[..., None] * (zj + np.swapaxes(zj, -1, -2)))
        return pullback(z, k * u[..., None] * jx, k * d1, k * d2)


class ProductBase(_BaseModel):
    """Block product of Fubini-Study factors (coordinates concatenated).

    With equal-curvature CP^1 factors this is Einstein but does not have
    constant holomorphic sectional curvature: the negative-control base
    showing that Einstein alone does not make the total space QCH.
    """

    def __init__(self, factors: list[FubiniStudy]):
        self.factors = factors
        self.m = sum(f.m for f in factors)
        self.dim = 2 * self.m
        self.chart_radius = min(f.chart_radius for f in factors)
        j0 = np.zeros((self.dim, self.dim))
        for f, span in zip(factors, self._spans()):
            j0[span, span] = f.j0
        self.j0 = j0
        self.c0 = factors[0].c0  # reference scale only; not constant curvature

    def _spans(self) -> list[slice]:
        out, off = [], 0
        for f in self.factors:
            out.append(slice(off, off + f.dim))
            off += f.dim
        return out

    def metric_jets(self, z: Jet2) -> Jet2:
        h = zeros(z.shape + (self.dim,), z.dim, z.value.dtype)
        for f, span in zip(self.factors, self._spans()):
            h[..., span, span] = f.metric_jets(z[..., span])
        return h

    def connection_potential_jets(self, z: Jet2) -> Jet2:
        sigma = zeros(z.shape, z.dim, z.value.dtype)
        for f, span in zip(self.factors, self._spans()):
            sigma[..., span] = f.connection_potential_jets(z[..., span])
        return sigma


# -- frames -------------------------------------------------------------------


@dataclass(frozen=True)
class FrameBasis:
    """g-orthonormal frame rows, plus the structural vectors they come from.

    For total-space charts the rows are ordered (H, JH = xi/f, E_1..E_2m);
    xi is the unnormalized fiber field with theta(xi) = 1 exactly.
    """

    vectors: np.ndarray                 # B + (d, d) rows = orthonormal frame
    h_vec: np.ndarray | None = None     # B + (d,) unit t-direction
    xi: np.ndarray | None = None        # B + (d,) fiber field, theta(xi) = 1
    jh: np.ndarray | None = None        # xi / f (or xi / alpha on the bundle)

    @property
    def horizontal(self) -> np.ndarray:
        skip = 2 if self.h_vec is not None else (1 if self.jh is not None else 0)
        return self.vectors[..., skip:, :]


def _gram_schmidt(rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """g-orthonormalise the rows B + (k, d), in order, at every point of B.

    Gram-Schmidt on rows L is L = C Q with C lower triangular, so C is the
    Cholesky factor of the Gram matrix L g L^T and Q = C^{-1} L.
    """
    return np.linalg.solve(_cholesky(rows @ g @ mT(rows)), rows)


def _cholesky(a: np.ndarray) -> np.ndarray:
    """The lower-triangular C with C C^T = a at every point of a batch, taken
    column by column and unconjugated, so analytic in a: for a complex
    symmetric a (at a complex step) ``np.linalg.cholesky`` would give C C^H = a."""
    c = np.zeros_like(a)
    for j in range(a.shape[-1]):
        row = c[..., j, :j]
        pivot = a[..., j, j] - np.sum(row * row, axis=-1)
        if not np.all(pivot.real > 0.0):
            raise np.linalg.LinAlgError("Gram matrix is not positive definite")
        c[..., j, j] = np.sqrt(pivot)
        c[..., j + 1:, j] = ((a[..., j + 1:, j] - matvec(c[..., j + 1:, :j], row))
                             / c[..., j, j, None])
    return c


def _unit_rows(index: int, x: np.ndarray) -> np.ndarray:
    """The coordinate vector e_index at every point of a batch x, B + (d,),
    of x's dtype."""
    out = np.zeros_like(x)
    out[..., index] = 1.0
    return out


# -- metric fields -------------------------------------------------------------


class _SliceMemo:
    """A bundle model's jets of z alone, memoised on the z values of a batch.

    A lookup at z (one point's base coordinates, or a batch) calls ``build``
    on a miss; the key is the shape and bytes of the whole batch.  Base
    components depend only on z, so the frame, the fields and the checks at an
    analysed batch, or the same batch moved along t, reuse one evaluation.
    Such reuse is local: once ``points`` points are held the memo starts
    over, since a larger one only keeps memory alive for as long as the model
    lives.
    """

    def __init__(self, points: int):
        self.capacity = points
        self.entries: dict[tuple, tuple] = {}
        self.points = 0

    def __call__(self, z: np.ndarray, build) -> tuple:
        z = np.asarray(z)
        if np.iscomplexobj(z):
            if z.imag.any():  # a complex step that moves z: built once, not kept
                return build(z)
            z = z.real  # a complex step along t leaves z real: share its entry
        key = (z.shape, z.tobytes())
        hit = self.entries.get(key)
        if hit is None:
            hit = build(z)
            points = z[..., 0].size
            if self.points + points > self.capacity:
                self.entries.clear()
                self.points = 0
            self.entries[key] = hit
            self.points += points
        return hit


def _base_parts(base, z: np.ndarray, d: int, s: float) -> tuple[Jet2, Jet2, Jet2]:
    """The base metric h (in the z block of a d x d matrix), the potential
    sigma and Theta = theta x theta for theta = dpsi + s sigma at z, seeded in
    the d-dimensional chart whose last coordinates are z, with psi just
    before them."""
    off = d - base.dim
    zj = Jet2(z, np.broadcast_to(np.eye(d)[off:], z.shape + (d,)), np.zeros(z.shape + (d, d)))
    h = zeros(z.shape[:-1] + (d, d), d, z.dtype)
    h[..., off:, off:] = base.metric_jets(zj)
    sigma = base.connection_potential_jets(zj)
    theta = zeros(z.shape[:-1] + (d,), d, z.dtype)
    theta[..., off - 1] = 1.0
    theta[..., off:] = s * sigma
    return h, sigma, theta[..., :, None] * theta[..., None, :]


def _lift_rows(sigma: Jet2, s: float, dim: int) -> Jet2:
    """The horizontal lifts e_i - s sigma_i d/dpsi of the base coordinate vectors,
    as the rows of one B + (2m, d) jet (z in the last 2m slots, psi before)."""
    nb = sigma.shape[-1]
    off = dim - nb
    batch = sigma.shape[:-1]
    rows = zeros(batch + (nb, dim), sigma.dim, sigma.value.dtype)
    rows.value[...] = np.eye(dim)[off:]
    if s != 0.0:
        rows[..., off - 1] = -s * sigma
    return rows


class WarpedBundleMetric:
    """dt^2 + f(t)^2 (dpsi + s sigma)^2 + r(t)^2 h on (0, L) x bundle chart.

    ``product_mode`` drops the pitch (s = 0, theta = dpsi) and the r^2 scaling
    of the base block.  ``warp_scale`` multiplies f everywhere (metric and
    complex structure); any value other than 1 breaks the parallel-J condition
    and serves as a negative control.
    """

    def __init__(self, params: BundleParams, profile: ProfileSolution, base=None,
                 *, product_mode: bool = False, warp_scale: float = 1.0,
                 end_margin_frac: float = END_MARGIN_FRAC_DEFAULT):
        self.params = params
        self.profile = profile
        self.base = base if base is not None else FubiniStudy(params.m, params.c0)
        if 2 * (1 + self.base.m) != 2 * params.n:
            raise ValueError("base dimension does not match bundle parameters")
        self.product_mode = product_mode
        self.warp_scale = warp_scale
        self.s = 0.0 if product_mode else params.s
        self.dim = 2 + self.base.dim
        self.end_margin_frac = end_margin_frac
        # entries are d x d jets, about 0.7 MB a point at d = 14
        self._base_memo = _SliceMemo(16)

    # coordinates are (t, psi, z_1..z_2m)
    def check_bounds(self, x: np.ndarray) -> None:
        margin = self.end_margin_frac * self.profile.L
        t = x[..., 0]
        outside = t[(t < margin) | (t > self.profile.L - margin)]
        if outside.size:
            raise ChartBoundsError(f"t = {outside[0]} outside interior margin "
                                   f"[{margin}, {self.profile.L - margin}]")
        self.base.check_bounds(x[..., 2:])

    def _base_at(self, z: np.ndarray) -> tuple[Jet2, Jet2, Jet2]:
        """The z-only parts of the metric at the z-slice, from the model's memo
        (``_SliceMemo``): the base metric h (in the z block of a total-chart
        matrix), the potential sigma, and Theta = theta x theta with
        theta = dpsi + s sigma, all seeded in the total chart (z sits at
        coordinates 2..d-1).  Points sharing z (samples along one t-geodesic,
        a batch moved along t, the frame and fields at an analysed batch)
        reuse one evaluation."""
        return self._base_memo(z, lambda z: _base_parts(self.base, z, self.dim, self.s))

    def connection_forms(self, z: np.ndarray) -> tuple[Jet2, np.ndarray]:
        """(sigma, Omega) at the z-slice, from the memo: the potential as a
        total-chart jet and the values of the base Kaehler form h(J., .)."""
        h, sigma, _ = self._base_at(z)
        return sigma, self.base.j0.T @ h.value[..., 2:, 2:]

    def warp_jets(self, t_jet: Jet2) -> tuple[Jet2, Jet2]:
        """(r, f) at a jet-seeded t, with the control scale applied to f."""
        r, f = self.profile.jets(t_jet)
        if self.warp_scale != 1.0:
            f = f * self.warp_scale
        return r, f

    def _squared_warps(self, t) -> tuple[tuple, tuple]:
        """r^2 and f^2 (with the control scale) at t, each as its value and
        first two t-derivatives."""
        r, rp, rpp, rppp = self.profile.evaluate(t)
        f, fp, fpp = (self.warp_scale * x for x in self.profile.warp_from(r, rp, rpp, rppp))
        return ((r * r, 2.0 * r * rp, 2.0 * (rp * rp + r * rpp)),
                (f * f, 2.0 * f * fp, 2.0 * (fp * fp + f * fpp)))

    def metric_jets(self, coords: Jet2) -> Jet2:
        """dt^2 + f(t)^2 Theta(z) + r(t)^2 h(z) (h unscaled in product mode).

        Theta and h come from the base memo; the t-only factors scale them by
        the product rule of ``jets.scale_along``, which touches only the t row
        and column of their derivatives.
        """
        h, _, theta2 = self._base_at(coords.value[..., 2:])
        r2, f2 = self._squared_warps(coords.value[..., 0])
        g = scale_along(theta2, 0, *f2) + (h if self.product_mode
                                           else scale_along(h, 0, *r2))
        g.value[..., 0, 0] += 1.0
        return g

    def complex_structure_jets(self, coords: Jet2) -> Jet2:
        """J with J H = xi/f, J xi = -f H, and the base structure on lifts."""
        _, f = self.warp_jets(coords[..., 0])
        _, sigma, _ = self._base_at(coords.value[..., 2:])
        j0 = self.base.j0
        J = zeros(coords.shape[:-1] + (self.dim, self.dim), coords.dim, coords.value.dtype)
        J[..., 1, 0] = reciprocal(f)
        J[..., 0, 1] = -f
        J[..., 0, 2:] = -(f[..., None] * (self.s * sigma))
        J[..., 1, 2:] = -(self.s * (sigma @ j0))
        J[..., 2:, 2:] = j0
        return J

    # -- jet-evaluable fields used by divergence and identity checks ---------

    def _unit_field(self, index: int, coords: Jet2) -> Jet2:
        return Jet2.constant(_unit_rows(index, coords.value), coords.dim)

    def h_field(self):
        """The unit t-direction as a constant coordinate field."""
        return lambda coords: self._unit_field(0, coords)

    def jh_field(self):
        """The unit fiber direction xi / f as a jet field."""
        return self.section_field(0.0, 1.0)

    def section_field(self, c1, c2):
        """c1 * H + c2 * JH with constant coefficients (a rotated unit section);
        c1 and c2 are floats, or arrays with one entry per point of a batch."""
        def field(coords):
            _, f = self.warp_jets(coords[..., 0])
            out = self._unit_field(0, coords) * np.asarray(c1)[..., None]
            out[..., 1] = c2 * reciprocal(f)
            return out
        return field

    def lift_jets(self, coords: Jet2) -> Jet2:
        """The horizontal lifts of the base coordinate vectors as the rows of
        one B + (2m, d) jet, from the memoised sigma."""
        return _lift_rows(self._base_at(coords.value[..., 2:])[1], self.s, self.dim)

    def base_unit_lift_field(self, i: int):
        """The horizontal lift of the i-th base coordinate vector, scaled to
        unit length in the base metric h (its g-length is r in warped mode),
        as a jet field."""
        def field(coords):
            h = self._base_at(coords.value[..., 2:])[0]
            return (self.lift_jets(coords)[..., i, :]
                    * reciprocal(jet_sqrt(h[..., 2 + i, 2 + i]))[..., None])
        return field

    def potential_field(self):
        """The Killing potential r(t)^2 / s as a jet scalar field."""
        if self.s == 0.0:
            raise ValueError("the Killing potential r^2/s needs a nonzero pitch")
        def field(coords):
            r, _ = self.warp_jets(coords[..., 0])
            return (r * r) / self.s
        return field

    def frame_at(self, x: np.ndarray, g_values: np.ndarray) -> FrameBasis:
        d = self.dim
        f = self.profile.warp(x[..., 0]) * self.warp_scale
        h_vec = _unit_rows(0, x)
        xi = _unit_rows(1, x)
        jh = xi / np.asarray(f)[..., None]
        lifts = np.broadcast_to(np.eye(d)[2:], x.shape[:-1] + (d - 2, d)).astype(x.dtype)
        if self.s != 0.0:
            lifts[..., 1] = -self.s * self._base_at(x[..., 2:])[1].value
        horizontals = _gram_schmidt(lifts, g_values)
        vectors = np.concatenate([h_vec[..., None, :], jh[..., None, :], horizontals], axis=-2)
        return FrameBasis(vectors=vectors, h_vec=h_vec, xi=xi, jh=jh)


class CircleBundleMetric:
    """Odd-dimensional bundle metric alpha^2 theta x theta + beta^2 h on (psi, z)."""

    def __init__(self, alpha: float, beta: float, s: float, base: FubiniStudy):
        if alpha <= 0.0 or beta <= 0.0:
            raise ValueError(f"fiber/base scales must be positive, got {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta
        self.s = s
        self.base = base
        self.dim = 1 + base.dim
        # entries are sigma and Omega alone, 2m (1 + d + d^2) + 4m^2 numbers a
        # point (18 kB at d = 13), so the sample slices and the displaced
        # points of the Bianchi spot check all fit
        self._base_memo = _SliceMemo(256)

    # coordinates are (psi, z_1..z_2m)
    def check_bounds(self, x: np.ndarray) -> None:
        self.base.check_bounds(x[..., 1:])

    def _forms(self, h: Jet2, sigma: Jet2) -> tuple[Jet2, np.ndarray]:
        return sigma, self.base.j0.T @ h.value[..., 1:, 1:]

    def connection_forms(self, z: np.ndarray) -> tuple[Jet2, np.ndarray]:
        """(sigma, Omega) at the z-slice, from the model's memo
        (``_SliceMemo``): the potential as a bundle-chart jet and the values
        of the base Kaehler form h(J., .)."""
        def build(z):
            h, sigma, _ = _base_parts(self.base, z, self.dim, self.s)
            return self._forms(h, sigma)
        return self._base_memo(z, build)

    def metric_jets(self, coords: Jet2) -> Jet2:
        """alpha^2 theta x theta + beta^2 h.  Its sigma and Omega go into the
        memo, so the frame, the lifts and the checks at the same points build
        no base jets again."""
        z = coords.value[..., 1:]
        h, sigma, theta2 = _base_parts(self.base, z, self.dim, self.s)
        self._base_memo(z, lambda _: self._forms(h, sigma))
        return self.alpha ** 2 * theta2 + self.beta ** 2 * h

    complex_structure_jets = None  # no complex structure on the odd-dim chart

    def lift_jets(self, coords: Jet2) -> Jet2:
        """The horizontal lifts of the base coordinate vectors as the rows of
        one B + (2m, d) jet, from the memoised sigma."""
        return _lift_rows(self.connection_forms(coords.value[..., 1:])[0], self.s, self.dim)

    def frame_at(self, x: np.ndarray, g_values: np.ndarray) -> FrameBasis:
        d = self.dim
        xi = _unit_rows(0, x)
        xihat = xi / self.alpha
        lifts = np.broadcast_to(np.eye(d)[1:], x.shape[:-1] + (d - 1, d)).astype(x.dtype)
        lifts[..., 0] = -self.s * self.connection_forms(x[..., 1:])[0].value
        horizontals = _gram_schmidt(lifts, g_values)
        return FrameBasis(vectors=np.concatenate([xihat[..., None, :], horizontals], axis=-2),
                          h_vec=None, xi=xi, jh=xihat)


class BaseChartMetric:
    """The base model alone, as a metric field on its own chart."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim

    def check_bounds(self, x: np.ndarray) -> None:
        self.base.check_bounds(x)

    def metric_jets(self, coords: Jet2) -> Jet2:
        return self.base.metric_jets(coords)

    def complex_structure_jets(self, coords: Jet2) -> Jet2:
        j0 = self.base.j0
        return Jet2.constant(np.broadcast_to(j0, coords.shape[:-1] + j0.shape), coords.dim)

    def frame_at(self, x: np.ndarray, g_values: np.ndarray) -> FrameBasis:
        rows = np.broadcast_to(np.eye(self.dim), g_values.shape)
        return FrameBasis(vectors=_gram_schmidt(rows, g_values))


class EuclideanMetric:
    """Flat R^d, for oracle tests of the curvature and flow layers."""

    def __init__(self, dim: int):
        self.dim = dim

    def check_bounds(self, x) -> None:
        pass

    def metric_jets(self, coords: Jet2) -> Jet2:
        eye = np.eye(self.dim)
        return Jet2.constant(np.broadcast_to(eye, coords.shape[:-1] + eye.shape), coords.dim)

    complex_structure_jets = None

    def frame_at(self, x, g_values) -> FrameBasis:
        return FrameBasis(vectors=np.broadcast_to(np.eye(self.dim), np.shape(g_values)))


def exterior_derivative_2form(form: Jet2) -> np.ndarray:
    """(d omega)_{ijk} = cyclic sum of jet gradients of a 2-form's components.

    With w[i, j, k] = d_k omega_ij: (d omega)_ijk = w[j,k,i] - w[i,k,j] + w[i,j,k].
    """
    w = form.gradient
    return np.moveaxis(w, -1, -3) - mT(w) + w


def exterior_derivative_1form(form: Jet2) -> np.ndarray:
    """(d sigma)_{ij} = d_i sigma_j - d_j sigma_i from jet gradients."""
    grads = form.gradient[..., :form.shape[-1]]
    return mT(grads) - grads
