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
curvature layer sees exact first and second derivatives.  The connection
potential is fixed in the rotation-invariant gauge sigma = -(1/4) dK o J for
the Kaehler potential K, which vanishes at the chart origin and satisfies
d sigma = Omega componentwise (this pins its sign).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .jets import Jet2, reciprocal, seed_chart, zeros
from .jets import sqrt as jet_sqrt
from .profile import ProfileSolution

CHART_RADIUS_DEFAULT = 4.0
END_MARGIN_FRAC_DEFAULT = 1e-3


class ChartBoundsError(ValueError):
    """Point lies outside the valid region of its chart."""


class ChartKind(enum.Enum):
    TOTAL_WARPED = "total-warped"
    TOTAL_PRODUCT = "total-product"
    BASE = "base"
    CIRCLE_BUNDLE = "circle-bundle"


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


@dataclass
class ChartPoint:
    """A point of one of the local models."""

    t: float = 0.0
    psi: float = 0.0
    z: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(0))
    chart: ChartKind = ChartKind.TOTAL_WARPED

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)


# -- base models --------------------------------------------------------------


class _BaseModel:
    """What the base models share: the chart-radius gate and Omega = h(J., .)."""

    def check_bounds(self, z: np.ndarray) -> None:
        rad = float(np.linalg.norm(z))
        if rad >= self.chart_radius:
            raise ChartBoundsError(
                f"|z| = {rad} exceeds chart radius {self.chart_radius}")

    def kahler_form_jets(self, z: Jet2) -> Jet2:
        """Omega_ij = Omega(e_i, e_j) = h(J e_i, e_j)."""
        return self.j0.T @ self.metric_jets(z)


class FubiniStudy(_BaseModel):
    """Fubini-Study metric on an affine chart of CP^m, curvature c0.

    Real layout (u_1..u_m, v_1..v_m) for complex w_a = u_a + i v_a.  With
    K = (4/c0) log(1 + |w|^2) the components are the real/imaginary parts of
    d_a d_bbar K, which gives holomorphic sectional curvature exactly c0:
    h = (4/c0) (I / W - (z z^T + (J z)(J z)^T) / W^2) with W = 1 + |z|^2.
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

    def metric_jets(self, z: Jet2) -> Jet2:
        inv_w2 = reciprocal(1.0 + (z * z).sum())
        jz = self.j0 @ z
        outer = z[:, None] * z[None, :] + jz[:, None] * jz[None, :]
        return (4.0 / self.c0) * (inv_w2 * np.eye(self.dim) - (inv_w2 * inv_w2) * outer)

    def connection_potential_jets(self, z: Jet2) -> Jet2:
        """sigma with d sigma = Omega, sigma(origin) = 0.

        sigma = -(1/4) dK o J = (2/c0) (u dv - v du) / (1 + |w|^2).
        """
        coef = (2.0 / self.c0) * reciprocal(1.0 + (z * z).sum())
        return coef * (self.j0 @ z)  # du_a slot carries -v_a, dv_a slot +u_a


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
        h = zeros((self.dim, self.dim), z.dim)
        for f, span in zip(self.factors, self._spans()):
            h[span, span] = f.metric_jets(z[span])
        return h

    def connection_potential_jets(self, z: Jet2) -> Jet2:
        sigma = zeros((self.dim,), z.dim)
        for f, span in zip(self.factors, self._spans()):
            sigma[span] = f.connection_potential_jets(z[span])
        return sigma


# -- frames -------------------------------------------------------------------


@dataclass(frozen=True)
class FrameBasis:
    """g-orthonormal frame rows, plus the structural vectors they come from.

    For total-space charts the rows are ordered (H, JH = xi/f, E_1..E_2m);
    xi is the unnormalized fiber field with theta(xi) = 1 exactly.
    """

    vectors: np.ndarray                 # (d, d) rows = orthonormal frame
    h_vec: np.ndarray | None = None     # unit t-direction
    xi: np.ndarray | None = None        # fiber field, theta(xi) = 1
    jh: np.ndarray | None = None        # xi / f (or xi / alpha on the bundle)

    @property
    def horizontal(self) -> np.ndarray:
        skip = 2 if self.h_vec is not None else (1 if self.jh is not None else 0)
        return self.vectors[skip:]


def _gram_schmidt(rows: list[np.ndarray], g: np.ndarray) -> np.ndarray:
    out = []
    for vec in rows:
        w = vec.astype(float).copy()
        for e in out:
            w -= (e @ g @ w) * e
        nrm = float(np.sqrt(w @ g @ w))
        w /= nrm
        out.append(w)
    return np.vstack(out)


# -- metric fields -------------------------------------------------------------


@dataclass(frozen=True)
class MetricSample:
    """Metric, complex structure and frame at one chart point."""

    g: Jet2                       # (d, d) metric jet
    J: np.ndarray | None          # (d, d) complex-structure values, if any
    frame: FrameBasis

    def g_values(self) -> np.ndarray:
        return self.g.value


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
        self.chart = ChartKind.TOTAL_PRODUCT if product_mode else ChartKind.TOTAL_WARPED
        self._base_cache: dict[bytes, tuple] = {}

    # coordinates are (t, psi, z_1..z_2m)
    def coords(self, point: ChartPoint) -> np.ndarray:
        return np.concatenate(([point.t, point.psi], point.z))

    def point(self, coords: np.ndarray) -> ChartPoint:
        return ChartPoint(t=coords[0], psi=coords[1], z=coords[2:], chart=self.chart)

    def check_bounds(self, point: ChartPoint) -> None:
        margin = self.end_margin_frac * self.profile.L
        if not (margin <= point.t <= self.profile.L - margin):
            raise ChartBoundsError(
                f"t = {point.t} outside interior margin [{margin}, {self.profile.L - margin}]")
        self.base.check_bounds(point.z)

    def _base_at(self, z: np.ndarray) -> tuple[Jet2, Jet2]:
        """Base metric + potential at the z-slice, memoised on the z values.

        The jets are seeded in the total chart (z sits at coordinates 2..d-1).
        Base components depend only on z, so points sharing z (e.g. samples
        along one t-geodesic, or the frame and fields at an analysed point)
        reuse one evaluation.  Such reuse is local, so a few slices suffice;
        a larger memo only keeps memory alive, for as long as the model lives.
        """
        key = np.asarray(z, dtype=float).tobytes()
        hit = self._base_cache.get(key)
        if hit is None:
            d = self.dim
            zj = Jet2(np.array(z, dtype=float), np.eye(d)[2:], np.zeros((d - 2, d, d)))
            hit = (self.base.metric_jets(zj), self.base.connection_potential_jets(zj))
            if len(self._base_cache) >= 16:
                self._base_cache.clear()
            self._base_cache[key] = hit
        return hit

    def warp_jets(self, t_jet: Jet2) -> tuple[Jet2, Jet2]:
        """(r, f) at a jet-seeded t, with the control scale applied to f."""
        r, f = self.profile.jets(t_jet)
        if self.warp_scale != 1.0:
            f = f * self.warp_scale
        return r, f

    def metric_jets(self, coords: Jet2) -> Jet2:
        d = self.dim
        r, f = self.warp_jets(coords[0])
        h, sigma = self._base_at(coords.value[2:])
        f_theta = zeros((d - 1,), coords.dim)  # f theta = f (dpsi + s sigma) on (psi, z)
        f_theta[0] = f
        f_theta[1:] = f * (self.s * sigma)
        g = zeros((d, d), coords.dim)
        g[0, 0] = 1.0
        g[1:, 1:] = f_theta[:, None] * f_theta[None, :]
        g[2:, 2:] += h if self.product_mode else (r * r) * h
        return g

    def complex_structure_jets(self, coords: Jet2) -> Jet2:
        """J with J H = xi/f, J xi = -f H, and the base structure on lifts."""
        _, f = self.warp_jets(coords[0])
        _, sigma = self._base_at(coords.value[2:])
        j0 = self.base.j0
        J = zeros((self.dim, self.dim), coords.dim)
        J[1, 0] = reciprocal(f)
        J[0, 1] = -f
        J[0, 2:] = -(f * (self.s * sigma))
        J[1, 2:] = -(self.s * (j0.T @ sigma))
        J[2:, 2:] = j0
        return J

    # -- jet-evaluable fields used by divergence and identity checks ---------

    def _unit_field(self, index: int, coords: Jet2) -> Jet2:
        return Jet2.constant(np.eye(self.dim)[index], coords.dim)

    def h_field(self):
        """The unit t-direction as a constant coordinate field."""
        return lambda coords: self._unit_field(0, coords)

    def fiber_field(self):
        """The fiber rotation field (theta of it is 1 exactly)."""
        return lambda coords: self._unit_field(1, coords)

    def jh_field(self):
        """The unit fiber direction xi / f as a jet field."""
        return self.section_field(0.0, 1.0)

    def section_field(self, c1: float, c2: float):
        """c1 * H + c2 * JH with constant coefficients (a rotated unit section)."""
        def field(coords):
            _, f = self.warp_jets(coords[0])
            out = self._unit_field(0, coords) * c1
            out[1] = c2 * reciprocal(f)
            return out
        return field

    def lift_field(self, i: int, *, base_unit: bool = False):
        """Horizontal lift of the i-th base coordinate vector as a jet field.

        With ``base_unit`` the lift is scaled to unit length in the base
        metric h (so its g-length is r in warped mode).
        """
        def field(coords):
            h, sigma = self._base_at(coords.value[2:])
            out = self._unit_field(2 + i, coords)
            if self.s != 0.0:
                out[1] = -(self.s * sigma[i])
            if base_unit:
                out = out * reciprocal(jet_sqrt(h[i, i]))
            return out
        return field

    def potential_field(self):
        """The Killing potential r(t)^2 / s as a jet scalar field."""
        if self.s == 0.0:
            raise ValueError("the Killing potential r^2/s needs a nonzero pitch")
        def field(coords):
            r, _ = self.warp_jets(coords[0])
            return (r * r) / self.s
        return field

    def frame_at(self, point: ChartPoint, g_values: np.ndarray) -> FrameBasis:
        d = self.dim
        f = self.profile.warp(point.t) * self.warp_scale
        h_vec = np.zeros(d); h_vec[0] = 1.0
        xi = np.zeros(d); xi[1] = 1.0
        jh = xi / f
        lifts = np.eye(d)[2:]
        if self.s != 0.0:
            lifts[:, 1] = -self.s * self._base_at(point.z)[1].value
        horizontals = _gram_schmidt(lifts, g_values)
        vectors = np.vstack([h_vec, jh, horizontals])
        return FrameBasis(vectors=vectors, h_vec=h_vec, xi=xi, jh=jh)

    def sample(self, point: ChartPoint) -> MetricSample:
        self.check_bounds(point)
        coords = seed_chart(self.coords(point))
        g = self.metric_jets(coords)
        np.linalg.cholesky(g.value)  # positive definiteness gate
        J_values = self.complex_structure_jets(coords).value
        return MetricSample(g=g, J=J_values, frame=self.frame_at(point, g.value))


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
        self.chart = ChartKind.CIRCLE_BUNDLE

    def coords(self, point: ChartPoint) -> np.ndarray:
        return np.concatenate(([point.psi], point.z))

    def point(self, coords: np.ndarray) -> ChartPoint:
        return ChartPoint(psi=coords[0], z=coords[1:], chart=self.chart)

    def check_bounds(self, point: ChartPoint) -> None:
        self.base.check_bounds(point.z)

    def metric_jets(self, coords: Jet2) -> Jet2:
        z = coords[1:]
        h = self.base.metric_jets(z)
        sigma = self.base.connection_potential_jets(z)
        theta = zeros((self.dim,), coords.dim)  # theta = dpsi + s sigma
        theta[0] = 1.0
        theta[1:] = self.s * sigma
        g = self.alpha ** 2 * (theta[:, None] * theta[None, :])
        g[1:, 1:] += self.beta ** 2 * h
        return g

    complex_structure_jets = None  # no complex structure on the odd-dim chart

    def fiber_field(self):
        return lambda coords: Jet2.constant(np.eye(self.dim)[0], coords.dim)

    def lift_field(self, i: int):
        """Horizontal lift of the i-th base coordinate vector as a jet field."""
        def field(coords):
            out = Jet2.constant(np.eye(self.dim)[1 + i], coords.dim)
            if self.s != 0.0:
                out[0] = -(self.s * self.base.connection_potential_jets(coords[1:])[i])
            return out
        return field

    def frame_at(self, point: ChartPoint, g_values: np.ndarray) -> FrameBasis:
        d = self.dim
        xi = np.zeros(d); xi[0] = 1.0
        xihat = xi / self.alpha
        sigma_vals = self.base.connection_potential_jets(seed_chart(point.z)).value
        lifts = np.eye(d)[1:]
        lifts[:, 0] = -self.s * sigma_vals
        horizontals = _gram_schmidt(lifts, g_values)
        return FrameBasis(vectors=np.vstack([xihat, horizontals]),
                          h_vec=None, xi=xi, jh=xihat)

    def sample(self, point: ChartPoint) -> MetricSample:
        self.check_bounds(point)
        g = self.metric_jets(seed_chart(self.coords(point)))
        np.linalg.cholesky(g.value)
        return MetricSample(g=g, J=None, frame=self.frame_at(point, g.value))


class BaseChartMetric:
    """The base model alone, as a metric field on its own chart."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim
        self.chart = ChartKind.BASE

    def coords(self, point: ChartPoint) -> np.ndarray:
        return np.asarray(point.z, dtype=float)

    def point(self, coords: np.ndarray) -> ChartPoint:
        return ChartPoint(z=coords, chart=self.chart)

    def check_bounds(self, point: ChartPoint) -> None:
        self.base.check_bounds(point.z)

    def metric_jets(self, coords: Jet2) -> Jet2:
        return self.base.metric_jets(coords)

    def complex_structure_jets(self, coords: Jet2) -> Jet2:
        return Jet2.constant(self.base.j0, coords.dim)

    def frame_at(self, point: ChartPoint, g_values: np.ndarray) -> FrameBasis:
        return FrameBasis(vectors=_gram_schmidt(np.eye(self.dim), g_values))

    def sample(self, point: ChartPoint) -> MetricSample:
        self.check_bounds(point)
        g = self.metric_jets(seed_chart(self.coords(point)))
        np.linalg.cholesky(g.value)
        J_values = self.base.j0.copy()
        return MetricSample(g=g, J=J_values, frame=self.frame_at(point, g.value))


class EuclideanMetric:
    """Flat R^d, for oracle tests of the curvature and flow layers."""

    def __init__(self, dim: int):
        self.dim = dim
        self.chart = ChartKind.BASE

    def coords(self, point) -> np.ndarray:
        if isinstance(point, ChartPoint):
            return np.asarray(point.z, dtype=float)
        return np.asarray(point, dtype=float)

    def point(self, coords: np.ndarray):
        return ChartPoint(z=coords, chart=self.chart)

    def check_bounds(self, point) -> None:
        pass

    def metric_jets(self, coords: Jet2) -> Jet2:
        return Jet2.constant(np.eye(self.dim), coords.dim)

    complex_structure_jets = None

    def frame_at(self, point, g_values) -> FrameBasis:
        return FrameBasis(vectors=np.eye(self.dim))

    def sample(self, point) -> MetricSample:
        g = self.metric_jets(seed_chart(self.coords(point)))
        return MetricSample(g=g, J=None,
                            frame=self.frame_at(point, np.eye(self.dim)))


# -- module-level operation wrappers -------------------------------------------


def fubini_study(m: int, c0: float, z: np.ndarray):
    """Metric and Kaehler-form components of the curvature-c0 base at z."""
    base = FubiniStudy(m, c0)
    base.check_bounds(np.asarray(z, dtype=float))
    zj = seed_chart(np.asarray(z, dtype=float))
    return base.metric_jets(zj), base.kahler_form_jets(zj)


def connection_form(m: int, c0: float, s: float, z: np.ndarray):
    """(sigma, theta) components on the bundle chart (psi, z).

    sigma carries no dpsi component; theta = dpsi + s sigma, so d theta is s
    times the pulled-back Kaehler form.
    """
    base = FubiniStudy(m, c0)
    base.check_bounds(np.asarray(z, dtype=float))
    coords = seed_chart(np.concatenate(([0.0], np.asarray(z, dtype=float))))
    sigma = zeros((len(coords),), coords.dim)
    sigma[1:] = base.connection_potential_jets(coords[1:])
    theta = s * sigma
    theta[0] = 1.0
    return sigma, theta


def assemble_metric(params: BundleParams, profile: ProfileSolution,
                    point: ChartPoint, *, base=None,
                    product_mode: bool = False) -> MetricSample:
    """One-shot warped/product metric sample at a chart point."""
    model = WarpedBundleMetric(params, profile, base, product_mode=product_mode)
    return model.sample(point)


def circle_bundle_metric(alpha: float, beta: float, m: int, c0: float, s: float,
                         point: ChartPoint) -> MetricSample:
    """One-shot odd-dimensional bundle metric sample."""
    model = CircleBundleMetric(alpha, beta, s, FubiniStudy(m, c0))
    return model.sample(point)


def exterior_derivative_2form(form: Jet2) -> np.ndarray:
    """(d omega)_{ijk} = cyclic sum of jet gradients of a 2-form's components.

    With w[i, j, k] = d_k omega_ij: (d omega)_ijk = w[j,k,i] - w[i,k,j] + w[i,j,k].
    """
    w = form.gradient
    return w.transpose(2, 0, 1) - w.transpose(0, 2, 1) + w


def exterior_derivative_1form(form: Jet2) -> np.ndarray:
    """(d sigma)_{ij} = d_i sigma_j - d_j sigma_i from jet gradients."""
    grads = form.gradient[:, :len(form)]
    return grads.T - grads
