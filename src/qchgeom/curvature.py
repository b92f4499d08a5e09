"""Levi-Civita connection and curvature from jet-evaluable metric fields.

Everything here is pointwise: the metric components arrive as second-order
jets, so Christoffel symbols come from the gradient slots and their first
derivatives from the Hessian slots.  No nested finite differencing appears
anywhere on the Riemann path.

Index conventions (fixed once, used everywhere):

    gamma[k, i, j]      = Gamma^k_{ij}
    dgamma[k, i, j, l]  = d_l Gamma^k_{ij}
    riemann[i, j, k, l] = g( R(e_i, e_j) e_k , e_l ),
                          R(X, Y)Z = ([nabla_X, nabla_Y] - nabla_[X,Y]) Z
    ricci[j, k]         = g^{il} riemann[i, j, k, l]

Every array may carry leading batch axes, one entry per sample point: an
analysis of N points holds gamma of shape (N, d, d, d), and the indices above
name the trailing axes.  One point is the batch shape ().

An analysis keeps the dtype of its coordinates, and the path to curvature is
analytic (nothing conjugates, takes a modulus or compares complex values).
So at the complex point x + i h V the imaginary part of any quantity over h
is its derivative along V, exact to rounding as nothing is subtracted (the
complex step; Squire & Trefethen, SIAM Rev. 40, 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .batch import inexact, matvec, max_abs, mT, per_point
from .jets import Jet2, seed_chart, stack

# the complex step h: far below the rounding of every real part, and far
# above the smallest normal number in every imaginary part
COMPLEX_STEP = 1e-30

# float64 entries of one (points, d, d, d, d) array in a batched analysis
# (0.5 MB): about 50 points at d = 6, 6 at d = 10 and 1 at d = 14
BATCH_ELEMENTS = 1 << 16


def batch_slices(count: int, dim: int) -> list[slice]:
    """Consecutive slices of ``count`` points, each small enough that one rank-4
    tensor over the slice stays within ``BATCH_ELEMENTS``."""
    size = max(1, BATCH_ELEMENTS // dim ** 4)
    return [slice(i, min(i + size, count)) for i in range(0, count, size)]


def batch_analyses(field, x: np.ndarray) -> list["PointAnalysis"]:
    """Analyses of a batch of points x (N, d), one per memory-bounded slice.

    Raises ``ChartBoundsError`` when a point lies outside the valid region of
    the field's chart.
    """
    field.check_bounds(x)
    return [PointAnalysis(field, x[sl]) for sl in batch_slices(len(x), field.dim)]


@dataclass(frozen=True)
class Connection:
    """Christoffel symbols and their first derivatives at a point (or a batch)."""

    gamma: np.ndarray    # B + (d, d, d)
    dgamma: np.ndarray   # B + (d, d, d, d), last slot = derivative direction


@dataclass(frozen=True)
class Curvature4:
    """Fully lowered curvature tensor at a point (or a batch)."""

    components: np.ndarray  # B + (d, d, d, d)

    def apply(self, X, Y, Z, W):
        return per_point(contract_slots(self.components, X, Y, Z, W, rank=4))


def contract_slots(T: np.ndarray, *factors, rank: int | None = None) -> np.ndarray:
    """Contract the leading slots of T, in order, with one factor each.

    A vector factor removes its slot; a (k, d) factor of row vectors replaces
    its slot by a new trailing axis of length k.  With ``rank`` given, the
    axes of T before its last ``rank`` are batch axes, shared by every factor
    (B + (d,) or B + (k, d)).  One pairwise contraction per slot keeps a
    rank-4 tensor at O(d^4 k) instead of the single nested loop a
    multi-operand einsum runs.
    """
    nb = 0 if rank is None else T.ndim - rank
    batch = T.shape[:nb]
    for f in factors:
        f = np.asarray(f)
        head, rest = T.shape[nb], T.shape[nb + 1:]
        # the slot as the last axis of a (rest, head) matrix, then one matrix product
        moved = mT(T.reshape(batch + (head, -1)))
        if f.ndim == nb + 1:
            T = matvec(moved, f).reshape(batch + rest)
        else:
            T = (moved @ mT(f)).reshape(batch + rest + (f.shape[-2],))
    return T


def _inverse_derivative(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """d_m g^{kl} = -g^{ka} d_m g_{ab} g^{bl}, last slot = derivative direction."""
    inv = ginv[..., None, :, :]
    return -np.moveaxis(inv @ np.moveaxis(dg, -1, -3) @ inv, -3, -1)


@cache
def _perm_axes(spec: str, ndim: int) -> tuple:
    src, dst = spec.split("->")
    nb = ndim - len(src)
    return tuple(range(nb)) + tuple(nb + src.index(c) for c in dst)


def _perm(a: np.ndarray, spec: str) -> np.ndarray:
    """Permute the trailing axes of ``a``, e.g. spec "jli->lij" (a view)."""
    return a.transpose(_perm_axes(spec, a.ndim))


class PointAnalysis:
    """Lazy bundle of pointwise data for a metric field at chart coordinates.

    ``x`` holds the coordinates of one point, shape (d,), or of a batch,
    B + (d,); every array below then carries the leading axes B.  Expensive
    pieces (metric jets, curvature) are computed once and shared by all
    downstream checks at the point(s).

    A field is anything with

    * ``dim``: the chart dimension d;
    * ``check_bounds(x)``: raise ``ChartBoundsError`` at a point outside the
      chart's valid region;
    * ``metric_jets(coords)``: the metric components B + (d, d) as a jet of
      the seeded coordinates;
    * ``complex_structure_jets``: the same for J, or None where there is none;
    * ``frame_at(x, g)``: a ``FrameBasis`` orthonormal for the metric values g.
    """

    def __init__(self, field, x):
        self.field = field
        self.x = inexact(x)

    @cached_property
    def coords(self) -> Jet2:
        return seed_chart(self.x)

    @cached_property
    def metric(self) -> Jet2:
        """The metric components as one B + (d, d) jet."""
        return stack(self.field.metric_jets(self.coords))

    @property
    def g(self) -> np.ndarray:
        return self.metric.value

    @cached_property
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached_property
    def _brackets(self) -> np.ndarray:
        """brackets[l, i, j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij} = 2 g_{lk} Gamma^k_{ij}."""
        dg = self.metric.gradient
        return _perm(dg, "jli->lij") + _perm(dg, "ilj->lij") - _perm(dg, "ijl->lij")

    @cached_property
    def gamma(self) -> np.ndarray:
        """The Christoffel symbols alone, without the derivatives ``connection``
        adds: geodesic and Jacobi flows need only these."""
        brackets, ginv = self._brackets, self.g_inv
        batch, d = ginv.shape[:-2], ginv.shape[-1]
        return 0.5 * (ginv @ brackets.reshape(batch + (d, d * d))).reshape(brackets.shape)

    @cached_property
    def connection(self) -> Connection:
        dg, d2g = self.metric.gradient, self.metric.hessian
        ginv, brackets, gamma = self.g_inv, self._brackets, self.gamma
        batch, d = ginv.shape[:-2], ginv.shape[-1]
        dbrackets = (_perm(d2g, "jlim->lijm") + _perm(d2g, "iljm->lijm")
                     - _perm(d2g, "ijlm->lijm"))
        dginv = _inverse_derivative(ginv, dg)
        # sum_l dginv[k, l, m] brackets[l, i, j], as [k, m] x [l] times [l] x [i, j]
        first = (_perm(dginv, "klm->kml").reshape(batch + (d * d, d))
                 @ brackets.reshape(batch + (d, d * d)))
        dgamma = 0.5 * (_perm(first.reshape(batch + (d,) * 4), "kmij->kijm")
                        + (ginv @ dbrackets.reshape(batch + (d, -1))).reshape(dbrackets.shape))
        return Connection(gamma=gamma, dgamma=dgamma)

    @cached_property
    def riemann(self) -> Curvature4:
        conn = self.connection
        gamma, dgamma = conn.gamma, conn.dgamma
        # R^b_{ijk} = d_i Gamma^b_{jk} - d_j Gamma^b_{ik}
        #             + Gamma^b_{ia} Gamma^a_{jk} - Gamma^b_{ja} Gamma^a_{ik}
        batch, d = gamma.shape[:-3], gamma.shape[-1]
        # gg[b, i, j, k] = Gamma^b_{ia} Gamma^a_{jk}
        gg = (gamma.reshape(batch + (d * d, d))
              @ gamma.reshape(batch + (d, d * d))).reshape(dgamma.shape)
        r_up = (_perm(dgamma, "bjki->bijk") - _perm(dgamma, "bikj->bijk")
                + gg - _perm(gg, "bjik->bijk"))
        lowered = _perm(r_up, "bijk->ijkb").reshape(batch + (d ** 3, d)) @ self.g
        return Curvature4(lowered.reshape(r_up.shape))

    @cached_property
    def ricci(self) -> np.ndarray:
        R = self.riemann.components
        batch, d = R.shape[:-4], R.shape[-1]
        # ricci[j, k] = sum_{i, l} g^{il} R[i, j, k, l]
        flat = _perm(R, "ijkl->jkil").reshape(batch + (d * d, d * d))
        return matvec(flat, self.g_inv.reshape(batch + (d * d,))).reshape(batch + (d, d))

    @cached_property
    def complex_structure(self):
        """(values, grads) of J, or None when the chart has no J."""
        builder = self.field.complex_structure_jets
        if builder is None:
            return None
        J = stack(builder(self.coords))
        return J.value, J.gradient

    @cached_property
    def frame(self):
        return self.field.frame_at(self.x, self.g)


# -- operations ----------------------------------------------------------------


def holomorphic_sectional_curvature(R4: Curvature4, g: np.ndarray,
                                    J: np.ndarray, X):
    """R(X, JX, JX, X) / |X|^4 for one vector X per point, or per row of probes.

    With R of batch shape B, X is B + (d,) or B + (P, d) for P probes per
    point.  The pairs (X, JX) and (JX, X) meet R viewed as a (d^2, d^2)
    matrix, so P probes cost one O(P d^4) product per point, taken over
    slices of the probes that keep each B + (slice, d^2) array in budget.
    """
    R = R4.components
    X = np.asarray(X)
    single = X.ndim == R.ndim - 3
    if single:
        X = X[..., None, :]
    norm2 = np.sum((X @ g) * X, axis=-1)
    if np.any(norm2.real <= 0.0):
        raise ValueError("holomorphic sectional curvature of a null vector")
    JX = X @ mT(J)
    d = X.shape[-1]
    flat = R.reshape(R.shape[:-4] + (d * d, d * d))

    def pairs(a, b):
        return (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (d * d,))

    step = max(1, BATCH_ELEMENTS // (X[..., 0, :].size * d))
    num = np.concatenate([
        np.sum((pairs(x, jx) @ flat) * pairs(jx, x), axis=-1)
        for x, jx in ((X[..., i:i + step, :], JX[..., i:i + step, :])
                      for i in range(0, X.shape[-2], step))], axis=-1)
    out = num / norm2 ** 2
    return per_point(out[..., 0] if single else out)


def jacobi_operator(analysis: PointAnalysis, v: np.ndarray) -> np.ndarray:
    """K[j, l] = R(v, e_j, v, e_l) at the analysed point(s), v of shape B + (d,).

    The Jacobi operator along v, from the metric jet without dGamma or the
    Riemann tensor.  Contracting R^b_{ijk} with v^i v^k gives

        D_v(Gamma^b(., v)) - d(Gamma^b(v, v)) + Gamma_v Gamma_v - Gamma(., Gamma(v, v)),

    and d Gamma = 1/2 g^-1 (d brackets - 2 dg Gamma); lowering b cancels the
    g^-1.  So K needs, besides Gamma and dg, the metric Hessian contracted
    once with v and once on its value slots with v x v: two O(d^4) products,
    then O(d^3) algebra.
    """
    g, dg, hess = analysis.g, analysis.metric.gradient, analysis.metric.hessian
    gamma = analysis.gamma
    batch, d = g.shape[:-2], g.shape[-1]
    # hv[a, b, m] = d_m d_v g_ab, then the Hessian against v x v on its
    # derivative slots plus the Hessian against v x v on its value slots
    hv = matvec(hess.reshape(batch + (d ** 3, d)), v).reshape(batch + (d, d, d))
    vv = (v[..., :, None] * v[..., None, :]).reshape(batch + (1, d * d))
    h_slots = (matvec(hv, v[..., None, :])
               + (vv @ hess.reshape(batch + (d * d, d * d))).reshape(g.shape))
    # p[l, j] = v^k d_j d_v g_{kl}
    p = (v[..., None, :] @ hv.reshape(batch + (d, d * d))).reshape(g.shape)
    gamma_v = (v[..., None, None, :] @ gamma)[..., 0, :]           # Gamma^b(v, .)
    w = matvec(gamma_v, v)                                          # Gamma^b(v, v)
    gamma_w = (gamma @ w[..., None, :, None])[..., 0]               # Gamma^b(., w)
    dg_v = matvec(dg, v[..., None, :])                              # d_v g_{lb}
    dg_w = (w[..., None, None, :] @ dg)[..., 0, :]                  # w^b d_j g_{lb}
    # indexed [l, j]
    k_lj = (0.5 * (h_slots - p - mT(p)) - dg_v @ gamma_v + dg_w
            + g @ (gamma_v @ gamma_v - gamma_w))
    return mT(k_lj)


def nabla_j(analysis: PointAnalysis) -> np.ndarray:
    """(nabla J)[j, k, i] = component k of (nabla_{e_j} J)(e_i)."""
    J, dJ = analysis.complex_structure
    gamma = analysis.gamma
    batch, d = J.shape[:-2], J.shape[-1]
    # gamma[k, j, a] J[a, i] and J[k, a] gamma[a, j, i], both as [k, j, i]
    gamma_j = gamma @ J[..., None, :, :]
    j_gamma = (J @ gamma.reshape(batch + (d, d * d))).reshape(gamma.shape)
    return _perm(dJ, "kij->jki") + _perm(gamma_j - j_gamma, "kji->jki")


def max_frame_component_3tensor(T: np.ndarray, frame: np.ndarray,
                                g: np.ndarray):
    """max |T| over orthonormal frame slots, per point; middle slot is contravariant."""
    lowered = frame @ g  # frame covectors as rows
    vals = contract_slots(T, frame, lowered, frame, rank=3)  # [a, c, b]
    return max_abs(vals, 3)


def covariant_vector_derivative(analysis: PointAnalysis, x_field) -> tuple:
    """(X values, nabla X) with (nabla X)[k, i] = nabla_i X^k, from a jet field."""
    x = stack(x_field(analysis.coords))
    values = x.value
    # gradient[k, i] = d_i X^k; gamma[k, i, a] X^a
    nabla = x.gradient + (analysis.gamma @ values[..., None, :, None])[..., 0]
    return values, nabla


def _lowered_nabla(analysis: PointAnalysis, x_field) -> np.ndarray:
    """(nabla_i X)^flat_j = g_kj (nabla X)[k, i]."""
    _, nabla = covariant_vector_derivative(analysis, x_field)
    return mT(nabla) @ analysis.g


def killing_deviation(analysis: PointAnalysis, x_field) -> np.ndarray:
    """(L_X g)_{ij} = g(nabla_i X, e_j) + g(nabla_j X, e_i) in coordinates."""
    lowered = _lowered_nabla(analysis, x_field)
    return lowered + mT(lowered)


def hessian_form(analysis: PointAnalysis, scalar_field) -> np.ndarray:
    """(nabla d tau)_{ij} = d_i d_j tau - Gamma^k_{ij} d_k tau."""
    tau = scalar_field(analysis.coords)
    return tau.hessian - np.einsum("...kij,...k->...ij", analysis.gamma,
                                   tau.gradient)


def div_e(analysis: PointAnalysis, x_field, e_frame: np.ndarray):
    """Trace of (nabla X)^flat over an orthonormal frame of the complement E."""
    lowered = _lowered_nabla(analysis, x_field)
    return per_point(np.trace(e_frame @ lowered @ mT(e_frame),
                         axis1=-2, axis2=-1))


def metric_inverse_jets(analysis: PointAnalysis):
    """(values, grads) of g^{-1} by differentiating the inverse relation."""
    ginv = analysis.g_inv
    return ginv, _inverse_derivative(ginv, analysis.metric.gradient)


def j_gradient_field(analysis: PointAnalysis, scalar_field):
    """First-order jets of X = J grad(tau) at the analysis point(s).

    Only values and first derivatives are propagated (the Hessian slots of the
    returned jet are zero); sufficient for Killing-deviation checks, which
    read first derivatives of the field.
    """
    tau = scalar_field(analysis.coords)
    ginv, dginv = metric_inverse_jets(analysis)
    J, dJ = analysis.complex_structure
    grad_v = matvec(ginv, tau.gradient)
    # grad_d[k, m] = dginv[k, l, m] dtau_l + ginv[k, l] d_m dtau_l
    grad_d = ((mT(dginv) @ tau.gradient[..., None, :, None])[..., 0]
              + ginv @ tau.hessian)
    x_vals = matvec(J, grad_v)
    x_grads = ((mT(dJ) @ grad_v[..., None, :, None])[..., 0]
               + J @ grad_d)
    dj = analysis.coords.dim
    return Jet2(x_vals, x_grads, np.zeros(x_vals.shape + (dj, dj)))


def complex_step(x: np.ndarray, direction: np.ndarray) -> np.ndarray:
    """The complex points x + i h V for directions V (broadcast against x)."""
    return x + (1j * COMPLEX_STEP) * direction


def step_derivative(value) -> np.ndarray:
    """The derivative along V of a quantity evaluated at ``complex_step(x, V)``."""
    return np.imag(value) / COMPLEX_STEP


def second_bianchi_residual(field, x, directions, *, curvature: tuple | None = None):
    """Cyclic covariant-derivative sum over three directions, by complex step.

    For unit directions (A, B, C) at each point, the residual is the largest
    entry of (nabla_A R)(B, C) + (nabla_B R)(C, A) + (nabla_C R)(A, B).  Each
    nabla_V R is the derivative of the curvature along V, from one analysis
    at x + i h V (three complex points per point, analysed as one batch),
    plus the Christoffel terms contracted against V.  This is the one check
    that consumes third derivatives of the metric.  ``x`` may be a batch,
    with ``directions`` of shape B + (3, d); the result then has one entry
    per point.  A caller that already holds the Riemann tensor and
    Christoffel symbols at ``x`` passes them as ``curvature`` = (R, gamma).
    """
    if curvature is None:
        base = PointAnalysis(field, x)
        curvature = (base.riemann.components, base.gamma)
    R0, gamma = curvature
    dirs = np.asarray(directions, dtype=float)       # B + (3, d)
    batch, d = dirs.shape[:-2], dirs.shape[-1]
    # the cyclic terms (V, X, Y): (A, B, C), (B, C, A), (C, A, B)
    order = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    V, X, Y = (dirs[..., order[:, n], :] for n in range(3))   # each B + (3, d)

    # d/ds R(x + s V)(X, Y, ., .) at s = 0: three complex points per point
    moved = complex_step(np.asarray(x, dtype=float)[..., None, :], V).reshape(-1, d)
    xs, ys = X.reshape(-1, d), Y.reshape(-1, d)
    parts = [step_derivative(contract_slots(PointAnalysis(field, moved[sl]).riemann.components,
                                            xs[sl], ys[sl], rank=4))
             for sl in batch_slices(len(moved), d)]
    derivative = np.concatenate(parts).reshape(batch + (3, d, d))

    # Christoffel terms, with G[m, i] = V^a Gamma^m_{ai} per point and term
    G = (gamma[..., None, :, :, :] * V[..., None, :, None]).sum(axis=-2)   # B + (3, d, d)
    R0 = np.broadcast_to(R0[..., None, :, :, :, :], batch + (3,) + R0.shape[-4:])
    Q0 = contract_slots(R0, X, Y, rank=4)                                   # R0(X, Y, ., .)
    cov = (derivative - contract_slots(R0, matvec(G, X), Y, rank=4)
           - contract_slots(R0, X, matvec(G, Y), rank=4)
           - mT(G) @ Q0 - Q0 @ G)
    return per_point(np.abs(cov.sum(axis=-3)).max(axis=(-2, -1)))
