"""Levi-Civita connection and curvature from jet-evaluable metric fields.

Everything here is pointwise: the metric components arrive as second-order
jets, so the Christoffel symbols come from the gradient slots and the
curvature from the Hessian slots as well.  No derivative of Gamma is formed.

Index conventions (fixed once, used everywhere):

    connection[l, i, j] = Gamma_{l,ij} = (d_i g_jl + d_j g_il - d_l g_ij) / 2
    gamma[k, i, j]      = Gamma^k_{ij} = g^{kl} Gamma_{l,ij}
    riemann[i, j, k, l] = R_ijkl = g( R(e_i, e_j) e_k , e_l ),
                          R(X, Y)Z = ([nabla_X, nabla_Y] - nabla_[X,Y]) Z
    ricci[j, k]         = Ric_jk = g^{il} R_ijkl

Curvature has one formula, the lowered tensor in its first-kind form,

    R_ijkl = (d_i d_k g_jl + d_j d_l g_ik - d_i d_l g_jk - d_j d_k g_il) / 2
             + Gamma_{b,jl} Gamma^b_{ik} - Gamma_{b,il} Gamma^b_{jk},

which is g_lb R^b_ijk with d Gamma^b written out: no g^-1 on the
second-derivative term, whose rounding an ill-conditioned chart would
otherwise multiply.  It has three readers:

* R whole (``PointAnalysis.riemann``), one (d^2, d) x (d, d^2) product and
  permuted sums, O(d^5): the sample analyses, whose families read all of it
  (the curvature symmetries, the QCH fit and its random probes, the
  submersion and bundle components), and the complex step along t of the
  gradient laws (``qch.coefficient_t_derivatives``);
* R along a pair (``riemann_along``), R(X, Y, ., .) from the metric's
  second derivatives along X and along Y and O(d^3) algebra:
  ``qch.coefficient_base_independence`` (a = K(E_1) at the point and at the
  moved points) and ``second_bianchi_residual``;
* R along v twice (``jacobi_operator``), R(v, ., v, .) the same way, with
  v^a v^b d d g_ab besides: the Jacobi coefficients of the decay flow.

R whole and Ricci read the dense Hessian of the metric jet, B + (d, d, d,
d), and they alone assemble it.  The directional readers read two
contractions of it, the metric jet's d_. d_v g (``hessian_along``, d^3
entries per direction, every direction of a reader in one pass over the
metric) and v^a w^b d d g_ab (``hessian_pair``, d^2): a bundle model's jet
(``geometry.BundleJet``) takes both from its z-only parts and t-warps, and
the parts from their factors, so no directional reader forms a rank-4
array, and a jet without parts (a plain ``jets.Jet2``: the test fields)
contracts its dense Hessian by the same formulas.  Which route a
contraction takes is the field's, not the analysis's: it is the same
whether or not the analysis already holds the dense Hessian, so both sides
of the base independence round alike.

The Ricci tensor is the formula contracted with g^{il}, written out as its
own O(d^4) contraction of the same jet,

    Ric_jk = d_i Gamma^i_jk - d_j d_k log sqrt(det g)
             + Gamma^i_ia Gamma^a_jk - Gamma^i_ja Gamma^a_ik,

so an analysis that needs only Ricci never builds R, and Ricci does not
inherit the rounding of R's lowering.

The complex step along t reads only the fit's three probes, yet keeps R: the
derivative it takes in its imaginary part loses headroom when contracted
first at near-degenerate profiles.  ``identity_gradient_b`` (tolerance
1e-6) at warped n = 3, c0 = 1, x = 0.125, y = 0.125125, k = 2, seed 0,
10 points, with the stepped fit's probes read by each route:

    R, then probes (kept)                 2.5e-8
    riemann_along per probe               1.1e-6  fails
    jacobi_operator along X per probe     8.6e-7
    jacobi_operator along JX per probe    1.4e-6  fails

Every array may carry leading batch axes, one entry per sample point: an
analysis of N points holds gamma of shape (N, d, d, d), and the indices above
name the trailing axes.  One point is the batch shape ().  Every loop over
a batch goes through ``batch_analyses``: it yields (slice, analysis) pairs
over balanced slices that keep the analysis's largest array within
``BATCH_ELEMENTS`` (a rank-4 tensor per point; for a directional read the
metric Hessian along ``DIRECTIONS`` directions, or along one where the
points share their parts), and makes each analysis only when the loop
reaches it, so a loop holds one at a time.

An analysis keeps the dtype of its coordinates, and the path to curvature is
analytic (nothing conjugates, takes a modulus or compares complex values).
So at the complex point x + i h V the imaginary part of any quantity over h
is its derivative along V, exact to rounding as nothing is subtracted (the
complex step; Squire & Trefethen, SIAM Rev. 40, 1998).
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .batch import inexact, matvec, max_abs, mT, per_point
from .jets import Jet2, seed_chart

# the complex step h: far below the rounding of every real part, and far
# above the smallest normal number in every imaginary part
COMPLEX_STEP = 1e-30

# float64 entries of one (points, d, d, d, d) array in a batched analysis
# (0.625 MB).  A slice that reads R whole holds three such arrays per point
# at most, complex ones at its complex step along t, which comes before its
# real R and Hessian exist: the metric Hessian, R and the one buffer R is
# summed in.  With two points to a slice at d = 14 (2 * 14^4 = 76,832
# entries) that step, and the second Bianchi read in one slice of its 6
# points, trace below the run's peak at 2^16 with one point to a slice
# (6.38 and 6.41 MB against 6.46 MB by tracemalloc over a points-d14 pass);
# 5 * 2^14 is the smallest multiple of 2^14 that holds two.  Points per
# slice that reads R whole: 63 at d = 6, 8 at d = 10, 3 at d = 12, 2 at
# d = 13 and 14, 1 from d = 15
BATCH_ELEMENTS = 5 << 14

# the most directions one directional read takes at once: X, Y, GX and GY of
# the second Bianchi check, each a (d, d, d) Hessian along it
DIRECTIONS = 4


def batch_slices(count: int, per_point: int) -> list[slice]:
    """Consecutive slices of ``count`` points, as few as keep ``per_point``
    entries per point (one point at least) within ``BATCH_ELEMENTS``, and of
    sizes that differ by at most one."""
    pieces = -(-count // max(1, BATCH_ELEMENTS // per_point))
    size, extra = divmod(count, max(pieces, 1))
    bounds = [i * size + min(i, extra) for i in range(pieces + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def batch_analyses(field, x: np.ndarray, *, directional: bool = False):
    """(slice, analysis) pairs over the points x (N, d), one batched analysis
    per memory-bounded slice, each made only when the loop reaches it.

    An analysis that reads R whole or Ricci holds rank-4 arrays, the metric
    Hessian and R, and one buffer while it sums R, so its slices count d^4
    entries per point (2 points at d = 14, 63 at d = 6).  One read only
    along directions (``directional``: ``connection_along``,
    ``riemann_along``, ``jacobi_operator``) of a field that keeps its
    metric's z-only parts (``field.shares_parts``) forms no rank-4 array:
    its largest is the metric Hessian along its directions, d^3 entries
    each, at most ``DIRECTIONS`` of them, so its slices count
    ``DIRECTIONS`` d^3 per point (7 points at d = 14, 94 at d = 6); where
    every point shares its parts (the nodes of an axial flow panel, read
    along one direction) they count d^3 (a 24-node panel in one slice up
    to d = 14).  The one dense part, the h of a
    ``ProductBase`` (the negative control's, at d = 6), holds (d - 2)^4
    entries per point, within that count.  A field without parts is
    counted at d^4 per point on either route."""
    d = field.dim
    shares = getattr(field, "shares_parts", None)
    if not directional or shares is None:
        per_point = d ** 4
    else:
        per_point = d ** 3 if shares(x) else DIRECTIONS * d ** 3
    for sl in batch_slices(len(x), per_point):
        yield sl, PointAnalysis(field, x[sl])


def contract_slots(T: np.ndarray, *factors, rank: int) -> np.ndarray:
    """Contract the leading slots of T, in order, with one factor each.

    A vector factor removes its slot; a (k, d) factor of row vectors replaces
    its slot by a new trailing axis of length k.  The axes of T before its
    last ``rank`` are batch axes, shared by every factor (B + (d,) or
    B + (k, d)).  One pairwise contraction per slot keeps a rank-4 tensor at
    O(d^4 k) instead of the single nested loop a multi-operand einsum runs.
    """
    nb = T.ndim - rank
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
    pieces (metric jets, the connection, curvature) are computed once and
    shared by all downstream checks at the point(s).  ``connection`` holds the
    first-kind symbols; ``gamma``, ``riemann`` and ``ricci`` read it, and
    neither curvature reads the other.

    A field is anything with

    * ``dim``: the chart dimension d;
    * ``metric_jets(coords)``: the metric components as one B + (d, d) jet of
      the seeded coordinates ``coords``;
    * ``complex_structure_jets``: the same for J, or None where there is none;
    * ``frame_at(x, g)``: the B + (d, d) array of frame rows orthonormal for
      the metric values g, laid out by chart: (H, JH, E_1..E_2m) on the total
      space, (xi/alpha, E_1..E_2m) on the circle bundle, E rows on the base.
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
        return self.field.metric_jets(self.coords)

    @property
    def g(self) -> np.ndarray:
        return self.metric.value

    @cached_property
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached_property
    def connection(self) -> np.ndarray:
        """The first-kind symbols, connection[l, i, j] = Gamma_{l,ij}: half the
        bracket of metric derivatives."""
        dg = self.metric.gradient
        return 0.5 * (_perm(dg, "jli->lij") + _perm(dg, "ilj->lij") - _perm(dg, "ijl->lij"))

    @cached_property
    def gamma(self) -> np.ndarray:
        """The Christoffel symbols of the second kind, for the sample
        families; the flows read them along a velocity alone
        (``connection_along``)."""
        first, ginv = self.connection, self.g_inv
        batch, d = ginv.shape[:-2], ginv.shape[-1]
        return (ginv @ first.reshape(batch + (d, d * d))).reshape(first.shape)

    @cached_property
    def riemann(self) -> np.ndarray:
        """R_ijkl, B + (d, d, d, d), from the metric jet and the connection in
        its first-kind form (module docstring): one (d^2, d) x (d, d^2) product
        and permuted sums."""
        first, gamma, hess = self.connection, self.gamma, self.metric.hessian
        batch, d = hess.shape[:-4], hess.shape[-1]
        # the terms symmetric under (i, k) <-> (j, l), as a (d^2, d^2) matrix:
        # pairs[i, k, j, l] = Gamma^b_ik Gamma_{b,jl} + (d_i d_k g_jl + d_j d_l g_ik) / 2,
        # summed into the product; the half-sum's array then takes R, so the
        # build holds the Hessian and two arrays of its size
        flat = hess.reshape(batch + (d * d, d * d))
        half = flat + mT(flat)
        half *= 0.5
        pairs = mT(gamma.reshape(batch + (d, d * d))) @ first.reshape(batch + (d, d * d))
        pairs += half
        pairs = pairs.reshape(hess.shape)
        # R_ijkl = pairs[i, k, j, l] - pairs[i, l, j, k], as Gamma^b_il Gamma_{b,jk}
        # = Gamma_{b,il} Gamma^b_jk
        return np.subtract(_perm(pairs, "ikjl->ijkl"), _perm(pairs, "iljk->ijkl"),
                           out=half.reshape(hess.shape))

    @cached_property
    def ricci(self) -> np.ndarray:
        """Ric_jk by its own contraction of the metric jet (module docstring),
        in pairwise products of at most O(d^4): no Riemann tensor is built."""
        dg, hess, ginv = self.metric.gradient, self.metric.hessian, self.g_inv
        first, gamma = self.connection, self.gamma
        batch, d = ginv.shape[:-2], ginv.shape[-1]
        flat_inv = ginv.reshape(batch + (d * d,))
        flat_hess = hess.reshape(batch + (d * d, d * d))
        # d_i Gamma^i_jk = (d_i g^{il}) Gamma_{l,jk} + g^{il} d_i Gamma_{l,jk}, with
        # d_i g^{il} = -g^{la} w_a for w_a = g^{ib} d_i g_ab
        w = matvec(_perm(dg, "abi->aib").reshape(batch + (d, d * d)), flat_inv)
        dinv_first = -matvec(mT(first.reshape(batch + (d, d * d))), matvec(ginv, w))
        # g^{il} d_i d_k g_jl as [j, k], then g^{il} d_i d_l g_jk
        hk = (flat_inv[..., None, None, :] @ hess.reshape(batch + (d, d * d, d)))[..., 0, :]
        trace_slots = matvec(flat_hess, flat_inv)
        div_gamma = (dinv_first.reshape(batch + (d, d))
                     + 0.5 * (hk + mT(hk) - trace_slots.reshape(batch + (d, d))))
        # d_j d_k log sqrt(det g) = (g^{ab} d_j d_k g_ab - tr(g^-1 d_j g g^-1 d_k g)) / 2
        ginv_dg = ginv[..., None, :, :] @ _perm(dg, "abj->jab")      # [j, a, b]
        cross = (ginv_dg.reshape(batch + (d, d * d))
                 @ mT(mT(ginv_dg).reshape(batch + (d, d * d))))
        log_det = 0.5 * ((flat_inv[..., None, :] @ flat_hess).reshape(batch + (d, d)) - cross)
        # Gamma^i_ia Gamma^a_jk - Gamma^i_ja Gamma^a_ik
        trace_gamma = np.trace(gamma, axis1=-3, axis2=-2)              # [a]
        quadratic = (matvec(mT(gamma.reshape(batch + (d, d * d))), trace_gamma)
                     .reshape(batch + (d, d))
                     - _perm(gamma, "ija->jai").reshape(batch + (d, d * d))
                     @ gamma.reshape(batch + (d * d, d)))
        return div_gamma - log_det + quadratic

    @cached_property
    def complex_structure(self):
        """(values, grads) of J, or None when the chart has no J."""
        builder = self.field.complex_structure_jets
        if builder is None:
            return None
        J = builder(self.coords)
        return J.value, J.gradient

    @cached_property
    def frame(self) -> np.ndarray:
        """The field's g-orthonormal frame rows, B + (d, d)."""
        return self.field.frame_at(self.x, self.g)


# -- operations ----------------------------------------------------------------


def _probe_norms(g: np.ndarray, X: np.ndarray) -> np.ndarray:
    """g(X, X) per row of X, refusing a probe that is not g-positive."""
    norm2 = np.sum((X @ g) * X, axis=-1)
    if np.any(norm2.real <= 0.0):
        raise ValueError("holomorphic sectional curvature of a null vector")
    return norm2


def holomorphic_sectional_curvature(R: np.ndarray, g: np.ndarray,
                                    J: np.ndarray, X: np.ndarray) -> np.ndarray:
    """R(X, JX, JX, X) / |X|^4 per row of the probes X, B + (P, d) for R of
    batch shape B: the result is B + (P,).

    The pairs (X, JX) and (JX, X) meet R viewed as a (d^2, d^2) matrix, so P
    probes cost one O(P d^4) product per point, taken over slices of the
    probes that keep each B + (slice, d^2) array in budget.
    """
    norm2 = _probe_norms(g, X)
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
    return num / norm2 ** 2


def _first_kind_along(analysis: PointAnalysis, V: np.ndarray) -> np.ndarray:
    """Gamma_b(V, e_k) as [b, k], for V of shape B + (d,)."""
    return (V[..., None, None, :] @ analysis.connection)[..., 0, :]


def connection_along(analysis: PointAnalysis, V: np.ndarray) -> np.ndarray:
    """Gamma^b(V, e_k) as [b, k], for V of shape B + (d,): the first-kind
    symbols along V raised by g^-1, an O(d^3) product with no gamma built."""
    return analysis.g_inv @ _first_kind_along(analysis, V)


def riemann_along(analysis: PointAnalysis, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """R(X, Y, e_k, e_l) as [k, l] at the analysed point(s), X and Y of shape
    B + (d,), contracted straight from the metric jet: no R is formed.

    Contracting the first-kind form (module docstring) with X^i Y^j gives

        R(X, Y, ., .) = (S - S^T) / 2 + M - M^T,
        S = A(X, Y) - A(Y, X),  A(U, W)[k, l] = U^m W^a d_m d_k g_al,
        M[k, l] = Gamma^b(X, e_k) Gamma_b(Y, e_l),

    so a pair reads the Hessian along X and along Y in one pass
    (``hessian_along`` of the metric jet, d^3 entries each) and takes O(d^3)
    algebra after it.
    """
    along = analysis.metric.hessian_along(np.stack((X, Y), axis=-2))
    return _riemann_from(analysis, X, Y, along[..., 0], along[..., 1])


def _riemann_from(analysis: PointAnalysis, X: np.ndarray, Y: np.ndarray,
                  hx: np.ndarray, hy: np.ndarray) -> np.ndarray:
    """``riemann_along`` from the Hessian along X and along Y, hx and hy of
    shape B + (d, d, d) (the metric jet's ``hessian_along``)."""
    batch, d = X.shape[:-1], X.shape[-1]
    # S^T[l, k] = Y^a d_k d_X g_al - X^a d_k d_Y g_al
    s_t = ((Y[..., None, :] @ hx.reshape(batch + (d, d * d)))
           - (X[..., None, :] @ hy.reshape(batch + (d, d * d)))).reshape(batch + (d, d))
    half = 0.5 * mT(s_t) + mT(connection_along(analysis, X)) @ _first_kind_along(analysis, Y)
    return half - mT(half)


def holomorphic_curvature_along(analysis: PointAnalysis, X: np.ndarray) -> np.ndarray:
    """R(X, JX, JX, X) / |X|^4 for one vector X per point, B + (d,), from
    ``riemann_along``: one O(d^4) product, where the tensor costs O(d^5)."""
    g, J = analysis.g, analysis.complex_structure[0]
    norm2 = _probe_norms(g, X[..., None, :])[..., 0]
    JX = matvec(J, X)
    return np.sum(matvec(riemann_along(analysis, X, JX), X) * JX, axis=-1) / norm2 ** 2


def jacobi_operator(analysis: PointAnalysis, v: np.ndarray) -> np.ndarray:
    """K[j, l] = R(v, e_j, v, e_l) at the analysed point(s), v of shape B + (d,).

    The first-kind form (module docstring) at i = k = v:

        K = (d_v d_v g + H(v, v) - C - C^T) / 2 + Gamma_b(., .) Gamma^b(v, v)
            - Gamma^b(v, .)^T Gamma_b(v, .),
        H(v, v)[j, l] = v^a v^b d_j d_l g_ab,  C[j, l] = d_l d_v g_jv,

    so K reads the Hessian along v (the metric jet's ``hessian_along``, d^3
    entries) and on its value slots with v x v (``hessian_pair``, d^2
    entries), then takes O(d^3) algebra.
    """
    metric = analysis.metric
    batch, d = metric.shape[:-2], metric.shape[-1]
    # hv[a, b, m] = d_m d_v g_ab, then d_v d_v g + H(v, v)
    hv = metric.hessian_along(v[..., None, :])[..., 0]
    h_slots = matvec(hv, v[..., None, :]) + metric.hessian_pair(v, v)
    c = (v[..., None, :] @ hv.reshape(batch + (d, d * d))).reshape(batch + (d, d))
    gamma_v = connection_along(analysis, v)                         # Gamma^b(v, .)
    first_w = (matvec(gamma_v, v)[..., None, :]
               @ analysis.connection.reshape(batch + (d, d * d))).reshape(batch + (d, d))
    return (0.5 * (h_slots - c - mT(c)) + first_w
            - mT(gamma_v) @ _first_kind_along(analysis, v))


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


# The operators below take a vector field X (value B + (d,)) or a scalar field
# tau (value B) as a jet at the analysis's seeded coordinates ``analysis.coords``.


def covariant_vector_derivative(analysis: PointAnalysis, x: Jet2) -> np.ndarray:
    """nabla X with (nabla X)[k, i] = nabla_i X^k."""
    # gradient[k, i] = d_i X^k; gamma[k, i, a] X^a
    return x.gradient + (analysis.gamma @ x.value[..., None, :, None])[..., 0]


def _lowered_nabla(analysis: PointAnalysis, x: Jet2) -> np.ndarray:
    """(nabla_i X)^flat_j = g_kj (nabla X)[k, i]."""
    return mT(covariant_vector_derivative(analysis, x)) @ analysis.g


def killing_deviation(analysis: PointAnalysis, x: Jet2) -> np.ndarray:
    """(L_X g)_{ij} = g(nabla_i X, e_j) + g(nabla_j X, e_i) in coordinates."""
    lowered = _lowered_nabla(analysis, x)
    return lowered + mT(lowered)


def hessian_form(analysis: PointAnalysis, tau: Jet2) -> np.ndarray:
    """(nabla d tau)_{ij} = d_i d_j tau - Gamma^k_{ij} d_k tau."""
    return tau.hessian - np.einsum("...kij,...k->...ij", analysis.gamma,
                                   tau.gradient)


def div_e(analysis: PointAnalysis, x: Jet2, e_frame: np.ndarray):
    """Trace of (nabla X)^flat over an orthonormal frame of the complement E."""
    lowered = _lowered_nabla(analysis, x)
    return per_point(np.trace(e_frame @ lowered @ mT(e_frame),
                         axis1=-2, axis2=-1))


def metric_inverse_jets(analysis: PointAnalysis):
    """(values, grads) of g^{-1} by differentiating the inverse relation."""
    ginv = analysis.g_inv
    return ginv, _inverse_derivative(ginv, analysis.metric.gradient)


def j_gradient_field(analysis: PointAnalysis, tau: Jet2) -> Jet2:
    """First-order jets of X = J grad(tau) at the analysis point(s).

    Only values and first derivatives are propagated (the Hessian slots of the
    returned jet are zero); sufficient for Killing-deviation checks, which
    read first derivatives of the field.
    """
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


def second_bianchi_residual(field, x, directions):
    """Cyclic covariant-derivative sum over three directions, by complex step.

    For unit directions (A, B, C) at each point, the residual is the largest
    entry of (nabla_A R)(B, C) + (nabla_B R)(C, A) + (nabla_C R)(A, B).  Each
    nabla_V R is the derivative of the curvature along V, from one analysis
    at x + i h V (three complex points per point, analysed as one batch),
    plus the Christoffel terms contracted against V.  R and Gamma at x are
    the real parts of the same analysis (the step moves them by O(h^2), far
    below rounding).  Every curvature term is R(U, W, ., .) for a pair of
    directions, read by ``riemann_along``, so no Riemann tensor is built.
    This is the one check that consumes third derivatives of the metric.
    ``x`` may be a batch, with ``directions`` of shape B + (3, d); the result
    then has one entry per point.
    """
    dirs = np.asarray(directions, dtype=float)       # B + (3, d)
    batch, d = dirs.shape[:-2], dirs.shape[-1]
    # the cyclic terms (V, X, Y): (A, B, C), (B, C, A), (C, A, B)
    order = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    V, X, Y = (dirs[..., order[:, n], :] for n in range(3))   # each B + (3, d)
    moved = complex_step(np.asarray(x, dtype=float)[..., None, :], V).reshape(-1, d)
    V, X, Y = (a.reshape(-1, d) for a in (V, X, Y))
    parts = []
    for sl, an in batch_analyses(field, moved, directional=True):
        v, a, b = V[sl], X[sl], Y[sl]
        # R(X, Y, ., .) at x + i h V: its real part is R0(X, Y, ., .), its
        # imaginary part over h the derivative along V; and the Christoffel
        # terms with G[m, i] = V^a Gamma^m_{ai}.  The three pairs read the
        # Hessian along a, b, Ga and Gb, in one pass
        G = connection_along(an, v).real
        Ga, Gb = matvec(G, a), matvec(G, b)
        h = an.metric.hessian_along(np.stack((a, b, Ga, Gb), axis=-2))
        h_a, h_b, h_ga, h_gb = (h[..., i] for i in range(4))
        along = _riemann_from(an, a, b, h_a, h_b)
        Q0 = along.real
        parts.append(step_derivative(along) - _riemann_from(an, Ga, b, h_ga, h_b).real
                     - _riemann_from(an, a, Gb, h_a, h_gb).real
                     - mT(G) @ Q0 - Q0 @ G)
    cov = np.concatenate(parts).reshape(batch + (3, d, d))
    return per_point(np.abs(cov.sum(axis=-3)).max(axis=(-2, -1)))
