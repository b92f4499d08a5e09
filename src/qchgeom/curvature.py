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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .jets import Jet2, seed_chart, stack


@dataclass(frozen=True)
class Connection:
    """Christoffel symbols and their first derivatives at a point."""

    gamma: np.ndarray    # (d, d, d)
    dgamma: np.ndarray   # (d, d, d, d), last slot = derivative direction


@dataclass(frozen=True)
class Curvature4:
    """Fully lowered curvature tensor at a point."""

    components: np.ndarray  # (d, d, d, d)

    def apply(self, X, Y, Z, W) -> float:
        return float(contract_slots(self.components, X, Y, Z, W))


def contract_slots(T: np.ndarray, *factors) -> np.ndarray:
    """Contract the leading slots of T, in order, with one factor each.

    A vector factor removes its slot; a (k, d) factor of row vectors replaces
    its slot by a new trailing axis of length k.  One pairwise contraction per
    slot keeps a rank-4 tensor at O(d^4 k) instead of the single nested loop a
    multi-operand einsum runs.
    """
    for f in factors:
        head, rest = T.shape[0], T.shape[1:]
        # move the slot to the end (one copy), then one matrix product
        T = T.reshape(head, -1).T.reshape(rest + (head,)) @ f.T
    return T


def _inverse_derivative(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """d_m g^{kl} = -g^{ka} d_m g_{ab} g^{bl}, last slot = derivative direction."""
    return -np.moveaxis(ginv @ np.moveaxis(dg, -1, 0) @ ginv, 0, -1)


class PointAnalysis:
    """Lazy bundle of pointwise data for one (field, point) pair.

    Expensive pieces (metric jets, curvature) are computed once and shared by
    all downstream checks at the point.
    """

    def __init__(self, field, point):
        self.field = field
        self.point = point

    @cached_property
    def coords(self) -> Jet2:
        return seed_chart(self.field.coords(self.point))

    @cached_property
    def metric(self) -> Jet2:
        """The metric components as one (d, d) jet."""
        return stack(self.field.metric_jets(self.coords))

    @property
    def g(self) -> np.ndarray:
        return self.metric.value

    @cached_property
    def g_inv(self) -> np.ndarray:
        return np.linalg.inv(self.g)

    @cached_property
    def connection(self) -> Connection:
        dg, d2g = self.metric.gradient, self.metric.hessian
        ginv = self.g_inv
        # brackets[l, i, j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
        brackets = (np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg)
                    - np.einsum("ijl->lij", dg))
        gamma = 0.5 * np.einsum("kl,lij->kij", ginv, brackets)
        dbrackets = (np.einsum("jlim->lijm", d2g) + np.einsum("iljm->lijm", d2g)
                     - np.einsum("ijlm->lijm", d2g))
        dginv = _inverse_derivative(ginv, dg)
        d = ginv.shape[0]
        dgamma = 0.5 * (np.tensordot(dginv, brackets, axes=(1, 0)).transpose(0, 2, 3, 1)
                        + (ginv @ dbrackets.reshape(d, -1)).reshape(dbrackets.shape))
        return Connection(gamma=gamma, dgamma=dgamma)

    @cached_property
    def riemann(self) -> Curvature4:
        conn = self.connection
        gamma, dgamma = conn.gamma, conn.dgamma
        # R^b_{ijk} = d_i Gamma^b_{jk} - d_j Gamma^b_{ik}
        #             + Gamma^b_{ia} Gamma^a_{jk} - Gamma^b_{ja} Gamma^a_{ik}
        d = gamma.shape[0]
        # gg[b, i, j, k] = Gamma^b_{ia} Gamma^a_{jk}
        gg = (gamma.reshape(d * d, d) @ gamma.reshape(d, d * d)).reshape(d, d, d, d)
        r_up = (np.einsum("bjki->bijk", dgamma) - np.einsum("bikj->bijk", dgamma)
                + gg - gg.transpose(0, 2, 1, 3))
        return Curvature4(np.tensordot(r_up, self.g, axes=(0, 0)))

    @cached_property
    def ricci(self) -> np.ndarray:
        return np.tensordot(self.g_inv, self.riemann.components, axes=([0, 1], [0, 3]))

    @cached_property
    def complex_structure(self):
        """(values, grads) of J, or None when the chart has no J."""
        builder = getattr(self.field, "complex_structure_jets", None)
        if builder is None:
            return None
        J = stack(builder(self.coords))
        return J.value, J.gradient

    @cached_property
    def frame(self):
        return self.field.frame_at(self.point, self.g)


# -- operations ----------------------------------------------------------------


def christoffel(field, point) -> Connection:
    """Levi-Civita Christoffel symbols (and first derivatives) at a point."""
    return PointAnalysis(field, point).connection


def riemann(field, point) -> Curvature4:
    return PointAnalysis(field, point).riemann


def ricci(field, point) -> np.ndarray:
    return PointAnalysis(field, point).ricci


def sectional_curvature(R4: Curvature4, g: np.ndarray, X, Y) -> float:
    """K(X, Y) = R(X, Y, Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)."""
    gxx = float(X @ g @ X)
    gyy = float(Y @ g @ Y)
    gxy = float(X @ g @ Y)
    area2 = gxx * gyy - gxy * gxy
    if area2 <= 0.0:
        raise ValueError("sectional curvature of a degenerate plane")
    return R4.apply(X, Y, Y, X) / area2


def holomorphic_sectional_curvature(R4: Curvature4, g: np.ndarray,
                                    J: np.ndarray, X):
    """R(X, JX, JX, X) / |X|^4 for one vector X (d,), or per row of a batch (N, d).

    The pairs (X, JX) and (JX, X) meet R viewed as a (d^2, d^2) matrix, so a
    batch of N probes costs one O(N d^4) product.
    """
    X = np.asarray(X, dtype=float)
    norm2 = np.sum((X @ g) * X, axis=-1)
    if np.any(norm2 <= 0.0):
        raise ValueError("holomorphic sectional curvature of a null vector")
    JX = X @ J.T
    d = X.shape[-1]
    left = (X[..., :, None] * JX[..., None, :]).reshape(X.shape[:-1] + (d * d,))
    right = (JX[..., :, None] * X[..., None, :]).reshape(X.shape[:-1] + (d * d,))
    num = np.sum((left @ R4.components.reshape(d * d, d * d)) * right, axis=-1)
    out = num / norm2 ** 2
    return float(out) if X.ndim == 1 else out


def nabla_j(analysis: PointAnalysis) -> np.ndarray:
    """(nabla J)[j, k, i] = component k of (nabla_{e_j} J)(e_i)."""
    J, dJ = analysis.complex_structure
    gamma = analysis.connection.gamma
    return (np.einsum("kij->jki", dJ)
            + np.einsum("kja,ai->jki", gamma, J)
            - np.einsum("aji,ka->jki", gamma, J))


def max_frame_component_3tensor(T: np.ndarray, frame: np.ndarray,
                                g: np.ndarray) -> float:
    """max |T| over orthonormal frame slots; middle slot is contravariant."""
    lowered = frame @ g  # frame covectors as rows
    vals = contract_slots(T, frame, lowered, frame)  # [a, c, b]
    return float(np.abs(vals).max())


def covariant_vector_derivative(analysis: PointAnalysis, x_field) -> tuple:
    """(X values, nabla X) with (nabla X)[k, i] = nabla_i X^k, from a jet field."""
    x = stack(x_field(analysis.coords))
    values = x.value
    nabla = x.gradient + analysis.connection.gamma @ values  # gradient[k, i] = d_i X^k
    return values, nabla


def killing_deviation(analysis: PointAnalysis, x_field) -> np.ndarray:
    """(L_X g)_{ij} = g(nabla_i X, e_j) + g(nabla_j X, e_i) in coordinates."""
    _, nabla = covariant_vector_derivative(analysis, x_field)
    lowered = np.einsum("kj,ki->ij", analysis.g, nabla)
    return lowered + lowered.T


def hessian_form(analysis: PointAnalysis, scalar_field) -> np.ndarray:
    """(nabla d tau)_{ij} = d_i d_j tau - Gamma^k_{ij} d_k tau."""
    tau = scalar_field(analysis.coords)
    return tau.hessian - np.einsum("kij,k->ij", analysis.connection.gamma,
                                   tau.gradient)


def div_e(analysis: PointAnalysis, x_field, e_frame: np.ndarray) -> float:
    """Trace of (nabla X)^flat over an orthonormal frame of the complement E."""
    _, nabla = covariant_vector_derivative(analysis, x_field)
    lowered = np.einsum("kj,ki->ij", analysis.g, nabla)  # (nabla_i X)^flat_j
    return float(np.trace(e_frame @ lowered @ e_frame.T))


def constant_vector_field(values: np.ndarray):
    """A coordinate-constant vector field as a jet field."""
    vals = np.asarray(values, dtype=float)

    def field(coords):
        return Jet2.constant(vals, coords[0].dim)

    return field


def metric_inverse_jets(analysis: PointAnalysis):
    """(values, grads) of g^{-1} by differentiating the inverse relation."""
    ginv = analysis.g_inv
    return ginv, _inverse_derivative(ginv, analysis.metric.gradient)


def j_gradient_field(analysis: PointAnalysis, scalar_field):
    """First-order jets of X = J grad(tau) at the analysis point.

    Only values and first derivatives are propagated (the Hessian slots of the
    returned jet are zero); sufficient for Killing-deviation checks, which
    read first derivatives of the field.
    """
    tau = scalar_field(analysis.coords)
    ginv, dginv = metric_inverse_jets(analysis)
    J, dJ = analysis.complex_structure
    grad_v = ginv @ tau.gradient
    grad_d = (np.einsum("klm,l->km", dginv, tau.gradient)
              + np.einsum("kl,lm->km", ginv, tau.hessian))
    x_vals = J @ grad_v
    x_grads = np.einsum("kam,a->km", dJ, grad_v) + J @ grad_d
    dj = analysis.coords.dim
    return Jet2(x_vals, x_grads, np.zeros((x_vals.shape[0], dj, dj)))


def second_bianchi_residual(field, point, directions, step: float = 1e-5) -> float:
    """Cyclic covariant-derivative sum over three directions, by differencing.

    nabla_a R_{ijkl} is assembled from central differences of the curvature at
    coordinate-displaced points plus the Christoffel correction terms; this is
    the one check that consumes third derivatives of the metric, so it runs at
    a looser tolerance than the jet-exact identities.
    """
    base = PointAnalysis(field, point)
    R0 = base.riemann.components
    gamma = base.connection.gamma
    coords0 = field.coords(point)
    d = coords0.shape[0]

    dR = np.empty((d,) + R0.shape)
    for a in range(d):
        plus = coords0.copy(); plus[a] += step
        minus = coords0.copy(); minus[a] -= step
        Rp = PointAnalysis(field, field.point(plus)).riemann.components
        Rm = PointAnalysis(field, field.point(minus)).riemann.components
        dR[a] = (Rp - Rm) / (2.0 * step)
    covR = (dR
            - np.einsum("mai,mjkl->aijkl", gamma, R0)
            - np.einsum("maj,imkl->aijkl", gamma, R0)
            - np.einsum("mak,ijml->aijkl", gamma, R0)
            - np.einsum("mal,ijkm->aijkl", gamma, R0))

    A, B, C = directions
    cyc = (contract_slots(covR, A, B, C) + contract_slots(covR, B, C, A)
           + contract_slots(covR, C, A, B))
    return float(np.abs(cyc).max())
