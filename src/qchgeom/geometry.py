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
jets are closed forms in z (``FubiniStudy``).  Each bundle model keeps its
z-only parts, h and theta x theta in z's own 2m derivative slots, at the
last real and the last complex batch and single point of base points it
read (``_base_parts``, ``_SliceMemo``), built once for a batch whose
points share one z (the nodes of an axial flow panel) and broadcast: the
metric, the frame, the horizontal lifts and the connection-form check at a
batch all read one evaluation.  Theta is kept as theta's own jet
(``ThetaSquareJet``) and a Fubini-Study h as the factors of its closed
form (``FubiniStudyJet``): O(d^3) entries per point, each part's dense
Hessian assembled only when read.  The metric jet keeps the parts with the
warps (``BundleJet``): its value and gradient are written at once, its
dense B + (d, d, d, d) Hessian only when read, which R whole and Ricci do,
and the directional readers of the curvature layer (``riemann_along``,
``jacobi_operator``) ask the parts for their contractions instead,
d_. d_v g (``BundleJet.hessian_along``) and v^a w^b d d g_ab
(``BundleJet.hessian_pair``), which Theta and a Fubini-Study h take from
their factors.  J's Hessian, nonzero in its t and psi rows, is placed in a
dense array only when read, too, so a directional analysis holds no
rank-4 array per point (a batch sharing one z holds its parts' dense jets
once, as views).  The warped model keeps the warp profile at the last batches
of t the same way (``WarpedBundleMetric.profile_at``).  A point is its
chart coordinates, shape (d,), and a batch of points carries leading batch
axes, B + (d,); each model reads t, psi and z by slicing its own layout.
The connection potential is fixed in the rotation-invariant gauge
sigma = -(1/4) dK o J for the Kaehler potential K, which vanishes at the
chart origin and satisfies d sigma = Omega componentwise (this pins its
sign).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .batch import inner, matvec, mT
from .jets import (Jet2, compose, last_slot, pullback, reciprocal, seed_chart, seeded_slots,
                   value_pair, zeros)
from .jets import sqrt as jet_sqrt
from .profile import ProfileSolution

# the share of (0, L) the decay flow keeps clear of the collapsing end t = L
END_MARGIN_FRAC = 1e-3


# -- base models --------------------------------------------------------------


class FubiniStudy:
    """Fubini-Study metric on an affine chart of CP^m, curvature c0.

    Real layout (u_1..u_m, v_1..v_m) for complex w_a = u_a + i v_a.  With
    K = (4/c0) log(1 + |w|^2) the components are the real/imaginary parts of
    d_a d_bbar K, which gives holomorphic sectional curvature exactly c0:
    h = (4/c0) (u I - u^2 P) with u = 1/(1 + |z|^2) and P = z z^T + (Jz)(Jz)^T.

    The jets are closed forms in z: with

        d u = -2 u^2 z,   d^2 u = -2 u^2 I + 8 u^3 z z^T,

    P linear in z in its first derivative and of constant second derivative
    (``_d2p``), the derivatives of h and sigma in z's entries are a few
    broadcast products, placed in the chart slots z is seeded in
    (``jets.pullback``).  h keeps its Hessian as those products
    (``FubiniStudyJet``), so a directional read never forms it.
    """

    def __init__(self, m: int, c0: float):
        if m < 1:
            raise ValueError(f"base complex dimension must be >= 1, got {m}")
        if c0 <= 0.0:
            raise ValueError(f"holomorphic sectional curvature must be positive, got {c0}")
        self.m = m
        self.c0 = c0
        self.dim = 2 * m
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
        """h at the seeded z, with its Hessian kept in closed form
        (``FubiniStudyJet``)."""
        slots = seeded_slots(z)
        x = z.value
        u, jx = self._u_jz(x)
        eye, k = np.eye(self.dim), 4.0 / self.c0
        u1, u2, u3 = (p[..., None, None] for p in (u, u * u, u * u * u))
        P = x[..., :, None] * x[..., None, :] + jx[..., :, None] * jx[..., None, :]
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
        gradient = np.zeros(P.shape + (z.dim,), d1.dtype)
        gradient[..., slots] = k * d1
        return FubiniStudyJet(k * (u1 * eye - u2 * P), gradient, (x, u, a, c, dp),
                              self, slots)

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


class ProductBase:
    """Block product of Fubini-Study factors (coordinates concatenated).

    With equal-curvature CP^1 factors this is Einstein but does not have
    constant holomorphic sectional curvature: the negative-control base
    showing that Einstein alone does not make the total space QCH.
    """

    def __init__(self, factors: list[FubiniStudy]):
        self.factors = factors
        self.m = sum(f.m for f in factors)
        self.dim = 2 * self.m
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


# -- jets whose Hessian is kept in factors -------------------------------------


class _FactoredJet(Jet2):
    """A jet whose Hessian is kept in per-point factors smaller than it.
    ``value`` and ``gradient`` are held; the dense Hessian is assembled from
    the factors on its first read (``assemble``), which R whole, Ricci and
    jet arithmetic make.  The z-only parts of a bundle metric also answer
    the directional reads of ``BundleJet`` from their factors
    (``hessian_along``, ``hessian_pair``), in O(d^3) per point and
    direction."""

    def __init__(self, value, gradient, factors: tuple):
        self.value, self.gradient, self.factors = value, gradient, factors

    @cached_property
    def hessian(self) -> np.ndarray:
        return self.assemble()


class _LeadingRowsJet(_FactoredJet):
    """A matrix jet, B + (d, d), whose second derivatives sit in its first
    rows alone: the factor is their Hessian, B + (r, d, D, D)."""

    def assemble(self) -> np.ndarray:
        (rows,) = self.factors
        hessian = np.zeros(self.gradient.shape + self.gradient.shape[-1:], rows.dtype)
        hessian[..., :rows.shape[-4], :, :, :] = rows
        return hessian


class FubiniStudyJet(_FactoredJet):
    """h = k (u I - u^2 P) of ``FubiniStudy.metric_jets`` with its Hessian
    kept as the closed form's factors (z, u, A, C, dP) at each point:

        d_a d_b h_ij / k = A_ij delta_ab + C_ij z_a z_b
                           + 4 u^3 (z_a dP_ijb + z_b dP_ija) - u^2 d2P_ijab,
        d2P_ijab = delta_ia delta_jb + delta_ib delta_ja + J_ia J_jb + J_ib J_ja.

    ``base`` is the model and ``slots`` the chart slots z is seeded in,
    where the derivatives land.  The dense Hessian is one
    (n^2, n + 2) x (n + 2, n^2) product per point plus the d2P term."""

    def __init__(self, value, gradient, factors: tuple, base: "FubiniStudy", slots: slice):
        super().__init__(value, gradient, factors)
        self.base, self.slots = base, slots

    def _in_slots(self, own: np.ndarray, *axes: int) -> np.ndarray:
        """own, whose derivative ``axes`` run over z's n entries, with those
        axes in the chart's slots."""
        slots, dim = self.slots, self.dim
        if slots == slice(0, dim):
            return own
        shape, index = list(own.shape), [slice(None)] * own.ndim
        for ax in axes:
            shape[ax], index[ax] = dim, slots
        out = np.zeros(shape, own.dtype)
        out[tuple(index)] = own
        return out

    def assemble(self) -> np.ndarray:
        z, u, a, c, dp = self.factors
        base = self.base
        n, eye, k = base.dim, np.eye(base.dim), 4.0 / base.c0
        batch = np.shape(u)
        u2, u3 = (p[..., None, None] for p in (u * u, u * u * u))
        # all but the d2P term as one product of (n^2, n + 2) and (n + 2, n^2)
        # factors, with sym[c, a, b] = z_a delta_cb + delta_ca z_b
        sym = z[..., None, :, None] * eye[:, None, :] + eye[:, :, None] * z[..., None, None, :]
        left = np.concatenate([a.reshape(batch + (n * n, 1)), c.reshape(batch + (n * n, 1)),
                               4.0 * u3 * dp.reshape(batch + (n * n, n))], axis=-1)
        right = np.concatenate([np.broadcast_to(eye.reshape(1, n * n), batch + (1, n * n)),
                                (z[..., :, None] * z[..., None, :]).reshape(batch + (1, n * n)),
                                sym.reshape(batch + (n, n * n))], axis=-2)
        d2 = (k * left @ right).reshape(batch + (n,) * 4) - k * u2[..., None, None] * base._d2p
        return self._in_slots(d2, -2, -1)

    def hessian_along(self, w: np.ndarray) -> np.ndarray:
        """The closed form contracted on b with each direction w:
        A_ij w_a + (C_ij z.w + 4 u^3 dP_ij.w) z_a + 4 u^3 (z.w) dP_ija
        - u^2 (E_ija + E_jia), E_ija = delta_ia w_j + J_ia (J w)_j."""
        z, u, a, c, dp = self.factors
        base = self.base
        eye, j0, k = np.eye(base.dim), base.j0, 4.0 / base.c0
        ws = w[..., self.slots]                            # B + (k, n), z's slots
        wt = mT(ws)                                        # [b, u]
        zw = matvec(ws, z)                                 # [u] = z . w_u
        u2, u3 = u * u, u * u * u
        # [i, j, u] = C_ij z.w_u + 4 u^3 dP_ij.w_u
        q = (c[..., None] * zw[..., None, None, :]
             + 4.0 * u3[..., None, None, None] * last_slot(dp, ws))
        out = q[..., :, :, None, :] * z[..., None, None, :, None]
        out += a[..., None, None] * wt[..., None, None, :, :]
        out += dp[..., None] * (4.0 * u3[..., None] * zw)[..., None, None, None, :]
        e = (eye[:, None, :, None] * wt[..., None, :, None, :]
             + j0[:, None, :, None] * (j0 @ wt)[..., None, :, None, :])
        out -= u2[..., None, None, None, None] * (e + np.swapaxes(e, -3, -4))
        return self._in_slots(k * out, -2)

    def hessian_pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The closed form contracted with x^i y^j: (x A y) delta_ab
        + (x C y) z_a z_b + 4 u^3 (z_a q_b + q_a z_b) - u^2 (x_a y_b
        + (J^T x)_a (J^T y)_b + the same with a and b swapped), for
        q_b = x^i y^j dP_ijb."""
        z, u, a, c, dp = self.factors
        base = self.base
        eye, j0, k = np.eye(base.dim), base.j0, 4.0 / base.c0
        u2, u3 = (p[..., None, None] for p in (u * u, u * u * u))
        zq = z[..., :, None] * value_pair(dp, x, y)[..., None, :]
        xy = (x[..., :, None] * y[..., None, :]
              + (x @ j0)[..., :, None] * (y @ j0)[..., None, :])
        out = (inner(a, x, y)[..., None, None] * eye
               + inner(c, x, y)[..., None, None] * (z[..., :, None] * z[..., None, :])
               + 4.0 * u3 * (zq + mT(zq)) - u2 * (xy + mT(xy)))
        return self._in_slots(k * out, -2, -1)


class ThetaSquareJet(_FactoredJet):
    """Theta = theta x theta on the (psi, z) entries, theta = dpsi + s sigma,
    kept as theta's own jet (v, G, H): B + (p,), B + (p, 2m) and
    B + (p, 2m, 2m) for p = 2m + 1, in z's 2m slots.  By the product rule

        d_a d_b Theta_ij = v_i H_jab + H_iab v_j + G_ia G_jb + G_ib G_ja.

    The dense Hessian is the sum in the order ``Jet2.__mul__`` takes it."""

    @classmethod
    def square(cls, v: np.ndarray, G: np.ndarray, H: np.ndarray) -> "ThetaSquareJet":
        # the v_j x_i terms are the v_i x_j terms with i and j swapped
        gradient = v[..., :, None, None] * G[..., None, :, :]
        return cls(v[..., :, None] * v[..., None, :],
                   gradient + np.swapaxes(gradient, -2, -3), (v, G, H))

    def assemble(self) -> np.ndarray:
        v, G, H = self.factors
        # two Hessian-sized arrays live at a time
        hessian = v[..., :, None, None, None] * H[..., None, :, :, :]
        hessian = hessian + np.swapaxes(hessian, -3, -4)
        cross = G[..., :, None, :, None] * G[..., None, :, None, :]
        hessian += cross
        hessian += np.swapaxes(cross, -1, -2)
        return hessian

    def hessian_along(self, w: np.ndarray) -> np.ndarray:
        """v_i (H_j w)_a + G_ia (G_j . w) plus the same with i and j swapped,
        for each direction w of B + (k, 2m)."""
        v, G, H = self.factors
        half = (v[..., :, None, None, None] * last_slot(H, w)[..., None, :, :, :]
                + G[..., :, None, :, None] * (G @ mT(w))[..., None, :, None, :])
        return half + np.swapaxes(half, -3, -4)

    def hessian_pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """(x.v) (y.H) + (y.v) (x.H) + (x.G) (y.G)^T + (y.G) (x.G)^T, with
        (y.H)_ab = y^i H_iab and (x.G)_a = x^i G_ia."""
        v, G, H = self.factors
        n = H.shape[-1]

        def first(r, part):
            return (r[..., None, :] @ part.reshape(r.shape + (-1,)))[..., 0, :]

        xh, yh = (first(r, H).reshape(r.shape[:-1] + (n, n)) for r in (x, y))
        xg, yg = first(x, G), first(y, G)
        cross = xg[..., :, None] * yg[..., None, :]
        return (np.sum(x * v, axis=-1)[..., None, None] * yh
                + np.sum(y * v, axis=-1)[..., None, None] * xh + cross + mT(cross))


# -- frames -------------------------------------------------------------------


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


# -- metric fields -------------------------------------------------------------


class _SliceMemo:
    """A bundle model's values of z alone (or of t alone) at the last real
    and the last complex batch looked up, and at the last real and the last
    complex single point.

    A lookup at z (the base coordinates of a batch, B + (2m,), or its t, one
    per point, B + (1,)) calls ``build`` unless z is the entry held for its
    dtype kind and for whether it is one point, compared by dtype, shape and
    bytes; a complex batch with zero imaginary part (a complex step along t
    leaves z real) shares the real entry.  The suite runs every check at one
    sample slice before it moves on, and at a slice reads its own points,
    then their complex step along t; so the metric, J, the frame, the fields
    and the checks at a slice build each part once.  The base moves of every
    slice come after the last slice, in directional batches of their own,
    and then the complex points of the second Bianchi check.  A flow reads
    its start point between two walks over the same node batches, which a
    single point therefore does not evict.
    """

    def __init__(self):
        self.entries: dict[tuple, tuple] = {}

    def __call__(self, z, build) -> tuple:
        z = np.asarray(z)
        if np.iscomplexobj(z) and not z.imag.any():
            z = z.real
        key, slot = (z.dtype.str, z.shape, z.tobytes()), (z.dtype.kind, z.ndim == 1)
        held = self.entries.get(slot)
        if held is None or held[0] != key:
            held = self.entries[slot] = (key, build(z))
        return held[1]


def _shared_row(z: np.ndarray) -> np.ndarray | None:
    """The one z that every point of the batch z, B + (2m,), sits at, or None
    for a single point and for a batch of more than one z."""
    if z.ndim < 2 or z.size == z.shape[-1]:
        return None
    row = z.reshape(-1, z.shape[-1])[0]
    return row if (z == row).all() else None


def _base_parts(base, z: np.ndarray, d: int, s: float) -> tuple[Jet2, Jet2, Jet2]:
    """The z-only parts of a bundle metric at z (``_parts_at``).  A batch whose
    points all sit at one z, as every node of an axial flow panel sits at
    z = 0, builds them there once and broadcasts their dense jets over the
    batch as read-only views (``Jet2.broadcast_to``): one rank-4 array per
    part for the whole batch, which a directional read contracts in one
    product per point, where the factors would take a dozen array
    operations per read (the n = 5 desk decay flow took 41-47 ms through
    them and 33-35 ms so, in-process on one pinned CPU of a 2-vCPU VM).
    Any other batch builds them point by point, factored."""
    row = _shared_row(z)
    if row is None:
        return _parts_at(base, z, d, s)
    return tuple(part.broadcast_to(z.shape[:-1]) for part in _parts_at(base, row, d, s))


def _parts_at(base, z: np.ndarray, d: int, s: float) -> tuple[Jet2, Jet2, Jet2]:
    """The z-only parts of a bundle metric at z: the base metric h and
    Theta = theta x theta for theta = dpsi + s sigma on its (psi, z) entries
    (``ThetaSquareJet``, from theta's jet: its derivatives are s times
    sigma's), both with derivatives in z's own 2m chart slots, and the
    potential sigma, seeded in the d-dimensional chart whose last
    coordinates are z (psi just before them).  Theta, and h of a
    Fubini-Study base (``FubiniStudyJet``), keep their Hessians in factors
    of O(d^3) entries per point."""
    zj = seed_chart(z)
    h, sigma = base.metric_jets(zj), base.connection_potential_jets(zj)
    batch, n = z.shape[:-1], z.shape[-1]
    v = np.ones(batch + (n + 1,), zj.value.dtype)
    v[..., 1:] = s * sigma.value
    G = np.concatenate([np.zeros(batch + (1, n), sigma.gradient.dtype),
                        s * sigma.gradient], axis=-2)
    H = np.concatenate([np.zeros(batch + (1, n, n), sigma.hessian.dtype),
                        s * sigma.hessian], axis=-3)
    return h, _in_chart(sigma, d), ThetaSquareJet.square(v, G, H)


def _in_chart(jet: Jet2, d: int) -> Jet2:
    """A jet with derivatives in its own n slots, placed in the last n slots
    of a d-dimensional chart (z's slots in a bundle chart)."""
    off, shape = d - jet.dim, np.shape(jet.value)
    out = Jet2(jet.value, np.zeros(shape + (d,), jet.gradient.dtype),
               np.zeros(shape + (d, d), jet.hessian.dtype))
    out.gradient[..., off:] = jet.gradient
    out.hessian[..., off:, off:] = jet.hessian
    return out


class BundleJet:
    """The d x d chart jet fiber * Theta + base * h of a bundle model, kept
    with its parts: Theta on the trailing (psi, z) block and h on its z x z
    entries, both with derivatives in the chart's last 2m slots (z), and
    their scales.

    A scale is a one-tuple (a number), or (phi, phi', phi'') of a function of
    chart coordinate 0 (t) alone, one per point; base None leaves h
    unscaled.  Theta and h are constant along t, so the product rule with a
    scale along t adds terms in the t slot alone: the numbers of
    ``Jet2.__mul__`` with the jet of the scale, without its dense outer
    product of gradients, each entry summed as fiber * Theta + base * h.
    Every other entry of the jet is zero.

    ``value`` and ``gradient`` are assembled at once.  The Hessian, one
    B + (d, d, d, d) array, is assembled on its first read (``hessian``),
    from the parts' own dense Hessians, which the readers of R whole and of
    Ricci make.  The directional readers ask the parts for their
    contractions instead (``hessian_along``, ``hessian_pair``): Theta and a
    Fubini-Study h take them from their factors (``ThetaSquareJet``,
    ``FubiniStudyJet``), so neither the jet's nor a part's dense Hessian is
    formed and a point holds O(d^3) entries; a dense part (the h of a
    ``ProductBase``, or the views a batch sharing one z holds,
    ``_base_parts``) contracts its Hessian (``Jet2.hessian_along``).
    Indexing reads the dense jet (``Jet2.__getitem__``).
    """

    def __init__(self, d: int, theta2: Jet2, h: Jet2, fiber: tuple, base: tuple | None):
        self.theta2, self.h, self.fiber, self.base = theta2, h, fiber, base
        self.batch = theta2.shape[:-2]
        self.block, self.z = slice(d - theta2.shape[-1], None), slice(d - theta2.dim, None)
        self.along_t = len(fiber) == 3
        self.dtype = np.result_type(theta2.value, *fiber)
        block, z = self.block, self.z
        self.value = np.zeros(self.batch + (d, d), self.dtype)
        self.gradient = np.zeros(self.batch + (d, d, d), self.dtype)
        self.value[..., block, block] = self._combined(0, theta2.value, h.value)
        self.gradient[..., block, block, z] = self._combined(0, theta2.gradient, h.gradient)
        if self.along_t:
            self.gradient[..., block, block, 0] = self._combined(1, theta2.value, h.value)

    @property
    def dim(self) -> int:
        return self.gradient.shape[-1]

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def __getitem__(self, index) -> Jet2:
        return Jet2(self.value, self.gradient, self.hessian)[index]

    def _combined(self, k: int, a: np.ndarray, b: np.ndarray, rank: int = 2) -> np.ndarray:
        """The k-th t-derivative of the scales times one part of Theta and the
        same part of h (a value, a derivative, or a contraction of either),
        summed on the z x z entries of Theta's block; parts contracted on
        their ``rank`` value axes (rank 0) are summed whole."""
        slots = a.ndim - len(self.batch)
        expand = (Ellipsis,) + (None,) * slots
        out = np.asarray(self.fiber[k])[expand] * a
        if self.base is None and k > 0:
            return out
        other = b if self.base is None else np.asarray(self.base[k])[expand] * b
        if rank == 0:
            return out + other
        out[(Ellipsis,) + (slice(1, None),) * rank + (slice(None),) * (slots - rank)] += other
        return out

    @cached_property
    def _t_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The Hessian's entries on Theta's block with a t slot: d_t d_z g,
        B + (p, p, 2m), and d_t d_t g, B + (p, p)."""
        th, h = self.theta2, self.h
        return self._combined(1, th.gradient, h.gradient), self._combined(2, th.value, h.value)

    @cached_property
    def hessian(self) -> np.ndarray:
        block, z = self.block, self.z
        hess = np.zeros(self.batch + (self.dim,) * 4, self.dtype)
        hess[..., block, block, z, z] = self._combined(0, self.theta2.hessian, self.h.hessian)
        if self.along_t:
            cross, tt = self._t_blocks
            hess[..., block, block, 0, z] = cross
            hess[..., block, block, z, 0] = cross
            hess[..., block, block, 0, 0] = tt
        return hess

    def hessian_along(self, v: np.ndarray) -> np.ndarray:
        """[a, b, m, u] = d_m d_u g_ab for k directions u, the rows of v of
        shape B + (k, d): Theta's and h's z-derivatives contracted with the
        directions' z entries, each scaled by its scale first, and the
        t-derivatives of the scales times their t entries.  Each part is
        read once for all k directions, O(k d^3) per point."""
        th, h, block, z = self.theta2, self.h, self.block, self.z
        vz = v[..., z]

        def scaled(scale: tuple | None) -> np.ndarray:
            return vz if scale is None else np.asarray(scale[0])[..., None, None] * vz

        out = np.zeros(v.shape[:-2] + (self.dim,) * 3 + v.shape[-2:-1],
                       np.result_type(self.dtype, v))
        out[..., block, block, z, :] = th.hessian_along(scaled(self.fiber))
        out[..., z, z, z, :] += h.hessian_along(scaled(self.base))
        if self.along_t:
            cross, tt = self._t_blocks
            t = v[..., None, None, :, 0]                  # B + (1, 1, k)
            out[..., block, block, z, :] += cross[..., None] * t[..., None, :]
            out[..., block, block, 0, :] = last_slot(cross, vz) + tt[..., None] * t
        return out

    def hessian_pair(self, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """[m, k] = v^a w^b d_m d_k g_ab for v and w of shape B + (d,): the
        parts contracted on their value axes, Theta with the (psi, z) entries
        of v and w and h with their z entries, then scaled."""
        th, h, block, z = self.theta2, self.h, self.block, self.z
        vb, wb, vz, wz = v[..., block], w[..., block], v[..., z], w[..., z]

        def part(name: str, k: int) -> np.ndarray:
            return self._combined(k, value_pair(getattr(th, name), vb, wb),
                                  value_pair(getattr(h, name), vz, wz), rank=0)

        out = np.zeros(v.shape[:-1] + (self.dim,) * 2, np.result_type(self.dtype, v, w))
        out[..., z, z] = self._combined(0, th.hessian_pair(vb, wb), h.hessian_pair(vz, wz),
                                        rank=0)
        if self.along_t:
            cross = part("gradient", 1)
            out[..., 0, z] = cross
            out[..., z, 0] = cross
            out[..., 0, 0] = part("value", 2)
        return out


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


def _square(v, dv, d2v) -> tuple:
    """v^2 and its first two derivatives, from v's."""
    return v * v, 2.0 * v * dv, 2.0 * (dv * dv + v * d2v)


class _BundleMetric:
    """What the bundle models share: the z-only parts of a batch, from the
    model's ``_base_at``, with z the last 2m chart coordinates."""

    def connection_forms(self, z: np.ndarray) -> tuple[Jet2, np.ndarray]:
        """(sigma, Omega) at the z-slice: the potential as a chart jet and the
        values of the base Kaehler form h(J., .)."""
        h, sigma, _ = self._base_at(z)
        return sigma, self.base.j0.T @ h.value

    def shares_parts(self, x: np.ndarray) -> bool:
        """Whether every point of the batch x, B + (d,), sits at one z, so that
        one build of the z-only parts serves them all (``_base_parts``)."""
        return _shared_row(x[..., self.dim - self.base.dim:]) is not None

    def lift_jets(self, coords: Jet2) -> Jet2:
        """The horizontal lifts of the base coordinate vectors as the rows of
        one B + (2m, d) jet, from the memoised sigma."""
        z = coords.value[..., self.dim - self.base.dim:]
        return _lift_rows(self._base_at(z)[1], self.s, self.dim)

    def _fiber_frame(self, x: np.ndarray, g_values: np.ndarray, fiber_length) -> np.ndarray:
        """The frame rows at x: xi = d/dpsi over its g-length, then the E rows
        by Gram-Schmidt from the horizontal lifts of the base coordinate vectors."""
        d, off = self.dim, self.dim - self.base.dim
        rows = np.broadcast_to(np.eye(d), x.shape[:-1] + (d, d)).astype(x.dtype)
        rows[..., off - 1, :] /= np.asarray(fiber_length)[..., None]
        if self.s != 0.0:
            rows[..., off:, off - 1] = -self.s * self._base_at(x[..., off:])[1].value
        rows[..., off:, :] = _gram_schmidt(rows[..., off:, :], g_values)
        return rows


class WarpedBundleMetric(_BundleMetric):
    """dt^2 + f(t)^2 (dpsi + s sigma)^2 + r(t)^2 h on (0, L) x bundle chart.

    The base (complex dimension m, curvature scale ``base.c0``) and the warp
    profile fix the model: half the real dimension is n = m + 1 >= 3 and the
    fiber pitch d theta = s Omega is the profile's s.  ``product_mode`` drops
    the pitch (s = 0, theta = dpsi) and the r^2 scaling of the base block.
    ``warp_scale`` multiplies f, in ``warps`` alone; at a nonzero pitch any
    value other than 1 breaks the parallel-J condition and serves as a
    negative control.
    """

    def __init__(self, profile: ProfileSolution, base, *, product_mode: bool = False,
                 warp_scale: float = 1.0):
        if base.m < 2:
            raise ValueError(f"need n >= 3 (real dimension >= 6), got n={base.m + 1}")
        self.profile = profile
        self.base = base
        self.n = base.m + 1
        self.product_mode = product_mode
        self.warp_scale = warp_scale
        self.s = 0.0 if product_mode else profile.s
        self.dim = 2 + self.base.dim
        self._base_memo = _SliceMemo()
        self._profile_memo = _SliceMemo()

    def _base_at(self, z: np.ndarray) -> tuple[Jet2, Jet2, Jet2]:
        """The z-only parts of the metric at the z-slice, from the model's memo
        (``_SliceMemo``, built by ``_base_parts``): the base metric h and
        Theta = theta x theta with theta = dpsi + s sigma on its (psi, z)
        entries, both differentiated in z's 2m slots alone, and the
        potential sigma, seeded in the total chart (z sits at coordinates
        2..d-1).  The metric, the frame and fields at an analysed batch, its
        complex step along t and the nodes of an axial flow panel reuse one
        evaluation."""
        return self._base_memo(z, lambda z: _base_parts(self.base, z, self.dim, self.s))

    def profile_at(self, t) -> tuple:
        """(r, r', r'', r''') at t, a float or a batch (complex t included),
        from the model's memo (``_SliceMemo``): the metric, J, the frame, the
        fields and the checks at one analysed batch, and the batch moved in z,
        read one evaluation.  The arrays are shared, so they are read-only."""
        def build(t):
            values = self.profile.evaluate(t[..., 0])
            for v in values:
                if isinstance(v, np.ndarray):
                    v.flags.writeable = False
            return values
        return self._profile_memo(np.asarray(t)[..., None], build)

    def warps(self, t) -> tuple[tuple, tuple]:
        """(r, r', r'') and (f, f', f'') at t from one profile lookup, with f
        scaled by ``warp_scale``: the one place the control scale is read."""
        values = self.profile_at(t)
        f = self.profile.warp_from(*values)
        if self.warp_scale != 1.0:
            f = tuple(self.warp_scale * x for x in f)
        return values[:3], f

    def warp_jets(self, t_jet: Jet2) -> tuple[Jet2, Jet2]:
        """(r, f) at a jet-seeded t, from ``warps``."""
        r, f = self.warps(t_jet.value)
        return compose(t_jet, *r), compose(t_jet, *f)

    def metric_jets(self, coords: Jet2) -> Jet2:
        """dt^2 + f(t)^2 Theta(z) + r(t)^2 h(z) (h unscaled in product mode).

        Theta and h come from the base memo, and f^2 and r^2 scale them into
        one total-chart jet (``BundleJet``).  Its dtype comes from the warps
        as well: a complex step along t leaves z, and so the memo, real.
        """
        h, _, theta2 = self._base_at(coords.value[..., 2:])
        r, f = self.warps(coords.value[..., 0])
        g = BundleJet(self.dim, theta2, h, _square(*f),
                      None if self.product_mode else _square(*r))
        g.value[..., 0, 0] += 1.0
        return g

    def complex_structure_jets(self, coords: Jet2) -> Jet2:
        """J with J H = xi/f, J xi = -f H, and the base structure on lifts.

        Only the t and psi rows vary; the rest is j0 on the z block, so the
        Hessian, nonzero in those two rows, is placed in a B + (d, d, d, d)
        array only when read (``_LeadingRowsJet``): an analysis reads J's
        value and gradient alone."""
        _, f = self.warp_jets(coords[..., 0])
        _, sigma, _ = self._base_at(coords.value[..., 2:])
        j0 = self.base.j0
        batch, d = coords.shape[:-1], self.dim
        rows = zeros(batch + (2, d), coords.dim, coords.value.dtype)
        rows[..., 1, 0] = reciprocal(f)
        rows[..., 0, 1] = -f
        rows[..., 0, 2:] = -(f[..., None] * (self.s * sigma))
        rows[..., 1, 2:] = -(self.s * (sigma @ j0))
        value = np.zeros(batch + (d, d), rows.value.dtype)
        gradient = np.zeros(batch + (d, d, coords.dim), rows.gradient.dtype)
        value[..., :2, :], gradient[..., :2, :, :] = rows.value, rows.gradient
        value[..., 2:, 2:] = j0
        return _LeadingRowsJet(value, gradient, (rows.hessian,))

    # -- fields of the divergence and identity checks, as jets at the seeded
    # coordinates of an analysis --------------------------------------------

    def section_jets(self, coords: Jet2) -> tuple[Jet2, Jet2]:
        """(H, JH): the unit sections H = d/dt and JH = xi / f of D."""
        _, f = self.warp_jets(coords[..., 0])
        pair = zeros(coords.shape[:-1] + (2, self.dim), coords.dim, coords.value.dtype)
        pair.value[..., 0, 0] = 1.0
        pair[..., 1, 1] = reciprocal(f)
        return pair[..., 0, :], pair[..., 1, :]

    def base_unit_lift_jets(self, coords: Jet2, i: int) -> Jet2:
        """The horizontal lift of the i-th base coordinate vector, scaled to
        unit length in the base metric h (its g-length is r in warped mode)."""
        h_ii = _in_chart(self._base_at(coords.value[..., 2:])[0][..., i, i], self.dim)
        return self.lift_jets(coords)[..., i, :] * reciprocal(jet_sqrt(h_ii))[..., None]

    def potential_jets(self, coords: Jet2) -> Jet2:
        """The Killing potential r(t)^2 / s."""
        if self.s == 0.0:
            raise ValueError("the Killing potential r^2/s needs a nonzero pitch")
        r, _ = self.warp_jets(coords[..., 0])
        return (r * r) / self.s

    def frame_at(self, x: np.ndarray, g_values: np.ndarray) -> np.ndarray:
        """The g-orthonormal rows (H, JH, E_1..E_2m), with JH = xi/f."""
        return self._fiber_frame(x, g_values, self.warps(x[..., 0])[1][0])


class CircleBundleMetric(_BundleMetric):
    """Odd-dimensional bundle metric alpha^2 theta x theta + beta^2 h on (psi, z)."""

    def __init__(self, alpha: float, beta: float, s: float, base: FubiniStudy):
        if alpha <= 0.0 or beta <= 0.0:
            raise ValueError(f"fiber/base scales must be positive, got {alpha}, {beta}")
        self.alpha = alpha
        self.beta = beta
        self.s = s
        self.base = base
        self.dim = 1 + base.dim
        self._base_memo = _SliceMemo()

    def _base_at(self, z: np.ndarray) -> tuple[Jet2, Jet2, Jet2]:
        """(h, sigma, Theta) at the z-slice, from the model's memo, as
        ``WarpedBundleMetric._base_at`` reads them on its chart."""
        return self._base_memo(z, lambda z: _base_parts(self.base, z, self.dim, self.s))

    def metric_jets(self, coords: Jet2) -> Jet2:
        """alpha^2 theta x theta + beta^2 h, as one chart jet (``BundleJet``)."""
        h, _, theta2 = self._base_at(coords.value[..., 1:])
        return BundleJet(self.dim, theta2, h, (self.alpha ** 2,), (self.beta ** 2,))

    complex_structure_jets = None  # no complex structure on the odd-dim chart

    def frame_at(self, x: np.ndarray, g_values: np.ndarray) -> np.ndarray:
        """The g-orthonormal rows (xi/alpha, E_1..E_2m)."""
        return self._fiber_frame(x, g_values, self.alpha)


class BaseChartMetric:
    """The base model alone, as a metric field on its own chart."""

    def __init__(self, base):
        self.base = base
        self.dim = base.dim

    def metric_jets(self, coords: Jet2) -> Jet2:
        return self.base.metric_jets(coords)

    def complex_structure_jets(self, coords: Jet2) -> Jet2:
        j0 = self.base.j0
        return Jet2.constant(np.broadcast_to(j0, coords.shape[:-1] + j0.shape), coords.dim)

    def frame_at(self, x: np.ndarray, g_values: np.ndarray) -> np.ndarray:
        return _gram_schmidt(np.broadcast_to(np.eye(self.dim), g_values.shape), g_values)


def exterior_derivative_2form(w: np.ndarray) -> np.ndarray:
    """(d omega)_{ijk} = cyclic sum of the first derivatives of a 2-form's components.

    With w[i, j, k] = d_k omega_ij: (d omega)_ijk = w[j,k,i] - w[i,k,j] + w[i,j,k].
    """
    return np.moveaxis(w, -1, -3) - mT(w) + w


def exterior_derivative_1form(form: Jet2) -> np.ndarray:
    """(d sigma)_{ij} = d_i sigma_j - d_j sigma_i from jet gradients."""
    grads = form.gradient[..., :form.shape[-1]]
    return mT(grads) - grads
