"""Second-order forward-mode jets, array-shaped.

A ``Jet2`` is an array of shape S together with its exact gradient (shape
S + (d,)) and Hessian (shape S + (d, d)) with respect to a fixed set of d chart
coordinates.  Arithmetic propagates both derivative orders through the exact
product, quotient and chain rules, broadcasting over S like numpy does, so any
quantity assembled from jet-seeded coordinates (metric components, connection
potentials, warp factors) carries machine-precision first and second
derivatives.  Curvature needs second derivatives of the metric; nested finite
differencing cannot reach the tolerances used downstream, jets can.

The scalar jet is the case S = (); whole tensors (a metric, a complex
structure, a vector field) are single jets, assembled in a few broadcast
operations instead of one object per entry (truncated Taylor-mode
differentiation, as in Griewank & Walther, *Evaluating Derivatives*).

Leading value axes are batch axes: a jet of shape (N, d, d) holds one (d, d)
metric at each of N chart points, each differentiated in its own chart.
Value axes are indexed from the right (``x[..., i]``) and ``@`` follows numpy
matmul semantics over the leading axes, so the same model code serves one
point (batch shape ()) and a batch.
"""

from __future__ import annotations

import numpy as np

from .batch import inexact


class JetDomainError(ValueError):
    """Raised when a lifted function is evaluated outside its domain."""


def _check_same_dim(a: "Jet2", b: "Jet2") -> None:
    if a.gradient.shape[-1] != b.gradient.shape[-1]:
        raise ValueError(
            f"jet dimension mismatch: {a.gradient.shape[-1]} vs {b.gradient.shape[-1]}")


def _g(v):
    """A value (or constant) aligned against gradient slots."""
    return v[..., None] if isinstance(v, np.ndarray) else v


def _h(v):
    """A value (or constant) aligned against Hessian slots."""
    return v[..., None, None] if isinstance(v, np.ndarray) else v


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-entry outer product of two gradient arrays, S + (d,) -> S + (d, d)."""
    return a[..., :, None] * b[..., None, :]


_GRADIENT_SLOT = (slice(None),)
_HESSIAN_SLOTS = (slice(None), slice(None))


def _apply(arr: np.ndarray, axis: int, extra: int, matrix: np.ndarray) -> np.ndarray:
    """out[..., j, ...] = sum_k arr[..., k, ...] matrix[k, j] over value axis ``axis``
    (negative), which sits ``extra`` derivative axes before the end of ``arr``."""
    moved = np.moveaxis(arr, axis - extra, -1)
    return np.moveaxis(moved @ matrix, -1, axis - extra)


class Jet2:
    """Truncated second-order jet: value S, gradient S + (d,), Hessian S + (d, d).

    Arithmetic returns new jets and builds every Hessian from symmetric
    combinations, so Hessians are symmetric.  Indexing selects along the value
    axes (basic indices, ``None`` and ``Ellipsis``) and returns views; item
    assignment exists only to assemble a tensor jet block by block.
    """

    __slots__ = ("value", "gradient", "hessian")
    # make ndarray (op) Jet2 defer to the reflected jet operators
    __array_ufunc__ = None

    def __init__(self, value, gradient: np.ndarray, hessian: np.ndarray):
        if np.ndim(value) == 0:
            value = complex(value) if np.iscomplexobj(value) else float(value)
        self.value = value
        self.gradient = gradient
        self.hessian = hessian

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, value, dim: int) -> "Jet2":
        """A constant scalar or array (copied) with zero derivatives."""
        value = inexact(value)
        return cls(value, np.zeros(value.shape + (dim,), value.dtype),
                   np.zeros(value.shape + (dim, dim), value.dtype))

    @property
    def dim(self) -> int:
        return self.gradient.shape[-1]

    @property
    def shape(self) -> tuple:
        return np.shape(self.value)

    def __repr__(self) -> str:
        return f"Jet2({self.value!r}, grad={self.gradient!r})"

    # -- array protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.value)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    # a value index extends over the trailing derivative axes unchanged
    def __getitem__(self, index) -> "Jet2":
        if not isinstance(index, tuple):
            index = (index,)
        return Jet2(np.asarray(self.value)[index], self.gradient[index + _GRADIENT_SLOT],
                    self.hessian[index + _HESSIAN_SLOTS])

    def __setitem__(self, index, other) -> None:
        if not isinstance(index, tuple):
            index = (index,)
        grad, hess = index + _GRADIENT_SLOT, index + _HESSIAN_SLOTS
        if isinstance(other, Jet2):
            _check_same_dim(self, other)
            self.value[index] = other.value
            self.gradient[grad] = other.gradient
            self.hessian[hess] = other.hessian
        else:  # a constant
            self.value[index] = other
            self.gradient[grad] = 0.0
            self.hessian[hess] = 0.0

    @property
    def T(self) -> "Jet2":
        """Transpose of the last two value axes (a matrix jet, or a batch of them)."""
        return Jet2(np.swapaxes(self.value, -1, -2), np.swapaxes(self.gradient, -2, -3),
                    np.swapaxes(self.hessian, -3, -4))

    def sum(self, axis: int = -1) -> "Jet2":
        """Sum along one value axis."""
        if axis < 0:
            axis += np.ndim(self.value)
        return Jet2(self.value.sum(axis), self.gradient.sum(axis),
                    self.hessian.sum(axis))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            _check_same_dim(self, other)
            return Jet2(self.value + other.value, self.gradient + other.gradient,
                        self.hessian + other.hessian)
        if isinstance(other, np.ndarray):  # may widen the shape
            return self + Jet2.constant(other, self.dim)
        return Jet2(self.value + other, self.gradient, self.hessian)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            _check_same_dim(self, other)
            return Jet2(self.value - other.value, self.gradient - other.gradient,
                        self.hessian - other.hessian)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet2(-self.value, -self.gradient, -self.hessian)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            _check_same_dim(self, other)
            cross = _outer(self.gradient, other.gradient)
            return Jet2(
                self.value * other.value,
                _g(self.value) * other.gradient + _g(other.value) * self.gradient,
                _h(self.value) * other.hessian + _h(other.value) * self.hessian
                + cross + np.swapaxes(cross, -1, -2),
            )
        return Jet2(self.value * other, self.gradient * _g(other),
                    self.hessian * _h(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet2):
            _check_same_dim(self, other)
            if np.any(other.value == 0.0):
                raise JetDomainError("jet division by zero value")
            q = self.value / other.value
            qg = (self.gradient - _g(q) * other.gradient) / _g(other.value)
            cross = _outer(qg, other.gradient)
            qh = (self.hessian - _h(q) * other.hessian - cross
                  - np.swapaxes(cross, -1, -2)) / _h(other.value)
            return Jet2(q, qg, qh)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return reciprocal(self) * other

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            raise TypeError("jet exponent must be an integer; use sqrt/exp/log otherwise")
        return powi(self, exponent)

    def __matmul__(self, other):
        """Matrix product (numpy matmul semantics over leading axes).

        Either two matrix jets (the product rule, contracted), or a jet times a
        constant matrix, which contracts the jet's last value axis.
        """
        if not isinstance(other, Jet2):
            other = np.asarray(other)
            return Jet2(self.value @ other, _apply(self.gradient, -1, 1, other),
                        _apply(self.hessian, -1, 2, other))
        _check_same_dim(self, other)
        a, b = self, other
        # derivative axes moved in front of the matrix axes: (..., x, i, k)
        ga, gb = np.moveaxis(a.gradient, -1, -3), np.moveaxis(b.gradient, -1, -3)
        av, bv = a.value[..., None, :, :], b.value[..., None, :, :]
        ha = np.moveaxis(a.hessian, (-2, -1), (-4, -3))
        hb = np.moveaxis(b.hessian, (-2, -1), (-4, -3))
        cross = ga[..., :, None, :, :] @ gb[..., None, :, :, :]   # (..., x, y, i, j)
        hess = (ha @ bv[..., None, :, :] + av[..., None, :, :] @ hb
                + cross + np.swapaxes(cross, -3, -4))
        return Jet2(a.value @ b.value, np.moveaxis(ga @ bv + av @ gb, -3, -1),
                    np.moveaxis(hess, (-4, -3), (-2, -1)))

    def __rmatmul__(self, other):
        """A constant matrix applied to a vector jet, or to the rows of a matrix jet."""
        other = np.asarray(other)
        axis = -2 if np.ndim(self.value) >= 2 else -1
        return Jet2(_apply(self.value, axis, 0, other.T),
                    _apply(self.gradient, axis, 1, other.T),
                    _apply(self.hessian, axis, 2, other.T))


def zeros(shape: tuple, dim: int, dtype=float) -> Jet2:
    """An all-zero jet of the given value shape, to be filled by assignment;
    complex ``dtype`` for jets taken at a complex step."""
    return Jet2(np.zeros(shape, dtype), np.zeros(shape + (dim,), dtype),
                np.zeros(shape + (dim, dim), dtype))


def seed_chart(x: np.ndarray) -> Jet2:
    """Seed the last axis of ``x`` as the coordinates of a chart: (d,) for one
    point, (..., d) for a batch of points, each in its own chart.  Complex x
    (a complex step) keeps its dtype."""
    x = inexact(x)
    d = x.shape[-1]
    grad = np.zeros(x.shape + (d,))
    grad[...] = np.eye(d)
    return Jet2(x, grad, np.zeros(x.shape + (d, d)))


def stack(items) -> Jet2:
    """One array jet from a (nested) sequence of equal-shape jets; a jet passes through."""
    if isinstance(items, Jet2):
        return items
    parts = [stack(item) for item in items]
    return Jet2(np.array([p.value for p in parts]),
                np.stack([p.gradient for p in parts]),
                np.stack([p.hessian for p in parts]))


def scale_along(b: Jet2, axis: int, phi, dphi, d2phi) -> Jet2:
    """phi * b for a function phi of chart coordinate ``axis`` alone and a jet b
    constant along that coordinate (its derivatives in slot ``axis`` vanish).

    phi comes as its value and first two derivatives along the coordinate,
    with b's batch shape (one per point).  The product rule then adds to phi
    times b's derivatives only terms in row and column ``axis``: the same
    numbers as ``Jet2.__mul__`` with the jet of phi, without its dense outer
    product of the two gradients.
    """
    if np.ndim(phi):  # one factor per point of a batch, aligned to b's entries
        expand = (Ellipsis,) + (None,) * (np.ndim(b.value) - np.ndim(phi))
        phi, dphi, d2phi = phi[expand], dphi[expand], d2phi[expand]
    gradient = _g(phi) * b.gradient
    gradient[..., axis] += dphi * b.value
    hessian = _h(phi) * b.hessian
    cross = _g(dphi) * b.gradient
    hessian[..., axis, :] += cross
    hessian[..., :, axis] += cross
    hessian[..., axis, axis] += d2phi * b.value
    return Jet2(phi * b.value, gradient, hessian)


def compose(a: Jet2, value, d1, d2) -> Jet2:
    """Chain rule through a function with supplied derivatives at ``a.value``."""
    return Jet2(value, _g(d1) * a.gradient,
                _h(d1) * a.hessian + _h(d2) * _outer(a.gradient, a.gradient))


def pullback(x: Jet2, value: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> Jet2:
    """Chain rule through a function of the vector jet x, given in closed form.

    x has value B + (n,) for batch axes B; the function's value at x.value
    has shape B + V, its derivatives in x's n entries B + V + (n,) and
    B + V + (n, n).  Its jet is d1 G and G^T d2 G + d1 H for x's gradient G
    and Hessian H.  When x is seeded straight from a run of chart coordinates
    (H zero, G rows of the identity) that is placing d1 and d2 in the slots
    of those coordinates, and the products are skipped.
    """
    grad, hess = x.gradient, x.hessian
    batch, (n, dim) = grad.shape[:-2], grad.shape[-2:]
    shape = np.shape(value)
    flat = not hess.any()
    if flat:
        # x seeded as the chart coordinates off..off+n-1: the derivatives
        # land in those slots as they stand
        off = int(np.argmax(grad.reshape(-1, dim)[0]))
        if off + n <= dim and (grad == np.eye(dim)[off:off + n]).all():
            slots = slice(off, off + n)
            dtype = np.result_type(d1, d2)
            out = Jet2(value, np.zeros(shape + (dim,), dtype), np.zeros(shape + (dim, dim), dtype))
            out.gradient[..., slots] = d1
            out.hessian[..., slots, slots] = d2
            return out
    flat1 = d1.reshape(batch + (-1, n))
    gradient = (flat1 @ grad).reshape(shape + (dim,))
    # G^T d2 G as two products over every entry: first on b, then on a
    half = (d2.reshape(batch + (-1, n)) @ grad).reshape(batch + (-1, n, dim))
    hessian = (np.swapaxes(half, -1, -2).reshape(batch + (-1, n)) @ grad).reshape(
        shape + (dim, dim))
    if not flat:
        hessian += (flat1 @ hess.reshape(batch + (n, dim * dim))).reshape(hessian.shape)
    return Jet2(value, gradient, hessian)


def sqrt(a: Jet2) -> Jet2:
    if np.any(np.real(a.value) <= 0.0):
        raise JetDomainError(f"sqrt of non-positive jet value {a.value}")
    v = np.sqrt(a.value)
    d1 = 0.5 / v
    return compose(a, v, d1, -0.5 * d1 / a.value)


def log(a: Jet2) -> Jet2:
    if np.any(np.real(a.value) <= 0.0):
        raise JetDomainError(f"log of non-positive jet value {a.value}")
    inv = 1.0 / a.value
    return compose(a, np.log(a.value), inv, -inv * inv)


def exp(a: Jet2) -> Jet2:
    v = np.exp(a.value)
    return compose(a, v, v, v)


def reciprocal(a: Jet2) -> Jet2:
    if np.any(a.value == 0.0):
        raise JetDomainError("reciprocal of zero jet value")
    inv = 1.0 / a.value
    return compose(a, inv, -inv * inv, 2.0 * inv ** 3)


def powi(a: Jet2, k: int) -> Jet2:
    """Integer power by the monomial chain rule."""
    if k < 0:
        return powi(reciprocal(a), -k)
    if k == 0:
        return Jet2.constant(np.ones(a.shape), a.dim)
    if k == 1:
        return a
    v = a.value
    return compose(a, v ** k, k * v ** (k - 1), k * (k - 1) * v ** (k - 2))
