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
Value axes are indexed from the right (``x[..., i]``) and ``@`` with a
constant matrix follows numpy matmul semantics over the leading axes, so the
same model code serves one point (batch shape ()) and a batch.

A jet also answers two reads of its Hessian that the curvature layer takes
along directions, d_. d_w of every entry (``hessian_along``) and, for a
matrix jet, x^a y^b d d J_ab (``hessian_pair``); a jet that keeps its
Hessian in smaller factors (the z-only parts of a bundle metric in
``geometry``) overrides them.
"""

from __future__ import annotations

import numpy as np

from .batch import inexact, mT


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


def _apply(arr: np.ndarray, extra: int, matrix: np.ndarray) -> np.ndarray:
    """out[..., j, ...] = sum_k arr[..., k, ...] matrix[k, j] over the last value
    axis, which sits ``extra`` derivative axes before the end of ``arr``."""
    moved = np.moveaxis(arr, -1 - extra, -1)
    return np.moveaxis(moved @ matrix, -1, -1 - extra)


def last_slot(part: np.ndarray, w: np.ndarray) -> np.ndarray:
    """part contracted on its last axis with each of k vectors w, per point:
    B + V + (n,) against w of shape B + (k, n) gives B + V + (k,), from one
    read of part for all k (w is copied as a contiguous (n, k) matrix, so
    that the product is one BLAS call per point)."""
    batch = part.shape[:w.ndim - 2]
    return (part.reshape(batch + (-1, part.shape[-1])) @ np.ascontiguousarray(mT(w))).reshape(
        part.shape[:-1] + w.shape[-2:-1])


def value_pair(part: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^a y^b part[a, b, ...] per point: part B + (p, p) + S against x and y
    of shape B + (p,) gives B + S."""
    nb, p = x.ndim - 1, x.shape[-1]
    batch, slots = part.shape[:nb], part.shape[nb + 2:]
    first = (x[..., None, :] @ part.reshape(batch + (p, -1)))[..., 0, :]
    return (y[..., None, :] @ first.reshape(batch + (p, -1)))[..., 0, :].reshape(batch + slots)


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

    # -- array protocol -----------------------------------------------------

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

    def __matmul__(self, other):
        """A jet times a constant matrix (numpy matmul semantics over leading
        axes), which contracts the jet's last value axis.  A product of two
        jets is not defined."""
        if isinstance(other, Jet2):
            raise TypeError("jet @ jet is not defined: multiply a jet by a constant matrix")
        other = np.asarray(other)
        return Jet2(self.value @ other, _apply(self.gradient, 1, other),
                    _apply(self.hessian, 2, other))

    # -- reads of the Hessian -----------------------------------------------

    def hessian_along(self, w: np.ndarray) -> np.ndarray:
        """d_. d_u of every entry for k directions u, the rows of w of shape
        B + (k, d) for batch axes B: B + V + (d, k) for a jet of value B + V,
        one read of the Hessian for all k directions."""
        return last_slot(self.hessian, w)

    def hessian_pair(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """x^a y^b d_. d_. J_ab for a jet J of value B + (p, p) and x, y of
        shape B + (p,): B + (d, d)."""
        return value_pair(self.hessian, x, y)

    def broadcast_to(self, batch: tuple) -> "Jet2":
        """The jet at one point as read-only views over the batch shape B."""
        return Jet2(*(np.broadcast_to(a, batch + a.shape)
                      for a in (self.value, self.gradient, self.hessian)))


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


def compose(a: Jet2, value, d1, d2) -> Jet2:
    """Chain rule through a function with supplied derivatives at ``a.value``."""
    return Jet2(value, _g(d1) * a.gradient,
                _h(d1) * a.hessian + _h(d2) * _outer(a.gradient, a.gradient))


def seeded_slots(x: Jet2) -> slice:
    """The chart slots of the vector jet x, value B + (n,), which must be
    seeded straight from a run of n chart coordinates (gradient rows of the
    identity, Hessian zero), else ``ValueError``."""
    grad = x.gradient
    n, dim = grad.shape[-2:]
    off = int(np.argmax(grad.reshape(-1, dim)[0]))
    if (x.hessian.any() or off + n > dim
            or not (grad == np.eye(dim)[off:off + n]).all()):
        raise ValueError("a closed form needs a jet seeded as a run of chart coordinates")
    return slice(off, off + n)


def pullback(x: Jet2, value: np.ndarray, d1: np.ndarray, d2: np.ndarray) -> Jet2:
    """The jet of a function of the vector jet x, given in closed form.

    x is seeded from a run of chart coordinates (``seeded_slots``).  The
    function's value at x.value has shape B + V, its derivatives in x's n
    entries B + V + (n,) and B + V + (n, n); they land in the slots of those
    coordinates as they stand.
    """
    slots, dim = seeded_slots(x), x.dim
    shape = np.shape(value)
    dtype = np.result_type(d1, d2)
    out = Jet2(value, np.zeros(shape + (dim,), dtype), np.zeros(shape + (dim, dim), dtype))
    out.gradient[..., slots] = d1
    out.hessian[..., slots, slots] = d2
    return out


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
