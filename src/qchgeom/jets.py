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
"""

from __future__ import annotations

import numpy as np


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


class Jet2:
    """Truncated second-order jet: value S, gradient S + (d,), Hessian S + (d, d).

    Arithmetic returns new jets and builds every Hessian from symmetric
    combinations, so Hessians are symmetric.  Indexing selects along the value
    axes (basic indices and ``None``, no ``Ellipsis``) and returns views; item
    assignment exists only to assemble a tensor jet block by block.
    """

    __slots__ = ("value", "gradient", "hessian")
    # make ndarray (op) Jet2 defer to the reflected jet operators
    __array_ufunc__ = None

    def __init__(self, value, gradient: np.ndarray, hessian: np.ndarray):
        self.value = float(value) if np.ndim(value) == 0 else value
        self.gradient = gradient
        self.hessian = hessian

    # -- constructors -------------------------------------------------------

    @classmethod
    def variable(cls, index: int, value: float, dim: int) -> "Jet2":
        """Seed coordinate ``index`` of a ``dim``-dimensional chart at ``value``."""
        if not 0 <= index < dim:
            raise IndexError(f"coordinate index {index} out of range for dim {dim}")
        g = np.zeros(dim)
        g[index] = 1.0
        return cls(value, g, np.zeros((dim, dim)))

    @classmethod
    def constant(cls, value, dim: int) -> "Jet2":
        """A constant scalar or array (copied) with zero derivatives."""
        value = np.array(value, dtype=float)
        return cls(value, np.zeros(value.shape + (dim,)),
                   np.zeros(value.shape + (dim, dim)))

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

    def __getitem__(self, index) -> "Jet2":
        return Jet2(self.value[index], self.gradient[index], self.hessian[index])

    def __setitem__(self, index, other) -> None:
        if isinstance(other, Jet2):
            _check_same_dim(self, other)
            self.value[index] = other.value
            self.gradient[index] = other.gradient
            self.hessian[index] = other.hessian
        else:  # a constant
            self.value[index] = other
            self.gradient[index] = 0.0
            self.hessian[index] = 0.0

    @property
    def T(self) -> "Jet2":
        """Transpose of a matrix jet."""
        return Jet2(self.value.T, self.gradient.transpose(1, 0, 2),
                    self.hessian.transpose(1, 0, 2, 3))

    def sum(self, axis: int = 0) -> "Jet2":
        """Sum along one value axis."""
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
        """Matrix product of two matrix jets (the product rule, contracted)."""
        if not isinstance(other, Jet2):
            return NotImplemented
        _check_same_dim(self, other)
        a, b = self, other
        cross = np.einsum("ikx,kjy->ijxy", a.gradient, b.gradient)
        return Jet2(
            a.value @ b.value,
            np.einsum("ikx,kj->ijx", a.gradient, b.value)
            + np.einsum("ik,kjx->ijx", a.value, b.gradient),
            np.einsum("ikxy,kj->ijxy", a.hessian, b.value)
            + np.einsum("ik,kjxy->ijxy", a.value, b.hessian)
            + cross + np.swapaxes(cross, -1, -2),
        )

    def __rmatmul__(self, other):
        """A constant matrix (or covector) applied to the leading value axis."""
        other = np.asarray(other, dtype=float)
        axes = (other.ndim - 1, 0)
        return Jet2(np.tensordot(other, self.value, axes=axes),
                    np.tensordot(other, self.gradient, axes=axes),
                    np.tensordot(other, self.hessian, axes=axes))


def zeros(shape: tuple, dim: int) -> Jet2:
    """An all-zero jet of the given value shape, to be filled by assignment."""
    return Jet2(np.zeros(shape), np.zeros(shape + (dim,)), np.zeros(shape + (dim, dim)))


def seed_chart(x: np.ndarray) -> Jet2:
    """Seed every entry of ``x`` as an independent coordinate of one chart."""
    x = np.array(x, dtype=float)
    d = x.shape[0]
    return Jet2(x, np.eye(d), np.zeros((d, d, d)))


def stack(items) -> Jet2:
    """One array jet from a (nested) sequence of equal-shape jets; a jet passes through."""
    if isinstance(items, Jet2):
        return items
    parts = [stack(item) for item in items]
    return Jet2(np.array([p.value for p in parts]),
                np.stack([p.gradient for p in parts]),
                np.stack([p.hessian for p in parts]))


def compose(a: Jet2, value, d1, d2) -> Jet2:
    """Chain rule through a function with supplied derivatives at ``a.value``."""
    return Jet2(value, _g(d1) * a.gradient,
                _h(d1) * a.hessian + _h(d2) * _outer(a.gradient, a.gradient))


def sqrt(a: Jet2) -> Jet2:
    if np.any(a.value <= 0.0):
        raise JetDomainError(f"sqrt of non-positive jet value {a.value}")
    v = np.sqrt(a.value)
    d1 = 0.5 / v
    return compose(a, v, d1, -0.5 * d1 / a.value)


def log(a: Jet2) -> Jet2:
    if np.any(a.value <= 0.0):
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
