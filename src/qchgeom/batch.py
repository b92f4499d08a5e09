"""Array helpers for quantities with leading batch axes, one entry per point.

A vector at N points has shape (N, d) and a matrix (N, d, d); one point is
the batch shape ().  numpy's ``@`` already maps matrices over the batch, and
these helpers cover the rest: vectors against matrices, per-point maxima and
per-point scalars.
"""

from __future__ import annotations

import numpy as np


def inexact(x) -> np.ndarray:
    """A copy of x as a float array, or as a complex one if x is complex."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, float))


def per_point(x):
    """A per-point result: a float for one point, the array for a batch."""
    return np.asarray(x)[()]


def mT(a: np.ndarray) -> np.ndarray:
    """Transpose of the last two axes (numpy 2's ``ndarray.mT``)."""
    return np.swapaxes(a, -1, -2)


def matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x pointwise: matrices B + (m, n) applied to vectors B + (n,)."""
    return (a @ x[..., None])[..., 0]


def inner(g: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g(x, y) pointwise: x, y of shape B + (d,) against g of shape B + (d, d)."""
    return np.sum((x[..., None, :] @ g)[..., 0, :] * y, axis=-1)


def max_abs(x: np.ndarray, rank: int, out: np.ndarray | None = None):
    """max |x| over the last ``rank`` axes: one value per point.  |x| goes
    into ``out`` where given, which may be ``x`` itself."""
    return per_point(np.abs(x, out=out).max(axis=tuple(range(-rank, 0))))


def each(c) -> np.ndarray:
    """A per-point scalar, shaped to scale the matrices of its points."""
    return np.asarray(c)[..., None, None]
