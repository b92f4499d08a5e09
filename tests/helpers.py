"""Shared test machinery: random jet-expression trees with a float evaluator
(for finite-difference references), a polynomial derivative oracle, and the
small definitions that only tests use (seeded variables, constant fields,
sectional curvature, the base Kaehler form, warp derivatives, model tensors
on vectors)."""

import math

import numpy as np

from qchgeom import jets
from qchgeom.batch import inner, per_point
from qchgeom.curvature import contract_slots
from qchgeom.jets import Jet2
from qchgeom.qch import model_tensor_arrays

UNARY = ("sqrt1p", "log1p", "expb", "recip1p", "neg", "square")
BINARY = ("add", "sub", "mul", "divs")


def random_tree(rng, depth, nvars):
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.75:
            return ("var", int(rng.integers(nvars)))
        return ("const", float(rng.uniform(0.3, 2.0)))
    if rng.random() < 0.45:
        return (str(rng.choice(UNARY)), random_tree(rng, depth - 1, nvars))
    return (str(rng.choice(BINARY)),
            random_tree(rng, depth - 1, nvars),
            random_tree(rng, depth - 1, nvars))


def eval_tree(tree, xs):
    """Evaluate on floats or jets; the operations are domain-safe by design."""
    as_jet = isinstance(xs[0], Jet2)
    op = tree[0]
    if op == "var":
        return xs[tree[1]]
    if op == "const":
        return Jet2.constant(tree[1], xs[0].dim) if as_jet else tree[1]
    if op in UNARY:
        u = eval_tree(tree[1], xs)
        sq = u * u
        if op == "neg":
            return -u
        if op == "square":
            return u ** 2
        if as_jet:
            if op == "sqrt1p":
                return jets.sqrt(1.0 + sq)
            if op == "log1p":
                return jets.log(1.0 + sq)
            if op == "expb":
                return jets.exp(u / (1.0 + sq))
            return 1.0 / (1.0 + sq)
        if op == "sqrt1p":
            return math.sqrt(1.0 + sq)
        if op == "log1p":
            return math.log(1.0 + sq)
        if op == "expb":
            return math.exp(u / (1.0 + sq))
        return 1.0 / (1.0 + sq)
    a = eval_tree(tree[1], xs)
    b = eval_tree(tree[2], xs)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    return a / (1.0 + b * b)


def fd_gradient_hessian(tree, x, h=1e-5):
    """Central-difference gradient and Hessian of the float evaluation."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]

    def f(pt):
        return eval_tree(tree, list(pt))

    grad = np.empty(d)
    hess = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        e = np.zeros(d); e[i] = h
        grad[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        hess[i, i] = (f(x + e) - 2.0 * f0 + f(x - e)) / h ** 2
    for i in range(d):
        for j in range(i + 1, d):
            ei = np.zeros(d); ei[i] = h
            ej = np.zeros(d); ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h ** 2)
    return grad, hess


def jet_fd_errors(rng, *, depth=6, nvars=3):
    """One random composition: relative gradient/Hessian error of jets vs FD."""
    while True:
        tree = random_tree(rng, depth, nvars)
        x = rng.uniform(-1.5, 1.5, nvars)
        grad_fd, hess_fd = fd_gradient_hessian(tree, x)
        # reject flat compositions where a relative comparison is vacuous
        if np.abs(grad_fd).max() > 1e-3:
            break
    jet = eval_tree(tree, jets.seed_chart(x))
    gerr = np.abs(jet.gradient - grad_fd).max() / max(1.0, np.abs(grad_fd).max())
    herr = np.abs(jet.hessian - hess_fd).max() / max(1.0, np.abs(hess_fd).max())
    return gerr, herr


def random_polynomial(rng, nvars=3, max_degree=4, terms=6):
    """List of (coefficient, exponents) monomials with total degree <= 4."""
    monos = []
    for _ in range(terms):
        while True:
            exps = tuple(int(rng.integers(0, max_degree + 1)) for _ in range(nvars))
            if sum(exps) <= max_degree:
                break
        monos.append((float(rng.uniform(-2, 2)), exps))
    return monos


def poly_eval_jet(monos, xs):
    total = Jet2.constant(0.0, xs[0].dim)
    for coef, exps in monos:
        term = Jet2.constant(coef, xs[0].dim)
        for xi, e in zip(xs, exps):
            if e:
                term = term * xi ** e
        total = total + term
    return total


def poly_grad_hess_exact(monos, x):
    """Symbolic monomial differentiation (the independent oracle)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    grad = np.zeros(d)
    hess = np.zeros((d, d))

    def mono_val(exps, point):
        out = 1.0
        for xi, e in zip(point, exps):
            out *= xi ** e
        return out

    for coef, exps in monos:
        for i in range(d):
            if exps[i] == 0:
                continue
            dexp = list(exps); dexp[i] -= 1
            grad[i] += coef * exps[i] * mono_val(dexp, x)
            for j in range(d):
                if dexp[j] == 0:
                    continue
                ddexp = list(dexp); ddexp[j] -= 1
                hess[i, j] += coef * exps[i] * dexp[j] * mono_val(ddexp, x)
    return grad, hess


# -- definitions only the tests use -------------------------------------------


def variable(index, value, dim):
    """Seed coordinate ``index`` of a ``dim``-dimensional chart at ``value``."""
    if not 0 <= index < dim:
        raise IndexError(f"coordinate index {index} out of range for dim {dim}")
    g = np.zeros(dim)
    g[index] = 1.0
    return Jet2(value, g, np.zeros((dim, dim)))


def constant_vector_field(values):
    """A coordinate-constant vector field as a jet field."""
    vals = np.asarray(values, dtype=float)

    def field(coords):
        coords = jets.stack(coords)
        return Jet2.constant(np.broadcast_to(vals, coords.shape), coords.dim)

    return field


def fiber_field(model):
    """The fiber rotation field d/dpsi of the warped chart (theta of it is 1)."""
    return constant_vector_field(np.eye(model.dim)[1])


def sectional_curvature(R4, g, X, Y):
    """K(X, Y) = R(X, Y, Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)."""
    gxy = inner(g, X, Y)
    area2 = inner(g, X, X) * inner(g, Y, Y) - gxy * gxy
    if np.any(area2 <= 0.0):
        raise ValueError("sectional curvature of a degenerate plane")
    return per_point(R4.apply(X, Y, Y, X) / area2)


def kahler_form_jets(base, z):
    """Omega_ij = Omega(e_i, e_j) = h(J e_i, e_j) of a base model."""
    return base.j0.T @ base.metric_jets(z)


def warp_derivatives(profile, t):
    """(f, f', f'') at ``t``, a float or an array of t."""
    return profile.warp_from(*profile.evaluate(t))


def model_tensors(g, J, split, X, Y, Z, U):
    """(Pi, Phi, Psi) evaluated on one 4-tuple of tangent vectors."""
    return tuple(per_point(contract_slots(T, X, Y, Z, U, rank=4))
                 for T in model_tensor_arrays(g, J, split))
