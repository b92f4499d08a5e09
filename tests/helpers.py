"""Shared test machinery: random jet-expression trees with a float evaluator
(for finite-difference references), a polynomial derivative oracle, and the
small definitions that only tests use (seeded variables, constant fields,
flat space, sectional curvature, the Jacobi matrix of the full Riemann
tensor, the derivatives of the Christoffel symbols, warp derivatives, the
model tensors, a profile off the cubic, the gathered panel formula, the
unpacked states of a Jacobi solve)."""

import math

import numpy as np

from qchgeom import jets
from qchgeom.batch import inner, mT, per_point
from qchgeom.curvature import contract_slots
from qchgeom.flows import _NODES, _WEIGHTS
from qchgeom.jets import Jet2
from qchgeom.profile import ProfileSolution
from qchgeom.qch import (coefficient_t_derivatives, fit_qch_coefficients, section_divergences,
                         structure_identity_residuals)

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
            return sq
        if as_jet:
            if op == "sqrt1p":
                return jets.sqrt(1.0 + sq)
            if op == "log1p":
                return jets.log(1.0 + sq)
            if op == "expb":
                return jets.exp(u / (1.0 + sq))
            return jets.reciprocal(1.0 + sq)
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
            for _ in range(e):
                term = term * xi
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


def constant_vector_field(coords, values):
    """A coordinate-constant vector field as a jet at the seeded coordinates."""
    vals = np.asarray(values, dtype=float)
    return Jet2.constant(np.broadcast_to(vals, coords.shape), coords.dim)


def fiber_field(model, coords):
    """The fiber rotation field d/dpsi of the warped chart (theta of it is 1),
    as a jet at the seeded coordinates."""
    return constant_vector_field(coords, np.eye(model.dim)[1])


class EuclideanMetric:
    """Flat R^d, for oracle tests of the curvature and flow layers."""

    def __init__(self, dim: int):
        self.dim = dim

    def metric_jets(self, coords: Jet2) -> Jet2:
        eye = np.eye(self.dim)
        return Jet2.constant(np.broadcast_to(eye, coords.shape[:-1] + eye.shape), coords.dim)

    complex_structure_jets = None

    def frame_at(self, x, g_values) -> np.ndarray:
        return np.broadcast_to(np.eye(self.dim), np.shape(g_values))


def sectional_curvature(R, g, X, Y):
    """K(X, Y) = R(X, Y, Y, X) / (|X|^2 |Y|^2 - g(X, Y)^2)."""
    gxy = inner(g, X, Y)
    area2 = inner(g, X, X) * inner(g, Y, Y) - gxy * gxy
    if np.any(area2 <= 0.0):
        raise ValueError("sectional curvature of a degenerate plane")
    return per_point(contract_slots(R, X, Y, Y, X, rank=4) / area2)


def jacobi_matrix(R4, v, frame):
    """M[a, b] = R(v, e_b, v, e_a): the Jacobi operator in the frame rows e,
    contracted from the full Riemann tensor R4 of batch shape B, with v of
    B + (d,) and frame of B + (d, d); the reference for the directional
    ``curvature.jacobi_operator``."""
    return mT(contract_slots(R4, v, frame, v, frame, rank=4))


def dgamma(analysis):
    """d_m Gamma^k_ij as [k, i, j, m] at an analysis, from its metric jet:
    g^{kl} (d_m Gamma_{l,ij} - d_m g_la Gamma^a_ij), each Gamma_{l,ij} the
    half bracket of metric derivatives."""
    d2g = analysis.metric.hessian
    dfirst = 0.5 * (np.einsum("...jlim->...lijm", d2g) + np.einsum("...iljm->...lijm", d2g)
                    - np.einsum("...ijlm->...lijm", d2g))
    moved = np.einsum("...lam,...aij->...lijm", analysis.metric.gradient, analysis.gamma)
    return np.einsum("...kl,...lijm->...kijm", analysis.g_inv, dfirst - moved)


def warp_derivatives(profile, t):
    """(f, f', f'') at ``t``, a float or an array of t."""
    return profile.warp_from(*profile.evaluate(t))


def gathered_panels(panels, taus):
    """``flows.Panels(taus)`` by the gathered formula: every tau's whole panel
    of node values taken into one (taus, p) + value shape array and summed
    over the nodes, differences from the panel's first node value, a tau on
    a node reading that node's value.  The reference for the evaluator,
    which adds the same sum up one node at a time."""
    taus = np.asarray(taus, dtype=float)
    flat = taus.reshape(-1)
    i = np.clip(np.searchsorted(panels.edges, flat, side="right") - 1, 0, panels.count - 1)
    a, b = panels.edges[i], panels.edges[i + 1]
    gap = ((2.0 * flat - a - b) / (b - a))[:, None] - _NODES
    hit = gap == 0.0
    q = np.where(hit.any(axis=1, keepdims=True), hit, _WEIGHTS / np.where(hit, 1.0, gap))
    values = panels.values[i]
    first = values[:, :1]
    q = q.reshape(q.shape + (1,) * (values.ndim - 2))
    out = first[:, 0] + (q * (values - first)).sum(axis=1) / q.sum(axis=1)
    on_node = hit.any(axis=1)
    out[on_node] = values[on_node, hit[on_node].argmax(axis=1)]
    return out.reshape(taus.shape + panels.values.shape[2:])


def jacobi_states(result, taus):
    """(frames, y, y') of a ``flows.JacobiResult`` at a float or an array of
    parameters, unpacked from its panels' (frame, y, y') columns."""
    d = len(result.velocity_row)
    packed = result.dense(taus)
    return (packed[..., :d * d].reshape(packed.shape[:-1] + (d, d)),
            packed[..., d * d:d * d + d], packed[..., d * d + d:])


class PerturbedProfile(ProfileSolution):
    """A solved profile with eps (y - x) sin^4(pi t/L) added to r.

    The term is even about both ends and vanishes there with its first
    three derivatives, so f = 2 r r'/s keeps f'(0) = 1, f'(L) = -1 and the
    smooth closing, while r'^2 = P(r) no longer holds.  ``evaluate`` returns
    the sum and its first three t-derivatives, analytic in t, so a complex
    step still carries them."""

    def __init__(self, solution: ProfileSolution, eps: float):
        super().__init__(solution.polynomial, solution.omega, solution.quadrature_length)
        self.eps = eps

    def evaluate(self, t):
        r, rp, rpp, rppp = super().evaluate(t)
        w = np.pi / self.L
        sn, cs = np.sin(w * np.asarray(t)), np.cos(w * np.asarray(t))
        amp = self.eps * (self.polynomial.y - self.polynomial.x)
        return (r + amp * sn ** 4,
                rp + amp * 4.0 * w * sn ** 3 * cs,
                rpp + amp * 4.0 * w ** 2 * (3.0 * sn ** 2 * cs ** 2 - sn ** 4),
                rppp + amp * 4.0 * w ** 3 * (6.0 * sn * cs ** 3 - 10.0 * sn ** 3 * cs))


def structure_identities(analysis, model):
    """``structure_identity_residuals`` with the fit, the section divergences
    and the t-derivatives it reads, taken at the same analysis."""
    return structure_identity_residuals(analysis, model, fit=fit_qch_coefficients(analysis),
                                        divergences=section_divergences(analysis, model),
                                        t_derivatives=coefficient_t_derivatives(analysis, model))


def model_tensors(g, J, h, X, Y, Z, U):
    """(Pi, Phi, Psi) evaluated on one 4-tuple of tangent vectors."""
    return tuple(per_point(contract_slots(T, X, Y, Z, U, rank=4))
                 for T in model_tensor_arrays(g, J, h))


def model_tensor_arrays(g, J, h):
    """Component arrays of the model tensors (Pi, Phi, Psi).

    With gj_ij = g(J e_i, e_j), h the D block of g (``qch.d_block``) and
    omega = J^T h that of the Kaehler form:

      Pi  = 1/4 ( g_jk g_il - g_ik g_jl + gj_jk gj_il - gj_ik gj_jl
                  - 2 gj_ij gj_kl )
      Phi = 1/8 ( g_jk h_il - g_ik h_jl + g_il h_jk - g_jl h_ik
                  + gj_jk om_il - gj_ik om_jl + gj_il om_jk - gj_jl om_ik
                  - 2 gj_ij om_kl - 2 gj_kl om_ij )
      Psi = -om_ij om_kl
    """
    gj = mT(J) @ g
    om = mT(J) @ h

    def prod(A, B, subscripts):
        left, out = subscripts.split("->")
        a, b = left.split(",")
        return np.einsum(f"...{a},...{b}->...{out}", A, B)

    Pi = 0.25 * (prod(g, g, "jk,il->ijkl") - prod(g, g, "ik,jl->ijkl")
                 + prod(gj, gj, "jk,il->ijkl") - prod(gj, gj, "ik,jl->ijkl")
                 - 2.0 * prod(gj, gj, "ij,kl->ijkl"))
    Phi = 0.125 * (prod(g, h, "jk,il->ijkl") - prod(g, h, "ik,jl->ijkl")
                   + prod(g, h, "il,jk->ijkl") - prod(g, h, "jl,ik->ijkl")
                   + prod(gj, om, "jk,il->ijkl") - prod(gj, om, "ik,jl->ijkl")
                   + prod(gj, om, "il,jk->ijkl") - prod(gj, om, "jl,ik->ijkl")
                   - 2.0 * prod(gj, om, "ij,kl->ijkl")
                   - 2.0 * prod(gj, om, "kl,ij->ijkl"))
    Psi = -prod(om, om, "ij,kl->ijkl")
    return Pi, Phi, Psi
