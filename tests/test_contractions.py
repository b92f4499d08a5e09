"""Pairwise contractions against their written-out single einsums.

Each multi-operand einsum of the analysis was rewritten as a chain of pairwise
contractions; the single einsum it replaced is kept here as the reference and
compared on random tensors at d = 6 and d = 14.
"""

import numpy as np
import pytest

from qchgeom.curvature import (
    Curvature4,
    PointAnalysis,
    contract_slots,
    div_e,
    holomorphic_sectional_curvature,
    max_frame_component_3tensor,
    metric_inverse_jets,
)
from qchgeom.flows import geodesic_acceleration, jacobi_matrix, transport_derivative
from qchgeom.jets import Jet2
from qchgeom.qch import fit_qch_coefficients, qch_residual_samples, split_tensors

RTOL = 1e-12


def _close(actual, reference):
    scale = max(float(np.abs(reference).max()), 1e-300)
    return float(np.abs(np.asarray(actual) - reference).max()) <= RTOL * scale


class _RandomMetricField:
    """A metric jet with random (symmetric) values, gradients and Hessians."""

    def __init__(self, d, rng):
        a = rng.standard_normal((d, d))
        g = a @ a.T + d * np.eye(d)
        dg = rng.standard_normal((d, d, d))
        dg = dg + dg.transpose(1, 0, 2)
        d2g = rng.standard_normal((d, d, d, d))
        d2g = d2g + d2g.transpose(1, 0, 2, 3)
        d2g = d2g + d2g.transpose(0, 1, 3, 2)
        self.dim = d
        self.jet = Jet2(g, dg, d2g)

    def coords(self, point):
        return np.zeros(self.dim)

    def metric_jets(self, coords):
        return self.jet


def _reference_curvature(g, dg, d2g):
    """The connection, Riemann and Ricci arrays as single einsums."""
    ginv = np.linalg.inv(g)
    brackets = (np.einsum("jli->lij", dg) + np.einsum("ilj->lij", dg)
                - np.einsum("ijl->lij", dg))
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, brackets)
    dbrackets = (np.einsum("jlim->lijm", d2g) + np.einsum("iljm->lijm", d2g)
                 - np.einsum("ijlm->lijm", d2g))
    dginv = -np.einsum("ka,abm,bl->klm", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("klm,lij->kijm", dginv, brackets)
                    + np.einsum("kl,lijm->kijm", ginv, dbrackets))
    r_up = (np.einsum("bjki->bijk", dgamma) - np.einsum("bikj->bijk", dgamma)
            + np.einsum("bia,ajk->bijk", gamma, gamma)
            - np.einsum("bja,aik->bijk", gamma, gamma))
    R = np.einsum("bl,bijk->ijkl", g, r_up)
    return dginv, gamma, dgamma, R, np.einsum("il,ijkl->jk", ginv, R)


@pytest.fixture(params=[6, 14])
def d(request):
    return request.param


@pytest.fixture
def rng(d):
    return np.random.default_rng(1000 + d)


def test_connection_riemann_ricci(d, rng):
    field = _RandomMetricField(d, rng)
    an = PointAnalysis(field, None)
    dginv, gamma, dgamma, R, ricci = _reference_curvature(
        field.jet.value, field.jet.gradient, field.jet.hessian)
    assert _close(metric_inverse_jets(an)[1], dginv)
    assert _close(an.connection.gamma, gamma)
    assert _close(an.connection.dgamma, dgamma)
    assert _close(an.riemann.components, R)
    assert _close(an.ricci, ricci)


def test_vector_contractions(d, rng):
    field = _RandomMetricField(d, rng)
    an = PointAnalysis(field, None)
    e_frame = rng.standard_normal((d - 2, d))
    vals = rng.standard_normal(d)
    grads = rng.standard_normal((d, d))
    x_field = lambda coords: Jet2(vals, grads, np.zeros((d, d, d)))
    nabla = grads + np.einsum("kia,a->ki", an.connection.gamma, vals)
    lowered = np.einsum("kj,ki->ij", an.g, nabla)
    assert _close(div_e(an, x_field, e_frame),
                  np.einsum("ai,aj,ij->", e_frame, e_frame, lowered))


def test_curvature_operators(d, rng):
    R = rng.standard_normal((d, d, d, d))
    a = rng.standard_normal((d, d))
    g = a @ a.T + d * np.eye(d)
    J = rng.standard_normal((d, d))
    X, Y, Z, W = rng.standard_normal((4, d))
    assert _close(Curvature4(R).apply(X, Y, Z, W),
                  np.einsum("ijkl,i,j,k,l->", R, X, Y, Z, W))

    def hol_reference(x):
        jx = J @ x
        return np.einsum("ijkl,i,j,k,l->", R, x, jx, jx, x) / float(x @ g @ x) ** 2

    assert _close(holomorphic_sectional_curvature(Curvature4(R), g, J, X), hol_reference(X))
    batch = rng.standard_normal((7, d))
    assert _close(holomorphic_sectional_curvature(Curvature4(R), g, J, batch),
                  np.array([hol_reference(x) for x in batch]))

    T = rng.standard_normal((d, d, d))
    frame = rng.standard_normal((d, d))
    reference = np.einsum("aj,jki,bi,ck->abc", frame, T, frame, frame @ g)
    assert _close(max_frame_component_3tensor(T, frame, g), np.abs(reference).max())


def test_flow_contractions(d, rng):
    gamma = rng.standard_normal((d, d, d))
    R = rng.standard_normal((d, d, d, d))
    v = rng.standard_normal(d)
    frame = rng.standard_normal((d, d))
    assert _close(geodesic_acceleration(gamma, v), -np.einsum("kij,i,j->k", gamma, v, v))
    assert _close(transport_derivative(gamma, v, frame),
                  -np.einsum("kij,i,aj->ak", gamma, v, frame))
    assert _close(jacobi_matrix(R, v, frame),
                  np.einsum("ijkl,i,bj,k,al->ab", R, v, frame, v, frame))


def test_check_site_contractions(d, rng):
    """The contract_slots calls of suite and qch, each against its einsum."""
    R = rng.standard_normal((d, d, d, d))
    J = rng.standard_normal((d, d))
    x, y = rng.standard_normal((2, d))
    pair = rng.standard_normal((2, d))
    e_frame = rng.standard_normal((d - 2, d))
    # suite: Kaehler-type curvature R(J., J., ., .)
    assert _close(contract_slots(R, J.T, J.T).transpose(2, 3, 0, 1),
                  np.einsum("ai,bj,abkl->ijkl", J, J, R))
    # qch: mixed-plane and degenerate components on the warped chart
    assert _close(contract_slots(R, x, e_frame, e_frame, x),
                  np.einsum("ijkl,i,aj,bk,l->ab", R, x, e_frame, e_frame, x))
    assert _close(contract_slots(R, pair, pair, pair, e_frame),
                  np.einsum("ijkl,ai,bj,ck,dl->abcd", R, pair, pair, pair, e_frame))
    # qch: mixed fiber curvature and fiber-plane sectional curvature on the bundle
    assert _close(contract_slots(R, e_frame, x, e_frame, x),
                  np.einsum("ijkl,ai,j,bk,l->ab", R, e_frame, x, e_frame, x))
    assert _close(np.diagonal(contract_slots(R, e_frame, x, y, e_frame)),
                  np.einsum("ijkl,ai,j,k,al->a", R, e_frame, x, y, e_frame))
    # qch: frame coefficients of the lift covariant derivatives
    n_lift = rng.standard_normal((d - 2, d - 2, d))
    coef = rng.standard_normal((d - 2, d - 2))
    assert _close(contract_slots(n_lift, coef, coef).transpose(1, 2, 0),
                  np.einsum("ai,bj,ijk->abk", coef, coef, n_lift))
    # curvature: the cyclic sum of the second Bianchi spot check
    covR = rng.standard_normal((d,) * 5)
    assert _close(contract_slots(covR, x, y, pair[0]),
                  np.einsum("aijkl,a,i,j->kl", covR, x, y, pair[0]))


def test_batched_probes_match_per_probe_loop(warped_point_analysis):
    """One (N, d) draw gives the probes and residuals of N draws of size d."""
    an = warped_point_analysis
    g, J = an.g, an.complex_structure[0]
    R = an.riemann.components
    frame = an.frame
    split = split_tensors(g, J, frame.vectors[0], frame.vectors[1])
    fit = fit_qch_coefficients(an, np.random.default_rng(5), 100)

    rng = np.random.default_rng(5)
    loop = []
    for _ in range(100):
        w = rng.standard_normal(g.shape[0])
        w /= np.sqrt(w @ g @ w)
        tau2 = float(w @ split.h @ w)
        jw = J @ w
        k = np.einsum("ijkl,i,j,k,l->", R, w, jw, jw, w) / float(w @ g @ w) ** 2
        loop.append(abs(k - (fit.a + fit.b * tau2 + fit.c * tau2 ** 2)))
    loop = np.array(loop)
    assert abs(fit.residual - loop.max()) <= 1e-12 * max(abs(fit.a), 1.0)

    batched = qch_residual_samples(an, fit, np.random.default_rng(5), 100)
    assert np.abs(batched - loop).max() <= 1e-12 * max(abs(fit.a), 1.0)
