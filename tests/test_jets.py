import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchgeom import jets
from qchgeom.jets import Jet2, JetDomainError, seed_chart

from helpers import (
    jet_fd_errors,
    poly_eval_jet,
    poly_grad_hess_exact,
    random_polynomial,
    variable,
)

FINITE = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_seeded_variable_structure():
    j = variable(0, 3.0, 2)
    assert j.value == 3.0
    assert np.array_equal(j.gradient, [1.0, 0.0])
    assert np.array_equal(j.hessian, np.zeros((2, 2)))

    j = variable(1, -1.5, 3)
    assert np.array_equal(j.gradient, [0.0, 1.0, 0.0])

    j = variable(0, 0.0, 1)
    assert j.value == 0.0 and j.gradient[0] == 1.0 and j.hessian[0, 0] == 0.0


def test_seed_index_out_of_range():
    with pytest.raises(IndexError):
        variable(2, 1.0, 2)


def test_product_square():
    u = variable(0, 2.0, 1)
    sq = u * u
    assert sq.value == 4.0
    assert sq.gradient[0] == 4.0
    assert sq.hessian[0, 0] == 2.0


def test_product_rule_cross_terms():
    u, v = seed_chart(np.array([2.0, 3.0]))
    w = u * v
    assert w.value == 6.0
    assert np.array_equal(w.gradient, [3.0, 2.0])
    assert w.hessian[0, 1] == 1.0 and w.hessian[1, 0] == 1.0
    assert w.hessian[0, 0] == 0.0


def test_cube_by_repeated_product():
    u = variable(0, 2.0, 1)
    cube = u * u * u
    assert cube.value == 8.0
    assert cube.gradient[0] == 12.0
    assert cube.hessian[0, 0] == 12.0


def test_sqrt_derivatives():
    u = variable(0, 4.0, 1)
    s = jets.sqrt(u)
    assert s.value == 2.0
    assert s.gradient[0] == 0.25
    assert abs(s.hessian[0, 0] + 1.0 / 32.0) < 1e-16


def test_log_derivatives():
    u = variable(0, 1.0, 1)
    l = jets.log(u)
    assert l.value == 0.0
    assert l.gradient[0] == 1.0
    assert l.hessian[0, 0] == -1.0


def test_exp_log_identity():
    u = variable(0, 5.0, 2)
    w = jets.exp(jets.log(u))
    assert abs(w.value - 5.0) < 1e-14
    assert abs(w.gradient[0] - 1.0) < 1e-14
    assert abs(w.gradient[1]) < 1e-14
    assert np.abs(w.hessian).max() < 1e-14


def test_division_matches_quotient_rule():
    u, v = seed_chart(np.array([3.0, 2.0]))
    q = u / v
    assert q.value == 1.5
    assert np.allclose(q.gradient, [1.0 / 2.0, -3.0 / 4.0], rtol=0, atol=1e-15)
    # d2/dv2 (u/v) = 2u/v^3, d2/dudv = -1/v^2
    assert abs(q.hessian[1, 1] - 2.0 * 3.0 / 8.0) < 1e-15
    assert abs(q.hessian[0, 1] + 0.25) < 1e-15


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="dimension mismatch"):
        variable(0, 1.0, 2) + variable(0, 1.0, 3)


def test_division_by_zero_raises():
    u = variable(0, 1.0, 1)
    z = Jet2.constant(0.0, 1)
    with pytest.raises(JetDomainError):
        u / z


def test_domain_errors_report_value():
    u = variable(0, -4.0, 1)
    with pytest.raises(JetDomainError, match="-4.0"):
        jets.sqrt(u)
    with pytest.raises(JetDomainError, match="-4.0"):
        jets.log(u)
    with pytest.raises(JetDomainError):
        jets.reciprocal(Jet2.constant(0.0, 1))


def test_polynomial_exactness():
    """Degree <= 4 polynomials in <= 3 variables: jets match the monomial
    differentiation oracle to near machine precision."""
    rng = np.random.default_rng(20240)
    for _ in range(40):
        monos = random_polynomial(rng)
        x = rng.uniform(-2.0, 2.0, 3)
        jet = poly_eval_jet(monos, seed_chart(x))
        grad, hess = poly_grad_hess_exact(monos, x)
        scale = max(1.0, np.abs(grad).max(), np.abs(hess).max())
        assert np.abs(jet.gradient - grad).max() / scale < 1e-13
        assert np.abs(jet.hessian - hess).max() / scale < 1e-13


def test_finite_difference_agreement():
    """100 random compositions of depth <= 6: gradient within 1e-6 and Hessian
    within 1e-4 of central differences (relative)."""
    rng = np.random.default_rng(512)
    worst_g = worst_h = 0.0
    for _ in range(100):
        gerr, herr = jet_fd_errors(rng)
        worst_g = max(worst_g, gerr)
        worst_h = max(worst_h, herr)
    assert worst_g < 1e-6
    assert worst_h < 1e-4


@given(a=FINITE, b=FINITE, alpha=FINITE, beta=FINITE)
def test_linearity_exact(a, b, alpha, beta):
    u = variable(0, a, 2)
    v = variable(1, b, 2)
    w = alpha * u + beta * v
    assert np.array_equal(w.gradient, [alpha, beta])
    assert np.array_equal(w.hessian, np.zeros((2, 2)))


@given(a=FINITE, b=FINITE)
def test_product_hessian_symmetric_exact(a, b):
    u = variable(0, a, 2)
    v = variable(1, b, 2)
    w = (u + 2.0 * v) * (v - u) * u
    assert np.array_equal(w.hessian, w.hessian.T)


@settings(max_examples=30)
@given(x=st.floats(min_value=0.5, max_value=2.0))
def test_chain_rule_against_closed_form(x):
    # F(u) = sqrt(1 + u^2): F' = u/sqrt(1+u^2), F'' = 1/(1+u^2)^(3/2)
    u = variable(0, x, 1)
    w = jets.sqrt(1.0 + u * u)
    root = math.sqrt(1.0 + x * x)
    assert abs(w.value - root) < 1e-14
    assert abs(w.gradient[0] - x / root) < 1e-14
    assert abs(w.hessian[0, 0] - 1.0 / root ** 3) < 1e-14


def _random_jet(rng, shape, dim):
    hess = rng.standard_normal(shape + (dim, dim))
    return Jet2(rng.standard_normal(shape), rng.standard_normal(shape + (dim,)),
                hess + np.swapaxes(hess, -1, -2))


def _entrywise_product(a, b, i, j):
    """(a @ b)[i, j] by scalar-jet arithmetic, for one point."""
    total = a[i, 0] * b[0, j]
    for k in range(1, a.shape[1]):
        total = total + a[i, k] * b[k, j]
    return total


def test_batched_matmul_matches_scalar_arithmetic():
    """A batch of matrix jets times a constant matrix equals the product rule
    entry by entry; a product of two jets is not defined."""
    rng = np.random.default_rng(31)
    a, b = _random_jet(rng, (5, 3, 4), 2), _random_jet(rng, (5, 4, 2), 2)
    with pytest.raises(TypeError, match="jet @ jet"):
        a @ b
    const = rng.standard_normal((2, 3))
    right, c = b @ const, Jet2.constant(const, 2)
    for n in range(5):
        for j in range(2):
            got, want = right[n][0, j], _entrywise_product(b[n][:1], c, 0, j)
            for x, y in ((got.value, want.value), (got.gradient, want.gradient),
                         (got.hessian, want.hessian)):
                assert np.allclose(x, y, rtol=1e-13, atol=1e-13)


def test_batched_indexing_and_seeding():
    rng = np.random.default_rng(32)
    a = _random_jet(rng, (4, 3, 3), 5)
    col = a[..., 1]
    assert col.shape == (4, 3) and np.array_equal(col.gradient, a.gradient[..., 1, :])
    x = seed_chart(rng.standard_normal((4, 5)))
    assert x.gradient.shape == (4, 5, 5) and np.array_equal(x.gradient[2], np.eye(5))
