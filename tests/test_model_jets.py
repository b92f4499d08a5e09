"""Model jets against central differences of their own values.

Every model assembles its metric (and, where it has one, its complex
structure) as one array jet.  Gradients and Hessians must match central
differences of the assembled values, with the bounds of acceptance check c09:
gradient within 1e-6 and Hessian within 1e-4, relative.

The closed-form Fubini-Study jets must also equal, within 1e-14 of the
largest entry, the same quantities assembled by generic jet products; the
directional reads a bundle metric and each of its z-only parts take from
factors must equal the dense Hessian's within 1e-13; and counters bound
the base-jet work of a run: no jet products inside the closed forms, one
base build per batch of base points, and no dense Hessian in the
directional steps of a run.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchgeom import (
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom import geometry
from qchgeom.cli import RunConfig
from qchgeom.curvature import COMPLEX_STEP, PointAnalysis, second_bianchi_residual
from qchgeom.geometry import BaseChartMetric
from qchgeom.qch import coefficient_a, coefficient_base_independence
from qchgeom.suite import build_model, run_suite, sample_interior_points
from qchgeom.jets import Jet2, last_slot, reciprocal, seed_chart, zeros


GRAD_STEP = 1e-5
HESS_STEP = 1e-4


def _fd_errors(fn, x):
    """Relative gradient/Hessian errors of the jet fn(seed_chart(x)) vs differences."""
    jet = fn(seed_chart(x))

    def value(p):
        return fn(seed_chart(p)).value

    d = x.shape[0]
    step = np.eye(d)
    f0 = value(x)
    grad = np.empty(jet.gradient.shape)
    hess = np.empty(jet.hessian.shape)
    for i in range(d):
        grad[..., i] = (value(x + GRAD_STEP * step[i])
                        - value(x - GRAD_STEP * step[i])) / (2.0 * GRAD_STEP)
        ei = HESS_STEP * step[i]
        hess[..., i, i] = (value(x + ei) - 2.0 * f0 + value(x - ei)) / HESS_STEP ** 2
        for j in range(i):
            ej = HESS_STEP * step[j]
            hess[..., i, j] = hess[..., j, i] = (
                value(x + ei + ej) - value(x + ei - ej)
                - value(x - ei + ej) + value(x - ei - ej)) / (4.0 * HESS_STEP ** 2)
    gerr = np.abs(jet.gradient - grad).max() / max(1.0, np.abs(grad).max())
    herr = np.abs(jet.hessian - hess).max() / max(1.0, np.abs(hess).max())
    return gerr, herr


@functools.cache
def _models(n):
    """(name, model, chart point coordinates) for every model at complex dimension n."""
    m = n - 1
    s = 2.0 / n
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    rng = np.random.default_rng(40 + n)
    z = rng.uniform(-0.4, 0.4, 2 * m)
    total = np.concatenate(([0.4 * profile.L, 0.7], z))
    return [
        ("fubini-study", FubiniStudy(m, 4.0), z),
        ("product-base", ProductBase([FubiniStudy(1, 4.0), FubiniStudy(m - 1, 4.0)]), z),
        ("warped", WarpedBundleMetric(profile, FubiniStudy(m, 4.0)), total),
        ("product-mode", WarpedBundleMetric(profile, FubiniStudy(m, 4.0), product_mode=True),
         total),
        ("perturbed", WarpedBundleMetric(profile, FubiniStudy(m, 4.0), warp_scale=1.01),
         total),
        ("circle-bundle", CircleBundleMetric(1.3, 0.8, s, FubiniStudy(m, 4.0)),
         np.concatenate(([0.7], z))),
        ("base-chart", BaseChartMetric(FubiniStudy(m, 4.0)), z),
    ]


NAMES = ("fubini-study", "product-base", "warped", "product-mode", "perturbed",
         "circle-bundle", "base-chart")


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("n", [3, 5])
def test_model_jets_match_central_differences(n, name):
    _, model, x = next(case for case in _models(n) if case[0] == name)
    builders = [model.metric_jets]
    if getattr(model, "complex_structure_jets", None) is not None:
        builders.append(model.complex_structure_jets)
    if hasattr(model, "connection_potential_jets"):
        builders.append(model.connection_potential_jets)
    for build in builders:
        gerr, herr = _fd_errors(build, x)
        assert gerr < 1e-6, f"{name} n={n} {build.__name__}: gradient error {gerr:.2e}"
        assert herr < 1e-4, f"{name} n={n} {build.__name__}: Hessian error {herr:.2e}"


def _jet_arithmetic_metric(model, coords):
    """The bundle metric assembled by plain jet arithmetic: theta = dpsi + s sigma
    as one jet (times f on the warped chart), its outer square, then r^2 h
    (h in product mode, and alpha^2 theta x theta + beta^2 h on the circle
    bundle): the reference for the assembly from the memo's z-only parts."""
    d, batch, dtype = model.dim, coords.shape[:-1], coords.value.dtype
    off = d - model.base.dim
    z = coords[..., off:]
    h = model.base.metric_jets(z)
    theta = zeros(batch + (d - off + 1,), coords.dim, dtype)
    theta[..., 0] = 1.0
    theta[..., 1:] = model.s * model.base.connection_potential_jets(z)
    g = zeros(batch + (d, d), coords.dim, dtype)
    if isinstance(model, CircleBundleMetric):
        g[...] = model.alpha ** 2 * (theta[..., :, None] * theta[..., None, :])
        g[..., 1:, 1:] += model.beta ** 2 * h
        return g
    r, f = model.warp_jets(coords[..., 0])
    f_theta = f[..., None] * theta
    g[..., 0, 0] = 1.0
    g[..., 1:, 1:] = f_theta[..., :, None] * f_theta[..., None, :]
    g[..., 2:, 2:] += h if model.product_mode else (r * r)[..., None, None] * h
    return g


def _assert_matches_jet_arithmetic(model, points, label):
    """The model's metric jets at one point, at the batch, at its complex step
    along the first coordinate (t or psi, which leaves z real, so the memo's
    real entry serves it) and at a complex step along a random direction
    equal the jet-arithmetic reference; real and imaginary parts each within
    1e-14 of their largest entry."""
    h = COMPLEX_STEP
    lead = np.zeros(model.dim)
    lead[0] = 1.0
    tilt = np.random.default_rng(model.dim).standard_normal(model.dim)
    for x in (points[0], points, points + 1j * h * lead, points + 1j * h * tilt):
        coords = seed_chart(x)
        g, reference = model.metric_jets(coords), _jet_arithmetic_metric(model, coords)
        for part in ("value", "gradient", "hessian"):
            actual, expected = getattr(g, part), getattr(reference, part)
            assert actual.shape == expected.shape
            for take in (np.real, np.imag):
                scale = np.abs(take(expected)).max()
                err = np.abs(take(actual) - take(expected)).max()
                assert err <= 1e-14 * scale, f"{label} {part} {take.__name__}"


@pytest.mark.parametrize("variant", ["warped", "product-mode", "warp-scale", "product-base"])
@pytest.mark.parametrize("n", [3, 5])
def test_warped_metric_jets_match_jet_arithmetic(n, variant):
    s = 2.0 / n
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    base = (ProductBase([FubiniStudy(1, 4.0), FubiniStudy(n - 2, 4.0)])
            if variant == "product-base" else FubiniStudy(n - 1, 4.0))
    model = WarpedBundleMetric(profile, base,
                               product_mode=variant == "product-mode",
                               warp_scale=1.05 if variant == "warp-scale" else 1.0)
    points = sample_interior_points(model, np.random.default_rng(60 + n), 5)
    _assert_matches_jet_arithmetic(model, points, variant)


@pytest.mark.parametrize("n", [3, 5])
def test_circle_bundle_metric_jets_match_jet_arithmetic(n):
    model = CircleBundleMetric(1.3, 0.8, 2.0 / n, FubiniStudy(n - 1, 4.0))
    points = sample_interior_points(model, np.random.default_rng(80 + n), 5)
    _assert_matches_jet_arithmetic(model, points, "circle-bundle")


# -- contractions of the parts against the dense Hessian --------------------------


def _bundle_models(variant: str, n: int):
    profile = solve_profile(build_polynomial(1.0, 2.0, 2.0 / n))
    if variant == "circle-bundle":
        return CircleBundleMetric(1.3, 0.8, 2.0 / n, FubiniStudy(n - 1, 4.0))
    base = (ProductBase([FubiniStudy(1, 4.0), FubiniStudy(n - 2, 4.0)])
            if variant == "negative-control" else FubiniStudy(n - 1, 4.0))
    return WarpedBundleMetric(profile, base, product_mode=variant == "product",
                              warp_scale=1.05 if variant == "perturb_f" else 1.0)


def _assert_contraction(got, want):
    """Real and imaginary parts each within 1e-13 of their largest entry."""
    assert got.shape == want.shape
    for take in (np.real, np.imag):
        scale = np.abs(take(want)).max()
        assert np.abs(take(got) - take(want)).max() <= 1e-13 * scale


def _assert_reads_match_einsum(jet, V, v, w):
    """A jet's ``hessian_along`` and ``hessian_pair`` against np.einsum of
    its dense Hessian, which is read first."""
    hessian = jet.hessian
    _assert_contraction(jet.hessian_along(V),
                        np.einsum("...abmn,...un->...abmu", hessian, V))
    _assert_contraction(jet.hessian_pair(v, w),
                        np.einsum("...abmk,...a,...b->...mk", hessian, v, w))


@pytest.mark.parametrize("variant", ["warped", "product", "negative-control", "circle-bundle",
                                     "perturb_f"])
@pytest.mark.parametrize("n", [3, 5])
def test_parts_contractions_match_the_dense_hessian(n, variant):
    """The directional reads of a bundle metric's Hessian, contracted from its
    z-only parts and t-warps (``BundleJet.hessian_along`` and
    ``hessian_pair``), and the same reads of the dense Hessian by the route
    of a jet without parts (``Jet2.hessian_along`` and ``hessian_pair``),
    both equal the dense Hessian contracted with the directions by
    ``np.einsum``; and so do the reads of each z-only part, Theta and h, on
    z's slots and on the part's value axes: from their factors where the
    base is Fubini-Study (``ThetaSquareJet``, ``FubiniStudyJet``), from the
    dense Hessian of a ``ProductBase`` h.  Real and imaginary parts each
    within 1e-13 of their largest entry: at one point, at a batch, at a
    batch sharing one z (whose parts are built once and broadcast as views
    of their dense jets), and at complex steps of them along the first
    coordinate and along a random direction, with three directions read at
    once along and one pair on the value slots."""
    model = _bundle_models(variant, n)
    d, nz = model.dim, model.base.dim
    rng = np.random.default_rng(90 + n)
    points = sample_interior_points(model, rng, 5)
    shared = points.copy()
    shared[:, -nz:] = points[0, -nz:]
    assert model.shares_parts(shared) and not model.shares_parts(points)
    lead, tilt = np.eye(d)[0], rng.standard_normal(d)
    V = rng.standard_normal((5, 3, d))
    v, w = rng.standard_normal((2, 5, d))
    for batch in (points, shared):
        for x, i in ((batch[0], 0), (batch, slice(None))):
            for step in (0.0, COMPLEX_STEP * lead, COMPLEX_STEP * tilt):
                xs = x + 1j * step if np.any(step) else x
                g = model.metric_jets(seed_chart(xs))
                _assert_reads_match_einsum(g, V[i], v[i], w[i])
                _assert_reads_match_einsum(Jet2(g.value, g.gradient, g.hessian),
                                           V[i], v[i], w[i])
                h, _, theta2 = model._base_at(xs[..., -nz:])
                # a batch sharing one z holds its parts' dense jets as views
                factored = batch is points or x.ndim == 1
                assert type(theta2) is (geometry.ThetaSquareJet if factored else Jet2)
                assert type(h) is (geometry.FubiniStudyJet
                                   if factored and variant != "negative-control" else Jet2)
                for part in (theta2, h):
                    p = part.shape[-1]
                    _assert_reads_match_einsum(part, V[i][..., -nz:], v[i][..., -p:],
                                               w[i][..., -p:])


@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("m", [1, 3])
def test_fubini_study_reads_land_in_the_seeded_slots(m, batch):
    """The closed form's directional reads equal the einsum of its dense
    Hessian when z is seeded as the whole chart and as the last slots of a
    larger one (zero in the other slots), at real and complex z."""
    rng = np.random.default_rng(30 + m)
    base = FubiniStudy(m, 4.0)
    total = rng.uniform(-0.6, 0.6, batch + (2 + 2 * m,))
    tilt = rng.standard_normal(total.shape)
    for x in (total, total + 1j * COMPLEX_STEP * tilt):
        for chart, z in ((seed_chart(x[..., 2:]), slice(None)), (seed_chart(x), slice(2, None))):
            h = base.metric_jets(chart[..., z])
            assert type(h) is geometry.FubiniStudyJet
            V = rng.standard_normal(batch + (3, chart.dim))
            v, w = rng.standard_normal((2,) + batch + (2 * m,))
            _assert_reads_match_einsum(h, V, v, w)
            if z != slice(None):
                assert not h.hessian_along(V)[..., :2, :].any()


def _fubini_study_along_dense(h, w):
    """``FubiniStudyJet.hessian_along`` as the dense broadcast sum it was
    before its in-place form: every term a new array, E_ija + E_jia from the
    dense E, and the result copied into the chart slots."""
    z, u, a, c, dp = h.factors
    base = h.base
    eye, j0, k = np.eye(base.dim), base.j0, 4.0 / base.c0
    ws = w[..., h.slots]
    wt = np.swapaxes(ws, -1, -2)
    zw = (ws @ z[..., None])[..., 0]
    u2, u3 = u * u, u * u * u
    q = (c[..., None] * zw[..., None, None, :]
         + 4.0 * u3[..., None, None, None] * last_slot(dp, ws))
    out = q[..., :, :, None, :] * z[..., None, None, :, None]
    out += a[..., None, None] * wt[..., None, None, :, :]
    out += dp[..., None] * (4.0 * u3[..., None] * zw)[..., None, None, None, :]
    e = (eye[:, None, :, None] * wt[..., None, :, None, :]
         + j0[:, None, :, None] * (j0 @ wt)[..., None, :, None, :])
    out -= u2[..., None, None, None, None] * (e + np.swapaxes(e, -3, -4))
    return h._in_slots(k * out, -2)


@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("m", [1, 3, 6])
def test_fubini_study_read_along_equals_the_dense_sum(m, batch):
    """The closed form's read along directions, summed in place with E on
    its planes, equals the dense broadcast sum bit for bit: in z's own
    chart and in the last slots of a larger one, at real points, at complex
    steps and at complex points and directions of order-one imaginary part
    (where a complex product taken in the other operand order may differ
    in its last bit)."""
    rng = np.random.default_rng(60 + m)
    base = FubiniStudy(m, 2.5)
    total = rng.uniform(-0.6, 0.6, batch + (2 + 2 * m,))
    tilt = rng.standard_normal(total.shape)
    V = rng.standard_normal(batch + (4, total.shape[-1]))
    for x, W in ((total, V), (total + 1j * COMPLEX_STEP * tilt, V),
                 (total + 0.3j * tilt, V + 0.7j * rng.standard_normal(V.shape))):
        for chart, w in ((seed_chart(x[..., 2:]), W[..., 2:]), (seed_chart(x), W)):
            h = base.metric_jets(chart[..., -2 * m:])
            got, want = h.hessian_along(w), _fubini_study_along_dense(h, w)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# -- closed-form Fubini-Study jets against generic jet products -----------------


def _norm_squared(z):
    """|z|^2 of a jet vector, summed entry by entry."""
    return sum(z[..., i] * z[..., i] for i in range(z.value.shape[-1]))


def _product_metric(base, z):
    """h = (4/c0)(I/W - (z z^T + (Jz)(Jz)^T)/W^2), W = 1 + |z|^2, assembled by
    generic jet products: the reference for the closed form."""
    inv_w2 = reciprocal(1.0 + _norm_squared(z))[..., None, None]
    jz = z @ base.j0.T
    outer = z[..., :, None] * z[..., None, :] + jz[..., :, None] * jz[..., None, :]
    return (4.0 / base.c0) * (inv_w2 * np.eye(base.dim) - (inv_w2 * inv_w2) * outer)


def _product_potential(base, z):
    """sigma = (2/c0) Jz / W by generic jet products."""
    coef = (2.0 / base.c0) * reciprocal(1.0 + _norm_squared(z))
    return coef[..., None] * (z @ base.j0.T)


def _assert_same_jet(actual, expected, label, rel=1e-14):
    for part in ("value", "gradient", "hessian"):
        a, e = getattr(actual, part), getattr(expected, part)
        assert a.shape == e.shape, f"{label} {part}: {a.shape} vs {e.shape}"
        err, scale = np.abs(a - e).max(), np.abs(e).max()
        assert err <= rel * scale, f"{label} {part}: {err:.2e} against {scale:.2e}"


def _assert_closed_forms(base, z, label):
    _assert_same_jet(base.metric_jets(z), _product_metric(base, z), f"{label} metric")
    _assert_same_jet(base.connection_potential_jets(z), _product_potential(base, z),
                     f"{label} potential")


def _curved_z(rng, batch, m, d):
    """z as a quadratic function of d seeded chart coordinates: a z jet whose
    Hessian is not zero."""
    y = seed_chart(rng.uniform(-0.5, 0.5, batch + (d,)))
    lin = y @ (0.3 * rng.standard_normal((d, 2 * m)))
    return lin + 0.2 * (lin * lin)


def _assert_rejects_curved_z(base, z):
    """The closed forms are placed in z's chart slots, so a z jet that is not
    seeded from chart coordinates raises."""
    for build in (base.metric_jets, base.connection_potential_jets):
        with pytest.raises(ValueError, match="seeded as a run of chart coordinates"):
            build(z)


@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("m", range(1, 7))
def test_fubini_study_closed_forms_match_jet_products(m, batch):
    """Seeded in the base chart and in the base slots of a total chart; a z
    jet with a nonzero Hessian raises."""
    rng = np.random.default_rng(70 + m)
    base = FubiniStudy(m, 4.0)
    z = rng.uniform(-0.6, 0.6, batch + (2 * m,))
    _assert_closed_forms(base, seed_chart(z), "base chart")
    total = np.concatenate([rng.uniform(0.1, 0.9, batch + (2,)), z], axis=-1)
    _assert_closed_forms(base, seed_chart(total)[..., 2:], "total chart")
    _assert_rejects_curved_z(base, _curved_z(rng, batch, m, 2 * m + 1))


@pytest.mark.parametrize("batch", [(), (3,)])
def test_product_base_slices_match_jet_products(batch):
    """Each factor of a product base is differentiated through its slice of
    z; a z jet with a nonzero Hessian raises."""
    rng = np.random.default_rng(77)
    factors = [FubiniStudy(1, 4.0), FubiniStudy(2, 9.0)]
    base = ProductBase(factors)
    total = rng.uniform(-0.5, 0.5, batch + (2 + base.dim,))
    z = seed_chart(total)[..., 2:]
    h, sigma = zeros(z.shape + (base.dim,), z.dim), zeros(z.shape, z.dim)
    for f, span in zip(factors, base._spans()):
        h[..., span, span] = _product_metric(f, z[..., span])
        sigma[..., span] = _product_potential(f, z[..., span])
    _assert_same_jet(base.metric_jets(z), h, "product metric")
    _assert_same_jet(base.connection_potential_jets(z), sigma, "product potential")
    _assert_rejects_curved_z(base, _curved_z(rng, batch, base.m, 5))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), c0=st.floats(0.01, 1000.0),
       radius=st.one_of(st.just(0.0), st.floats(1e-3, 0.95)), seed=st.integers(0, 2 ** 16))
def test_closed_forms_hold_across_curvature_and_chart(m, c0, radius, seed):
    """c0 from 0.01 to 1000 and |z| up to 3.8."""
    rng = np.random.default_rng(seed)
    base = FubiniStudy(m, c0)
    z = rng.standard_normal((3, 2 * m))
    z *= (radius * 4.0 * rng.uniform(0.0, 1.0, (3, 1))
          / np.linalg.norm(z, axis=-1, keepdims=True))
    _assert_closed_forms(base, seed_chart(z), f"c0={c0} |z|<={radius}")


def test_scaled_potential_fails_connection_form_check(monkeypatch):
    """Teeth: a sigma off by 1.001 no longer has d sigma = Omega."""
    config = RunConfig(mode="circle-bundle", n=3, k=1, rng_seed=5, sample_count=10)
    check = next(c for c in run_suite(config).checks if c.name == "connection_form_derivative")
    assert check.passed
    exact = FubiniStudy.connection_potential_jets
    monkeypatch.setattr(FubiniStudy, "connection_potential_jets",
                        lambda self, z: 1.001 * exact(self, z))
    check = next(c for c in run_suite(config).checks if c.name == "connection_form_derivative")
    assert not check.passed


# -- structural work guards: counts, not timings ---------------------------------


def test_closed_forms_use_no_jet_products(monkeypatch):
    """The Fubini-Study closed forms, a build of each bundle model's z-only
    parts (``_base_parts``) and each bundle model's metric from them make no
    jet product."""
    calls = []
    product = Jet2.__mul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(Jet2, "__mul__", counted)
    monkeypatch.setattr(Jet2, "__rmul__", counted)
    rng = np.random.default_rng(3)
    base = FubiniStudy(3, 4.0)
    z = rng.uniform(-0.5, 0.5, (2, 6))
    for zj in (seed_chart(z), seed_chart(np.concatenate([z, z], axis=-1))[..., 6:]):
        calls.clear()
        base.metric_jets(zj)
        base.connection_potential_jets(zj)
        assert not calls
    profile = solve_profile(build_polynomial(1.0, 2.0, 0.5))
    for model in (WarpedBundleMetric(profile, base), CircleBundleMetric(1.3, 0.8, 0.5, base)):
        x = sample_interior_points(model, rng, 2)
        calls.clear()
        geometry._base_parts(base, x[..., -base.dim:], model.dim, model.s)
        assert not calls
        model.metric_jets(seed_chart(x))
        assert not calls
    _assert_rejects_curved_z(base, _curved_z(rng, (2,), 3, 7))


def _count_base_builds(monkeypatch, config):
    """(potential builds, base jets built outside the warped memo) in one run."""
    counts = {"sigma": 0, "outside": 0}
    depth = [0]
    memo = geometry.WarpedBundleMetric._base_at

    def in_memo(self, z):
        depth[0] += 1
        try:
            return memo(self, z)
        finally:
            depth[0] -= 1

    def counted(name):
        build = getattr(FubiniStudy, name)

        def wrapper(self, z):
            counts["sigma"] += name == "connection_potential_jets"
            counts["outside"] += not depth[0]
            return build(self, z)
        return wrapper

    monkeypatch.setattr(geometry.WarpedBundleMetric, "_base_at", in_memo)
    for name in ("metric_jets", "connection_potential_jets"):
        monkeypatch.setattr(FubiniStudy, name, counted(name))
    run_suite(config)
    return counts


def test_circle_bundle_builds_sigma_once_per_z_batch(monkeypatch):
    """n = 7, 10 points: 5 analysed slices and 6 displaced Bianchi slices, so
    at most 11 builds (81 before the bundle memo and the one lift jet)."""
    counts = _count_base_builds(monkeypatch, RunConfig(
        mode="circle-bundle", n=7, k=1, rng_seed=1, sample_count=10))
    assert 0 < counts["sigma"] <= 11


def test_warped_base_jets_come_from_the_memo(monkeypatch):
    """n = 7, 10 points, perturbed warp: the suite reads sigma and Omega off
    the model's own evaluation (20 outside builds before)."""
    counts = _count_base_builds(monkeypatch, RunConfig(
        mode="warped", n=7, k=1, rng_seed=1, sample_count=10, perturb_f=1.05))
    assert counts["sigma"] > 0 and counts["outside"] == 0


def test_directional_steps_assemble_no_dense_hessian(monkeypatch):
    """At n = 7 (d = 14, 13 on the circle bundle) the second Bianchi check
    and the base-independence moves read the metric along directions
    alone: no z-only part assembles its dense Hessian and no
    ``BundleJet.hessian`` is formed.  So they run in directional slices of
    BATCH_ELEMENTS // (4 d^3) points: the 6 complex Bianchi points in 1
    analysis (2 of 3 at d = 14 at a budget of 2^16 entries), the 20 moves
    of 10 points in 3 of 7, 7 and 6 (4 of 5 at 2^16).  A sample analysis,
    which reads R whole, assembles all three."""
    assembled, analyses = [], []

    def spy(name, build):
        def read(self):
            assembled.append(name)
            return build(self)
        return read

    for cls in (geometry.FubiniStudyJet, geometry.ThetaSquareJet):
        monkeypatch.setattr(cls, "assemble", spy(cls.__name__, cls.assemble))
    hessian = functools.cached_property(spy("BundleJet", geometry.BundleJet.hessian.func))
    hessian.__set_name__(geometry.BundleJet, "hessian")
    monkeypatch.setattr(geometry.BundleJet, "hessian", hessian)
    init = PointAnalysis.__init__

    def counted(self, field, x):
        analyses.append(len(x))
        init(self, field, x)

    rng = np.random.default_rng(7)
    for mode, bianchi in (("warped", [6]), ("product", [6]), ("circle-bundle", [6])):
        model = build_model(RunConfig(mode=mode, n=7, k=1, rng_seed=7, sample_count=10))
        points = sample_interior_points(model, rng, 10)
        dirs = rng.standard_normal((2, 3, model.dim))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        a = coefficient_a(PointAnalysis(model, points)) if mode == "warped" else None
        monkeypatch.setattr(PointAnalysis, "__init__", counted)
        second_bianchi_residual(model, points[:2], dirs)
        assert analyses == bianchi and not assembled, mode
        if mode == "warped":
            analyses.clear()
            coefficient_base_independence(model, points, a,
                                          draws=rng.standard_normal((10, 2, model.base.dim)))
            assert analyses == [7, 7, 6] and not assembled
        monkeypatch.setattr(PointAnalysis, "__init__", init)
        analyses.clear()
    PointAnalysis(model, points[:1]).riemann
    assert sorted(set(assembled)) == ["BundleJet", "FubiniStudyJet", "ThetaSquareJet"]
