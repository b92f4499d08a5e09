"""Model jets against central differences of their own values.

Every model assembles its metric (and, where it has one, its complex
structure) as one array jet.  Gradients and Hessians must match central
differences of the assembled values, with the bounds of acceptance check c09:
gradient within 1e-6 and Hessian within 1e-4, relative.

The closed-form Fubini-Study jets must also equal, within 1e-14 of the
largest entry, the same quantities assembled by generic jet products, and
counters bound the base-jet work of a run: no jet products inside the closed
forms, and one base build per batch of base points.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qchgeom import (
    BundleParams,
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom import geometry
from qchgeom.cli import RunConfig
from qchgeom.geometry import BaseChartMetric
from qchgeom.suite import run_suite, sample_interior_points
from qchgeom.jets import Jet2, reciprocal, seed_chart, zeros

from helpers import kahler_form_jets

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
    params = BundleParams(n=n, c0=4.0, s=s, L=profile.L)
    rng = np.random.default_rng(40 + n)
    z = rng.uniform(-0.4, 0.4, 2 * m)
    total = np.concatenate(([0.4 * profile.L, 0.7], z))
    return [
        ("fubini-study", FubiniStudy(m, 4.0), z),
        ("product-base", ProductBase([FubiniStudy(1, 4.0), FubiniStudy(m - 1, 4.0)]), z),
        ("warped", WarpedBundleMetric(params, profile), total),
        ("product-mode", WarpedBundleMetric(params, profile, product_mode=True), total),
        ("perturbed", WarpedBundleMetric(params, profile, warp_scale=1.01), total),
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
        builders += [model.connection_potential_jets,
                     lambda z: kahler_form_jets(model, z)]
    for build in builders:
        gerr, herr = _fd_errors(build, x)
        assert gerr < 1e-6, f"{name} n={n} {build.__name__}: gradient error {gerr:.2e}"
        assert herr < 1e-4, f"{name} n={n} {build.__name__}: Hessian error {herr:.2e}"


def _jet_arithmetic_metric(model, coords):
    """The warped metric assembled by plain jet arithmetic: f theta as one jet,
    its outer square, then r^2 h (the reference for the separable assembly)."""
    d = model.dim
    batch = coords.shape[:-1]
    r, f = model.warp_jets(coords[..., 0])
    z = coords[..., 2:]
    h = model.base.metric_jets(z)
    sigma = model.base.connection_potential_jets(z)
    f_theta = zeros(batch + (d - 1,), coords.dim)
    f_theta[..., 0] = f
    f_theta[..., 1:] = f[..., None] * (model.s * sigma)
    g = zeros(batch + (d, d), coords.dim)
    g[..., 0, 0] = 1.0
    g[..., 1:, 1:] = f_theta[..., :, None] * f_theta[..., None, :]
    g[..., 2:, 2:] += h if model.product_mode else (r * r)[..., None, None] * h
    return g


@pytest.mark.parametrize("variant", ["warped", "product-mode", "warp-scale", "product-base"])
@pytest.mark.parametrize("n", [3, 5])
def test_warped_metric_jets_match_jet_arithmetic(n, variant):
    s = 2.0 / n
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    params = BundleParams(n=n, c0=4.0, s=s, L=profile.L)
    base = (ProductBase([FubiniStudy(1, 4.0), FubiniStudy(n - 2, 4.0)])
            if variant == "product-base" else None)
    model = WarpedBundleMetric(params, profile, base,
                               product_mode=variant == "product-mode",
                               warp_scale=1.05 if variant == "warp-scale" else 1.0)
    points = sample_interior_points(model, np.random.default_rng(60 + n), 5, 0.05, 1.5)
    for x in (points[0], points):
        coords = seed_chart(x)
        g, reference = model.metric_jets(coords), _jet_arithmetic_metric(model, coords)
        for part in ("value", "gradient", "hessian"):
            actual, expected = getattr(g, part), getattr(reference, part)
            assert actual.shape == expected.shape
            scale = np.abs(expected).max()
            assert np.abs(actual - expected).max() <= 1e-14 * scale, f"{variant} {part}"


# -- closed-form Fubini-Study jets against generic jet products -----------------


def _product_metric(base, z):
    """h = (4/c0)(I/W - (z z^T + (Jz)(Jz)^T)/W^2), W = 1 + |z|^2, assembled by
    generic jet products: the reference for the closed form."""
    inv_w2 = reciprocal(1.0 + (z * z).sum())[..., None, None]
    jz = z @ base.j0.T
    outer = z[..., :, None] * z[..., None, :] + jz[..., :, None] * jz[..., None, :]
    return (4.0 / base.c0) * (inv_w2 * np.eye(base.dim) - (inv_w2 * inv_w2) * outer)


def _product_potential(base, z):
    """sigma = (2/c0) Jz / W by generic jet products."""
    coef = (2.0 / base.c0) * reciprocal(1.0 + (z * z).sum())
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


@pytest.mark.parametrize("batch", [(), (4,)])
@pytest.mark.parametrize("m", range(1, 7))
def test_fubini_study_closed_forms_match_jet_products(m, batch):
    """Seeded in the base chart, in the base slots of a total chart, and
    through a z jet with a nonzero Hessian."""
    rng = np.random.default_rng(70 + m)
    base = FubiniStudy(m, 4.0)
    z = rng.uniform(-0.6, 0.6, batch + (2 * m,))
    _assert_closed_forms(base, seed_chart(z), "base chart")
    total = np.concatenate([rng.uniform(0.1, 0.9, batch + (2,)), z], axis=-1)
    _assert_closed_forms(base, seed_chart(total)[..., 2:], "total chart")
    _assert_closed_forms(base, _curved_z(rng, batch, m, 2 * m + 1), "curved z")


@pytest.mark.parametrize("batch", [(), (3,)])
def test_product_base_slices_match_jet_products(batch):
    """Each factor of a product base is differentiated through its slice of z."""
    rng = np.random.default_rng(77)
    factors = [FubiniStudy(1, 4.0), FubiniStudy(2, 9.0)]
    base = ProductBase(factors)
    total = rng.uniform(-0.5, 0.5, batch + (2 + base.dim,))
    for z in (seed_chart(total)[..., 2:], _curved_z(rng, batch, base.m, 5)):
        h, sigma = zeros(z.shape + (base.dim,), z.dim), zeros(z.shape, z.dim)
        for f, span in zip(factors, base._spans()):
            h[..., span, span] = _product_metric(f, z[..., span])
            sigma[..., span] = _product_potential(f, z[..., span])
        _assert_same_jet(base.metric_jets(z), h, "product metric")
        _assert_same_jet(base.connection_potential_jets(z), sigma, "product potential")


@settings(max_examples=40, deadline=None)
@given(m=st.integers(1, 6), c0=st.floats(0.01, 1000.0),
       radius=st.one_of(st.just(0.0), st.floats(1e-3, 0.95)), seed=st.integers(0, 2 ** 16))
def test_closed_forms_hold_across_curvature_and_chart(m, c0, radius, seed):
    """c0 from 0.01 to 1000 and |z| up to 0.95 of the chart radius."""
    rng = np.random.default_rng(seed)
    base = FubiniStudy(m, c0)
    z = rng.standard_normal((3, 2 * m))
    z *= (radius * base.chart_radius * rng.uniform(0.0, 1.0, (3, 1))
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
    for zj in (seed_chart(z), seed_chart(np.concatenate([z, z], axis=-1))[..., 6:],
               _curved_z(rng, (2,), 3, 7)):
        calls.clear()
        base.metric_jets(zj)
        base.connection_potential_jets(zj)
        assert not calls


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
