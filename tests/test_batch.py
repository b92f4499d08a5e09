"""A batch of points gives what its points give one at a time.

Analyses over a batch (in the memory-bounded slices of ``batch_analyses``)
must match single-point analyses to 1e-13 relative for every model: the
metric and J jets, Gamma, dGamma, Riemann, Ricci and the frame; and each
check family's per-point results must match its single-point call.  Batches
of one point and of a count that is not a multiple of the slice size are
both used.
"""

import functools

import numpy as np
import pytest

import qchgeom.curvature as curvature
from qchgeom import (
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom.curvature import (
    PointAnalysis,
    batch_analyses,
    batch_slices,
    max_frame_component_3tensor,
    nabla_j,
    second_bianchi_residual,
)
from qchgeom.geometry import BaseChartMetric
from qchgeom.qch import (
    circle_bundle_residuals,
    coefficient_a,
    coefficient_base_independence,
    fit_qch_coefficients,
    qch_residual_samples,
    ricci_split,
    section_divergences,
    warped_submersion_residuals,
)
from qchgeom.suite import (
    _connection_form_residuals,
    _kahler_form_closedness,
    sample_interior_points,
)

from helpers import dgamma, structure_identities

RTOL = 1e-13


def _close(batch, single) -> bool:
    batch, single = np.asarray(batch), np.asarray(single)
    scale = max(float(np.abs(single).max()), 1.0)
    return batch.shape == single.shape and float(np.abs(batch - single).max()) <= RTOL * scale


@functools.cache
def _models(n):
    s = 2.0 / n
    profile = solve_profile(build_polynomial(1.0, 2.0, s))
    base = FubiniStudy(n - 1, 4.0)
    return {
        "base-fubini-study": BaseChartMetric(FubiniStudy(n - 1, 4.0)),
        "base-product": BaseChartMetric(ProductBase([FubiniStudy(1, 4.0),
                                                     FubiniStudy(n - 2, 4.0)])),
        "warped": WarpedBundleMetric(profile, base),
        "product-mode": WarpedBundleMetric(profile, base, product_mode=True),
        "perturbed": WarpedBundleMetric(profile, base, warp_scale=1.01),
        "circle-bundle": CircleBundleMetric(1.3, 0.8, s, FubiniStudy(n - 1, 4.0)),
    }


def _points(model, count, seed=7):
    return sample_interior_points(model, np.random.default_rng(seed), count)


QUANTITIES = {
    "metric": lambda an: an.metric.value,
    "metric_gradient": lambda an: an.metric.gradient,
    "metric_hessian": lambda an: an.metric.hessian,
    "gamma": lambda an: an.gamma,
    "dgamma": dgamma,
    "riemann": lambda an: an.riemann,
    "ricci": lambda an: an.ricci,
    "frame": lambda an: an.frame,
    "j": lambda an: an.complex_structure[0],
    "j_gradient": lambda an: an.complex_structure[1],
}
CASES = ([(n, name, count) for n in (3, 5) for name in _models(3) for count in (1, 7)]
         + [(7, name, 3) for name in _models(3)])


@pytest.mark.parametrize("n,name,count", CASES)
def test_batched_analysis_matches_single_points(n, name, count):
    model = _models(n)[name]
    points = _points(model, count)
    analyses = [an for _, an in batch_analyses(model, points)]
    assert sum(len(an.x) for an in analyses) == count
    singles = [PointAnalysis(model, p) for p in points]
    for quantity, get in QUANTITIES.items():
        if quantity.startswith("j") and singles[0].complex_structure is None:
            continue
        batched = np.concatenate([get(an) for an in analyses])
        single = np.stack([get(an) for an in singles])
        assert _close(batched, single), f"{name} n={n}: {quantity}"


def test_slices_split_the_batch(monkeypatch):
    """Slices of a small budget (3 points at d = 6) cover 7 points in the
    fewest slices, 3, balanced as 3 + 2 + 2."""
    monkeypatch.setattr(curvature, "BATCH_ELEMENTS", 3 * 6 ** 4)
    assert batch_slices(7, 6 ** 4) == [slice(0, 3), slice(3, 5), slice(5, 7)]
    model = _models(3)["warped"]
    points = _points(model, 7)
    pairs = list(batch_analyses(model, points))
    assert [sl for sl, _ in pairs] == batch_slices(7, 6 ** 4)
    analyses = [an for _, an in pairs]
    assert [len(an.x) for an in analyses] == [3, 2, 2]
    batched = np.concatenate([an.riemann for an in analyses])
    single = np.stack([PointAnalysis(model, p).riemann for p in points])
    assert _close(batched, single)


def test_slices_are_balanced():
    """At the fewest slices that keep every slice within BATCH_ELEMENTS,
    consecutive slices cover the points once and their sizes differ by at
    most one: a 24-node flow panel at d = 14, one node over budget, goes
    in 12 + 12 (was 23 + 1), and the 6 complex Bianchi points at d = 14 in
    3 + 3."""
    for count in range(0, 40):
        for per_point in (1, 6 ** 4, 14 ** 3, 4 * 14 ** 3, 10 ** 4, 14 ** 4, 20 ** 4):
            slices = batch_slices(count, per_point)
            cap = max(1, curvature.BATCH_ELEMENTS // per_point)
            sizes = [sl.stop - sl.start for sl in slices]
            assert [sl.start for sl in slices] == [sum(sizes[:k]) for k in range(len(sizes))]
            assert sum(sizes) == count and len(slices) == -(-count // cap)
            assert all(0 < size <= cap for size in sizes)
            assert max(sizes, default=0) - min(sizes, default=0) <= 1
    assert batch_slices(24, 14 ** 3) == [slice(0, 12), slice(12, 24)]
    assert batch_slices(6, 4 * 14 ** 3) == [slice(0, 3), slice(3, 6)]


def _family_cases(n, name, count=5):
    model = _models(n)[name]
    points = _points(model, count, seed=11)
    return model, points, PointAnalysis(model, points)


def _assert_per_point(batched, singles, label):
    if isinstance(batched, dict):
        for key in batched:
            _assert_per_point(batched[key], [s[key] for s in singles], f"{label}/{key}")
        return
    assert _close(batched, np.array(singles)), label


@pytest.mark.parametrize("n", [3, 5])
def test_warped_families_match_single_points(n):
    model, points, batch = _family_cases(n, "warped")
    singles = [PointAnalysis(model, p) for p in points]
    d, nz = model.dim, model.base.dim
    rng = np.random.default_rng(5)
    draws = rng.standard_normal((len(points), 30, d))
    moves = rng.standard_normal((len(points), 2, nz))
    phis = rng.uniform(0.0, 2.0 * np.pi, len(points))

    fit = fit_qch_coefficients(batch)
    fits = [fit_qch_coefficients(an) for an in singles]
    for field in ("a", "b", "c"):
        _assert_per_point(getattr(fit, field), [getattr(f, field) for f in fits], field)
    rs = ricci_split(batch, fit, model.n)
    rss = [ricci_split(an, f, model.n) for an, f in zip(singles, fits)]
    for field in ("lam_engine", "mu_engine", "lam_formula", "mu_formula", "off_block_max",
                  "e_block_deviation"):
        _assert_per_point(getattr(rs, field), [getattr(r, field) for r in rss], field)
    for batched, per_point in (
            (section_divergences(batch, model),
             [section_divergences(an, model) for an in singles]),
            (section_divergences(batch, model, (np.cos(phis), np.sin(phis))),
             [section_divergences(an, model, (np.cos(phi), np.sin(phi)))
              for an, phi in zip(singles, phis)])):
        for k in range(2):
            _assert_per_point(batched[k], [p[k] for p in per_point], "section_divergences")
    _assert_per_point(coefficient_base_independence(model, points, coefficient_a(batch),
                                                    draws=moves),
                      [coefficient_base_independence(model, p, coefficient_a(an), draws=m)
                       for p, an, m in zip(points, singles, moves)], "base_independence")
    _assert_per_point(structure_identities(batch, model),
                      [structure_identities(an, model) for an in singles],
                      "structure_identities")
    _assert_per_point(warped_submersion_residuals(batch, model),
                      [warped_submersion_residuals(an, model) for an in singles],
                      "submersion")
    # the batched deviations along (points, 30, d) draws are each point's along its rows
    _assert_per_point(qch_residual_samples(batch, fit, draws),
                      [qch_residual_samples(an, f, w) for an, f, w in zip(singles, fits, draws)],
                      "residual_samples")


@pytest.mark.parametrize("name", ["warped", "perturbed", "product-mode", "base-product"])
def test_invariant_families_match_single_points(name):
    model, points, batch = _family_cases(3, name)
    singles = [PointAnalysis(model, p) for p in points]
    def parallel_j(an):
        return max_frame_component_3tensor(nabla_j(an), an.frame, an.g)

    _assert_per_point(parallel_j(batch), [parallel_j(an) for an in singles], "nabla_j")
    _assert_per_point(_kahler_form_closedness(batch),
                      [_kahler_form_closedness(an) for an in singles], "kahler_form")
    if hasattr(model, "s") and model.s != 0.0:
        batched = _connection_form_residuals(model, batch)
        per_point = [_connection_form_residuals(model, an) for an in singles]
        for k in range(2):
            _assert_per_point(batched[k], [p[k] for p in per_point], "connection_form")
    dirs = np.random.default_rng(4).standard_normal((len(points), 3, model.dim))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    _assert_per_point(second_bianchi_residual(model, batch.x, dirs),
                      [second_bianchi_residual(model, p, v) for p, v in zip(points, dirs)],
                      "second_bianchi")


@pytest.mark.parametrize("n", [3, 5])
def test_circle_bundle_family_matches_single_points(n):
    model, points, batch = _family_cases(n, "circle-bundle")
    mu0 = np.linspace(3.0, 4.0, len(points))
    _assert_per_point(circle_bundle_residuals(batch, model, mu0),
                      [circle_bundle_residuals(PointAnalysis(model, p), model, m)
                       for p, m in zip(points, mu0)], "circle_bundle")
