"""Model jets against central differences of their own values.

Every model assembles its metric (and, where it has one, its complex
structure) as one array jet.  Gradients and Hessians must match central
differences of the assembled values, with the bounds of acceptance check c09:
gradient within 1e-6 and Hessian within 1e-4, relative.
"""

import functools

import numpy as np
import pytest

from qchgeom import (
    BundleParams,
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom.geometry import BaseChartMetric
from qchgeom.jets import seed_chart

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
        builders += [model.connection_potential_jets, model.kahler_form_jets]
    for build in builders:
        gerr, herr = _fd_errors(build, x)
        assert gerr < 1e-6, f"{name} n={n} {build.__name__}: gradient error {gerr:.2e}"
        assert herr < 1e-4, f"{name} n={n} {build.__name__}: Hessian error {herr:.2e}"
