"""Checks that no other test names, each shown to fail under a perturbation
that breaks the property it certifies, and to pass without it, on the n = 3
warped desk or the n = 3 circle bundle at 10 points."""

from functools import cached_property

import numpy as np
import pytest

from qchgeom import suite
from qchgeom.cli import RunConfig
from qchgeom.curvature import PointAnalysis
from qchgeom.geometry import CircleBundleMetric, FubiniStudy, ProductBase, WarpedBundleMetric
from qchgeom.profile import ProfileSolution
from qchgeom.suite import run_suite


def _verdicts(**overrides):
    """{check name: passed} of the n = 3 warped run at 10 points, or of the
    mode the overrides name."""
    report = run_suite(RunConfig.from_dict(
        {"mode": "warped", "n": 3, "k": 1, "rng_seed": 42, "sample_count": 10, **overrides}))
    return {c.name: c.passed for c in report.checks}


@pytest.fixture(scope="module")
def unperturbed():
    return _verdicts()


@pytest.fixture(scope="module")
def scaled_warp():
    """The run with f scaled by 1.05, no longer Kaehler."""
    return _verdicts(perturb_f=1.05)


@pytest.fixture(scope="module")
def scaled_r_second_derivative():
    """The run with r'' scaled by 1 + 1e-6 wherever the profile is evaluated."""
    evaluate = ProfileSolution.evaluate

    def scaled(self, t):
        r, rp, rpp, rppp = evaluate(self, t)
        return r, rp, (1.0 + 1e-6) * rpp, rppp

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProfileSolution, "evaluate", scaled)
        return _verdicts()


@pytest.mark.parametrize("perturbed,check", [
    ("scaled_warp", "qch_coefficient_a"),
    ("scaled_warp", "ricci_lambda"),
    ("scaled_warp", "ricci_mu"),
    ("scaled_r_second_derivative", "profile_boundary"),
    ("scaled_r_second_derivative", "decay_norm_tracks_warp"),
])
def test_closed_forms_see_a_perturbed_profile(unperturbed, request, perturbed, check):
    """The closed forms in r and f fail once the warp leaves the solved
    profile: a = c0/r^2 - 4 r'^2/r^2 and the Ricci eigenvalues against the
    fit once f is scaled, the endpoint slopes of f and |C| = f along the
    flow once r'' is."""
    assert unperturbed[check]
    assert not request.getfixturevalue(perturbed)[check]


def test_theta_derivative_sees_a_scaled_kaehler_form(unperturbed, monkeypatch):
    """d theta = s Omega: an Omega scaled by 1 + 1e-6 no longer matches the
    d theta read off the metric."""
    connection_forms = WarpedBundleMetric.connection_forms

    def scaled(self, z):
        sigma, omega = connection_forms(self, z)
        return sigma, (1.0 + 1e-6) * omega

    monkeypatch.setattr(WarpedBundleMetric, "connection_forms", scaled)
    assert unperturbed["theta_derivative"]
    assert not _verdicts()["theta_derivative"]


def test_theta_normalization_sees_a_t_psi_cross_term(unperturbed, monkeypatch):
    """g(H, xi) = g_{t psi} = 0: a metric with 1e-6 in that entry fails it."""
    metric_jets = WarpedBundleMetric.metric_jets

    def tilted(self, coords):
        g = metric_jets(self, coords)
        g.value[..., 0, 1] += 1e-6
        g.value[..., 1, 0] += 1e-6
        return g

    monkeypatch.setattr(WarpedBundleMetric, "metric_jets", tilted)
    assert unperturbed["theta_normalization"]
    assert not _verdicts()["theta_normalization"]


def test_principal_section_sees_a_rotated_section(unperturbed, monkeypatch):
    """div_E(JH) = 0: with every section c1 H + c2 JH rotated by 1e-6 in D,
    the section read as JH has a divergence of order 1e-6 kappa."""
    section_jets = WarpedBundleMetric.section_jets
    cos, sin = np.cos(1e-6), np.sin(1e-6)

    def rotated(self, coords, c1, c2):
        return section_jets(self, coords, cos * c1 - sin * c2, sin * c1 + cos * c2)

    monkeypatch.setattr(WarpedBundleMetric, "section_jets", rotated)
    assert unperturbed["principal_section"]
    assert not _verdicts()["principal_section"]


def test_base_independence_sees_a_tilted_base(unperturbed, monkeypatch):
    """The coefficients depend on t alone: a base metric h (1 + 1e-6 u_1),
    which varies along the base, moves a between nearby base points."""
    metric_jets = FubiniStudy.metric_jets

    def tilted(self, z):
        return metric_jets(self, z) * (1.0 + 1e-6 * z[..., 0, None, None])

    monkeypatch.setattr(FubiniStudy, "metric_jets", tilted)
    assert unperturbed["qch_coefficient_base_independence"]
    assert not _verdicts()["qch_coefficient_base_independence"]


def test_frame_orthonormality_sees_a_scaled_row(unperturbed, monkeypatch):
    """A frame row scaled by 1 + 1e-6 is no longer g-unit."""
    frame_at = WarpedBundleMetric.frame_at

    def stretched(self, x, g_values):
        rows = frame_at(self, x, g_values)
        rows[..., -1, :] *= 1.0 + 1e-6
        return rows

    monkeypatch.setattr(WarpedBundleMetric, "frame_at", stretched)
    assert unperturbed["frame_orthonormality"]
    assert not _verdicts()["frame_orthonormality"]


def _twisted_gamma(gamma):
    """A constant antisymmetric twist of 1e-6 max|Gamma| in the (1, 2) pair of
    Gamma^0: smooth along the decay flow, so its panels still certify."""
    twist = 1e-6 * np.abs(gamma).max()
    out = gamma.copy()
    out[..., 0, 1, 2] += twist
    out[..., 0, 2, 1] -= twist
    return out


_NOISE = np.random.default_rng(16)


def _noisy(values):
    """values with relative noise of 1e-6 in every entry."""
    return values * (1.0 + 1e-6 * _NOISE.standard_normal(values.shape))


def _off_block_ricci(rho):
    """rho + 1e-6 max|rho| (dt x du_1 + du_1 x dt), symmetric, coupling
    H = d/dt of D to the first base direction of E."""
    bump = 1e-6 * np.abs(rho).max()
    out = rho.copy()
    out[..., 0, 2] += bump
    out[..., 2, 0] += bump
    return out


def _scaled_j(structure):
    values, grads = structure
    return (1.0 + 1e-6) * values, grads


@pytest.mark.parametrize("check,attribute,mutate", [
    ("christoffel_symmetry", "gamma", _twisted_gamma),
    ("curvature_pair_symmetry", "riemann", _noisy),
    ("curvature_antisymmetry", "riemann", _noisy),
    ("bianchi_first", "riemann", _noisy),
    ("ricci_symmetry", "ricci", _noisy),
    ("ricci_off_block", "ricci", _off_block_ricci),
    ("complex_structure_involution", "complex_structure", _scaled_j),
    ("hermitian_metric", "complex_structure", _scaled_j),
])
def test_engine_identities_see_a_mutated_analysis(unperturbed, monkeypatch, check, attribute,
                                                   mutate):
    """The identities that hold for every metric, and rho(D, E) = 0, fail
    once the engine's Gamma, R, Ricci or J is mutated in ``PointAnalysis``."""
    compute = getattr(PointAnalysis, attribute).func
    mutated = cached_property(lambda self: mutate(compute(self)))
    mutated.__set_name__(PointAnalysis, attribute)
    monkeypatch.setattr(PointAnalysis, attribute, mutated)
    assert unperturbed[check]
    assert not _verdicts()[check]


@pytest.fixture(scope="module")
def bundle_unperturbed():
    return _verdicts(mode="circle-bundle")


@pytest.fixture(scope="module")
def bundle_scaled_alpha():
    """The circle-bundle run with its metric built from alpha (1 + 1e-6),
    while the closed forms read the model's alpha."""
    metric_jets = CircleBundleMetric.metric_jets

    def scaled(self, coords):
        alpha = self.alpha
        self.alpha = alpha * (1.0 + 1e-6)
        try:
            return metric_jets(self, coords)
        finally:
            self.alpha = alpha

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CircleBundleMetric, "metric_jets", scaled)
        return _verdicts(mode="circle-bundle")


@pytest.mark.parametrize("check", [
    "bundle_fiber_sectional",
    "bundle_horizontal_ricci",
    "bundle_twist_operator",
    "bundle_fiber_ricci",
    "bundle_mixed_fiber_curvature",
])
def test_bundle_closed_forms_see_a_scaled_fiber(bundle_unperturbed, bundle_scaled_alpha, check):
    """The closed forms in alpha fail once the metric's fiber length leaves
    the model's alpha by 1e-6.  ``bundle_vertizontal`` holds for every
    metric of this form, so no model perturbation fails it."""
    assert bundle_unperturbed[check]
    assert not bundle_scaled_alpha[check]


def test_base_einstein_sees_an_unequal_product_base(bundle_unperturbed, monkeypatch):
    """CP^1(c0) x CP^1(1.001 c0), the n = 3 base with its factors' curvatures
    apart, is not Einstein: rho_0 = mu_0 h fails."""
    monkeypatch.setattr(suite, "FubiniStudy", lambda m, c0: ProductBase(
        [FubiniStudy(1, c0), FubiniStudy(1, 1.001 * c0)]))
    assert bundle_unperturbed["base_einstein"]
    assert not _verdicts(mode="circle-bundle")["base_einstein"]
