"""Checks that no other test names, each shown to fail under a perturbation
that breaks the property it certifies, and to pass without it, on the n = 3
warped desk or the n = 3 circle bundle at 10 points; and the rule that every
check in ``suite.CHECKS`` is named by another test or has a case here."""

import json
import re
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from qchgeom import flows, qch, suite
from qchgeom.cli import RunConfig, main
from qchgeom.curvature import PointAnalysis
from qchgeom.geometry import (
    BundleJet,
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
)
from qchgeom.profile import ProfileSolution
from qchgeom.suite import CHECKS, run_suite

from helpers import PerturbedProfile


def bites(*checks):
    """Record on a case the checks it shows failing, for the rule at the end;
    a parametrized case records them through its ``check`` argument."""
    def mark(test):
        test.checks = checks
        return test
    return mark


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


@bites("theta_derivative")
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


@bites("theta_normalization")
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


@bites("principal_section")
def test_principal_section_sees_a_rotated_section(unperturbed, monkeypatch):
    """div_E(JH) = 0: with the pair (H, JH) rotated by 1e-6 in D, the
    section read as JH has a divergence of order 1e-6 kappa."""
    section_jets = WarpedBundleMetric.section_jets
    cos, sin = np.cos(1e-6), np.sin(1e-6)

    def rotated(self, coords):
        H, JH = section_jets(self, coords)
        return H * cos + JH * sin, JH * cos - H * sin

    monkeypatch.setattr(WarpedBundleMetric, "section_jets", rotated)
    assert unperturbed["principal_section"]
    assert not _verdicts()["principal_section"]


@bites("qch_coefficient_base_independence")
def test_base_independence_sees_a_tilted_base(unperturbed, monkeypatch):
    """The coefficients depend on t alone: a base metric h (1 + 1e-6 u_1),
    which varies along the base, moves a between nearby base points.  The
    tilted h is a dense jet (a jet product), so the moved points read it
    through its own Hessian (``Jet2.hessian_along``), the route a dense part
    takes, in their batched directional analyses."""
    metric_jets = FubiniStudy.metric_jets

    def tilted(self, z):
        return metric_jets(self, z) * (1.0 + 1e-6 * z[..., 0, None, None])

    monkeypatch.setattr(FubiniStudy, "metric_jets", tilted)
    assert unperturbed["qch_coefficient_base_independence"]
    assert not _verdicts()["qch_coefficient_base_independence"]


@bites("frame_orthonormality")
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


def _mutate_analysis(monkeypatch, attribute, mutate):
    """Every ``PointAnalysis`` hands out ``mutate`` of its cached ``attribute``."""
    compute = getattr(PointAnalysis, attribute).func
    mutated = cached_property(lambda self: mutate(compute(self)))
    mutated.__set_name__(PointAnalysis, attribute)
    monkeypatch.setattr(PointAnalysis, attribute, mutated)


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
    _mutate_analysis(monkeypatch, attribute, mutate)
    assert unperturbed[check]
    assert not _verdicts()[check]


@bites("bianchi_second_spot")
def test_second_bianchi_sees_a_noisy_hessian_at_complex_steps(unperturbed, monkeypatch):
    """The cyclic sum reads R(X, Y, ., .) from the metric Hessian along its
    directions (``BundleJet.hessian_along``, one read for X, Y, GX and GY)
    at complex points x + i h V, its imaginary part carrying the third
    derivatives: relative noise of 1e-6 on those contractions, at complex
    points only, breaks the sum (3.1e-6 against 1e-6, 7.4e-16 unperturbed;
    over noise seeds 0-7 it read 3.0e-6 to 5.1e-6, so the noise here has a
    seed of its own)."""
    noise = np.random.default_rng(0)
    along = BundleJet.hessian_along

    def noisy_at_complex_points(self, v):
        out = along(self, v)
        if not np.iscomplexobj(out):
            return out
        return out * (1.0 + 1e-6 * noise.standard_normal(out.shape))

    monkeypatch.setattr(BundleJet, "hessian_along", noisy_at_complex_points)
    assert unperturbed["bianchi_second_spot"]
    assert not _verdicts()["bianchi_second_spot"]


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
    metric of this form, so no model perturbation fails it (its case mutates
    the engine instead)."""
    assert bundle_unperturbed[check]
    assert not bundle_scaled_alpha[check]


@bites("base_einstein")
def test_base_einstein_sees_an_unequal_product_base(bundle_unperturbed, monkeypatch):
    """CP^1(c0) x CP^1(1.001 c0), the n = 3 base with its factors' curvatures
    apart, is not Einstein: rho_0 = mu_0 h fails."""
    monkeypatch.setattr(suite, "FubiniStudy", lambda m, c0: ProductBase(
        [FubiniStudy(1, c0), FubiniStudy(1, 1.001 * c0)]))
    assert bundle_unperturbed["base_einstein"]
    assert not _verdicts(mode="circle-bundle")["base_einstein"]


@bites("bundle_vertizontal")
def test_bundle_vertizontal_sees_a_shifted_fiber_row(bundle_unperturbed, monkeypatch):
    """The xi-coefficient of nabla_E F against g(E, TF)/alpha^2: with
    1e-6 max|Gamma| added to every entry of Gamma^xi (index 0), the
    xi-coefficients of the lifts' derivatives no longer match the twist."""
    def shifted(gamma):
        out = gamma.copy()
        out[..., 0, :, :] += 1e-6 * np.abs(gamma).max()
        return out

    _mutate_analysis(monkeypatch, "gamma", shifted)
    assert bundle_unperturbed["bundle_vertizontal"]
    assert not _verdicts(mode="circle-bundle")["bundle_vertizontal"]


@bites("kappa_section_independence")
def test_kappa_section_independence_sees_an_affine_divergence(unperturbed, monkeypatch):
    """kappa = |(div_E X, div_E JX)| is the same for every unit section X of D
    only while div_E is linear in X: div_E + 1e-6 moves it by up to 1e-6
    between two sections."""
    div_e = qch.div_e
    monkeypatch.setattr(qch, "div_e", lambda *args: div_e(*args) + 1e-6)
    assert unperturbed["kappa_section_independence"]
    assert not _verdicts()["kappa_section_independence"]


@bites("decay_velocity_inner")
def test_decay_velocity_inner_sees_a_tilted_start(unperturbed, monkeypatch):
    """g(cdot, C) is parallel-constant along the flow, so C(0) tilted toward
    cdot by 1e-6 carries g(cdot, C) = 1e-6 all the way."""
    integrate = flows.integrate_jacobi

    def tilted(path, C0, DC0):
        C0 = C0.copy()
        C0[0] += 1e-6
        return integrate(path, C0, DC0)

    monkeypatch.setattr(flows, "integrate_jacobi", tilted)
    assert unperturbed["decay_velocity_inner"]
    assert not _verdicts()["decay_velocity_inner"]


@bites("decay_ratio_law")
def test_decay_ratio_law_sees_scaled_jacobi_coefficients(unperturbed, monkeypatch):
    """The Jacobi solve reads K = R(cdot, ., cdot, .) from the metric's parts
    (``curvature.jacobi_operator``); with that K scaled by 1 + 1e-7 at every
    node the panels still certify, and |C| still tracks f (2.6e-7 against
    1e-6), but the ratio law, which differentiates log |C| into the
    collapsing end, reads 1.3e-2 against 1e-6 (5.4e-12 unperturbed)."""
    jacobi_operator = flows.jacobi_operator
    monkeypatch.setattr(flows, "jacobi_operator",
                        lambda analysis, v: (1.0 + 1e-7) * jacobi_operator(analysis, v))
    verdicts = _verdicts()
    assert unperturbed["decay_ratio_law"]
    assert not verdicts["decay_ratio_law"]
    assert verdicts["decay_norm_tracks_warp"]


@bites("decay_collapse")
def test_decay_collapse_sees_a_flow_ending_short(unperturbed, monkeypatch):
    """|C| = f collapses only near t = L: a flow ending at 0.6 L keeps |C|
    far above 1e-2 of its start."""
    experiment = suite.jacobi_decay_experiment

    def short(model, t0, t_end, **kwargs):
        return experiment(model, t0, 0.6 * model.profile.L, **kwargs)

    monkeypatch.setattr(suite, "jacobi_decay_experiment", short)
    assert unperturbed["decay_collapse"]
    assert not _verdicts()["decay_collapse"]


@bites("geodesic_residual")
def test_geodesic_residual_sees_a_pushed_flow(unperturbed, monkeypatch):
    """nabla_cdot cdot = 0: the geodesic panels solved with 1e-6 cdot added to
    their acceleration, while ``geodesic_residuals`` reads the true one.
    (Gamma scaled by 1 + 1e-6 would not bite: Gamma(e_t, e_t) = 0 exactly on
    the axis the flow follows.)"""
    panel, acceleration = flows._geodesic_panel, flows.geodesic_acceleration

    def pushed_panel(field, a, b, start):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flows, "geodesic_acceleration",
                          lambda analysis, v: acceleration(analysis, v) + 1e-6 * v)
            return panel(field, a, b, start)

    monkeypatch.setattr(flows, "_geodesic_panel", pushed_panel)
    assert unperturbed["geodesic_residual"]
    assert not _verdicts()["geodesic_residual"]


@bites("profile_first_integral")
def test_only_the_first_integral_sees_a_profile_off_the_cubic(unperturbed, profile,
                                                             monkeypatch):
    """Kaehler and QCH hold for every admissible warp with f = 2 r r'/s, not
    only for the cubic's: with r + 1e-3 (y - x) sin^4(pi t/L) in place of the
    solved profile every check stays in order but ``profile_first_integral``,
    which reads r'^2 = P(r) off the profile, not off g.  The perturbation's
    derivatives are checked against the complex step first."""
    perturbed = PerturbedProfile(profile, 1e-3)
    t = np.linspace(0.1, 0.9, 5) * profile.L
    values = perturbed.evaluate(t)
    stepped = perturbed.evaluate(t + 1e-30j)
    for k in range(3):
        assert np.allclose(stepped[k].imag / 1e-30, values[k + 1], rtol=1e-12, atol=1e-12)

    solve = suite.solve_profile
    monkeypatch.setattr(suite, "solve_profile",
                        lambda poly: PerturbedProfile(solve(poly), 1e-3))
    report = run_suite(RunConfig.from_dict(
        {"mode": "warped", "n": 3, "k": 1, "rng_seed": 42, "sample_count": 10}))
    assert unperturbed["profile_first_integral"]
    assert [c.name for c in report.checks if not c.in_order] == ["profile_first_integral"]


@bites("metric_positive_definite")
@pytest.mark.parametrize("factor,error", [
    (2.0, "Gram matrix is not positive definite"),
    (1.0 + 1e-6, "holomorphic sectional curvature of a null vector"),
], ids=["frame-cholesky", "null-probe"])
def test_indefinite_metric_ends_the_run_with_exit_3(unperturbed, tmp_path, monkeypatch, capsys,
                                                    factor, error):
    """``metric_positive_definite`` cannot fail in a run: g - factor lambda_min
    v v^T, indefinite for a factor above 1, stops the run before any check
    reduces, in the frame's Cholesky factor or at a null probe of the fit, so
    ``verify`` exits 3 and writes no report."""
    def indefinite(self):
        g = self.metric.value
        lam, vecs = np.linalg.eigh(g)
        v = vecs[..., :, 0]
        return g - factor * lam[..., 0, None, None] * v[..., :, None] * v[..., None, :]

    monkeypatch.setattr(PointAnalysis, "g", property(indefinite))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "warped", "n": 3, "k": 1, "rng_seed": 42,
                               "sample_count": 10}))
    assert unperturbed["metric_positive_definite"]
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert error in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def _cases() -> set[str]:
    """The checks the cases of this module show failing: through ``bites``
    or a parametrized ``check`` argument."""
    found = set()
    for test in (v for k, v in globals().items() if k.startswith("test_")):
        found.update(getattr(test, "checks", ()))
        for mark in getattr(test, "pytestmark", ()):
            names = [a.strip() for a in mark.args[0].split(",")]
            if mark.name == "parametrize" and "check" in names:
                at = names.index("check")
                found.update(v[at] if len(names) > 1 else v for v in mark.args[1])
    return found


def test_every_check_has_a_case():
    """Each name in ``suite.CHECKS`` is named as a whole word in another test
    module, or a case here shows it failing: a check added without either
    fails this test."""
    here = Path(__file__)
    elsewhere = " ".join(p.read_text() for p in here.parent.glob("test_*.py") if p != here)
    named = {name for name in CHECKS if re.search(rf"\b{name}\b", elsewhere)}
    assert sorted(set(CHECKS) - named - _cases()) == []
