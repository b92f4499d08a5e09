"""Assembly of the verification suite: named checks, tolerances, reports.

Each check verifies one stated property of the constructed metrics at a set
of randomly sampled interior chart points (or of the solved profile / the
flow experiment) and records its worst residual against a tolerance, and the
number of residuals that is the worst of.  The check marked ``expected_fail``
is the quasi-constancy negative control: the suite counts it as in order
exactly when it fails decisively (median residual above its discrimination
floor).

``CHECKS`` holds each check's tolerance and claim.  ``build_model`` returns
the model of a configuration in any mode.  ``run_suite`` builds it, draws the
sample points and then, in one block and in the seed's order, every other
random number of the run.  It walks the points once, in memory-bounded
slices (``curvature.batch_analyses``): at each slice it takes one
``PointAnalysis`` and runs every check family of its mode on it, each adding
its residuals under each check's name (one per point, or one per random
probe of the QCH fit), and drops the analysis before the next slice.  Every
mode but the circle bundle fits (a, b, c) once per slice and scores the fit
along its probes; the negative control's median reads those same scores.  The
checks of the whole run (the profile, the base independence at every
point's base moves, the second Bianchi spot check, the decay flow) run once,
after the slices, and add one residual per sample they take; the moves and
the Bianchi points are read along directions alone, in batched directional
analyses.  One place, ``_Residuals``, then reduces every check's residuals
with ``np.max``, so a NaN residual at any sample fails its check, and counts
them: no check's ``samples`` is declared.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .batch import each, max_abs, mT
from .curvature import (
    PointAnalysis,
    batch_analyses,
    contract_slots,
    max_frame_component_3tensor,
    nabla_j,
    second_bianchi_residual,
)
from .flows import jacobi_decay_experiment
from .geometry import (
    END_MARGIN_FRAC,
    BaseChartMetric,
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
    exterior_derivative_1form,
    exterior_derivative_2form,
)
from .profile import boundary_report, build_polynomial, solve_profile
from .qch import (
    circle_bundle_residuals,
    coefficient_a,
    coefficient_base_independence,
    fit_qch_coefficients,
    qch_residual_samples,
    ricci_split,
    section_divergences,
    structure_identity_residuals,
    warped_submersion_residuals,
)

# each check's tolerance and the claim it verifies
CHECKS: dict[str, tuple[float, str]] = {
    "base_einstein": (1e-8, "the base metric is Einstein: rho_0 = mu_0 h"),
    "bianchi_first": (1e-9, "R_ijkl + R_jkil + R_kijl = 0"),
    "bianchi_second_spot": (
        1e-6, "cyclic sum of covariant curvature derivatives vanishes (spot check)"),
    "bundle_fiber_ricci": (1e-7, "rho(xi/alpha, xi/alpha) = s^2 alpha^2 (2m)/(4 beta^4)"),
    "bundle_fiber_sectional": (1e-7, "K(E, xi) = s^2 alpha^2/(4 beta^4)"),
    "bundle_horizontal_ricci": (1e-7, "mu = mu_0/beta^2 - s^2 alpha^2/(2 beta^4)"),
    "bundle_mixed_fiber_curvature": (
        1e-7, "R(X, xi, Y, xi) = -(s^2 alpha^4/(4 beta^4)) g(X, Y)"),
    "bundle_twist_operator": (1e-7, "nabla_E xi = (alpha^2 s/(2 beta^2)) J~E"),
    "bundle_vertizontal": (1e-7, "xi-component of nabla_E F equals g(E, TF)/alpha^2"),
    "christoffel_symmetry": (1e-14, "Gamma^k_ij = Gamma^k_ji (torsion-free connection)"),
    "complex_structure_involution": (1e-12, "J o J = -identity"),
    "connection_form_derivative": (1e-8, "d sigma equals the base Kaehler form Omega"),
    "curvature_antisymmetry": (1e-9, "R antisymmetric in its first and last index pairs"),
    "curvature_kahler_type": (1e-8, "R(JX, JY, Z, W) = R(X, Y, Z, W)"),
    "curvature_pair_symmetry": (1e-9, "R_ijkl = R_klij"),
    "decay_collapse": (1e-2, "|C| collapses below 1e-2 of its start value near t = L"),
    "decay_norm_tracks_warp": (1e-6, "|C(t)| = f(t) along the axial geodesic"),
    "decay_ratio_law": (1e-6, "d/dt log(kappa/|C|) = -kappa theta(c')/(n-1)"),
    "decay_velocity_inner": (1e-8, "g(c', C) stays at zero"),
    "frame_orthonormality": (1e-10, "frame (H, JH, E_a) is g-orthonormal after Gram-Schmidt"),
    "geodesic_residual": (1e-8, "nabla_c' c' = 0 along the flow"),
    "hermitian_metric": (1e-10, "g(JX, JY) = g(X, Y)"),
    "identity_eps_forms": (1e-8, "the forms eps and eps* vanish"),
    "identity_gradient_a": (1e-6, "da = b kappa/(2(n-1)) theta"),
    "identity_gradient_b": (1e-6, "db = (b + 4c) kappa/(n-1) theta"),
    "identity_log_kappa_gradient": (1e-7, "d log kappa = -(kappa/(n-1) + p*) theta"),
    "identity_nabla_theta": (1e-7, "nabla theta = kappa/(2(n-1)) m - p* Jtheta x Jtheta"),
    "identity_p": (1e-8, "p = g(nabla_xi xi, J xi) = 0"),
    "identity_p_star": (1e-7, "p* = -f'/f"),
    "kahler_form_closed": (1e-8, "d Omega = 0 for Omega(X, Y) = g(JX, Y)"),
    "kappa_closed_form": (1e-7, "kappa = 2 (n-1) r'/r"),
    "kappa_section_independence": (
        1e-10, "kappa is independent of the chosen unit section of D"),
    "kappa_vanishes": (1e-10, "kappa = 0 everywhere in product mode"),
    "metric_positive_definite": (
        1e-30, "assembled metric is positive definite at interior points"),
    "nabla_j": (1e-7, "nabla J = 0 (the structure is parallel)"),
    "potential_hessian": (1e-7, "Hess(r^2/s) restricted to E equals f kappa/(2(n-1)) m"),
    "potential_killing": (1e-7, "J grad(r^2/s) is a Killing field"),
    "principal_section": (1e-9, "div_E(JH) = 0, so H is the principal section"),
    "profile_boundary": (1e-7, "f'(0) = 1 and f'(L) = -1 at the solved endpoints"),
    "profile_constraints": (1e-12, "P(x) = P(y) = 0 and x P'(x) = s, y P'(y) = -s"),
    "profile_first_integral": (1e-8, "r'^2 = P(r) along the solution"),
    "profile_length_agreement": (
        1e-6, "first-passage length agrees with the quadrature length"),
    "qch_coefficient_a": (1e-7, "a = c0/r^2 - 4 r'^2/r^2"),
    "qch_coefficient_base_independence": (1e-8, "fitted coefficients depend on t only"),
    "qch_fit_residual": (
        1e-7, "R(X,JX,JX,X) = a + b |X_D|^2 + c |X_D|^4 on unit vectors"),
    "ricci_e_block": (1e-8, "rho|_E = lambda m"),
    "ricci_j_invariance": (1e-8, "rho(JX, JY) = rho(X, Y)"),
    "ricci_lambda": (1e-7, "lambda = (n+1)/2 a + b/4"),
    "ricci_mu": (1e-7, "mu = (n+1)/2 a + (n+3)/4 b + c"),
    "ricci_off_block": (1e-8, "rho(D, E) = 0"),
    "ricci_symmetry": (1e-9, "Ricci tensor is symmetric"),
    "submersion_degenerate": (1e-7, "R(X, Y, Z, V) = 0 for X, Y, Z in D, V in E"),
    "submersion_fiber_t": (1e-8, "T(xi, xi) = -f f' H"),
    "submersion_horizontal_t": (1e-7, "T(U, U) = -r r' H for base-unit horizontal U"),
    "submersion_mixed_curvature": (
        1e-7, "R(JH, U, U, JH) = s^2 f^2/(4 r^4) - f' r'/(f r)"),
    "submersion_twist": (1e-7, "g(nabla_E F, xi) = (s f^2/(2 r^2)) g(E, J~F)"),
    "theta_derivative": (1e-8, "d theta = s Omega (pulled back)"),
    "theta_normalization": (1e-12, "theta(xi) = 1 and g(H, xi) = 0"),
    "totally_geodesic_d": (1e-8, "p_E(nabla_X Y) = 0 for X, Y spanning D"),
}

# sample points at which the second Bianchi spot check runs
BIANCHI2_POINTS = 2
# share of [0, L] kept clear of sample points at each end of the warped chart
SAMPLE_MARGIN = 0.05
# sampled base points lie within this radius of the affine chart's origin
Z_RADIUS = 1.5
# the median residual the quasi-constancy control must exceed to fail decisively
NEGATIVE_CONTROL_FLOOR = 1e-2


@dataclass
class CheckResult:
    """One verified property with its worst observed residual."""

    name: str
    claim: str
    max_residual: float
    tolerance: float
    samples: int
    expected_fail: bool = False
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tolerance

    @property
    def in_order(self) -> bool:
        """Whether the suite counts this check as healthy."""
        if not self.expected_fail:
            return self.passed
        return (not self.passed
                and self.details["median_residual"] > self.details["discrimination_floor"])

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "max_residual": float(self.max_residual),
            "tolerance": float(self.tolerance),
            "samples": int(self.samples),
            "pass": bool(self.passed),
            "expected_fail": bool(self.expected_fail),
            "in_order": bool(self.in_order),
            "details": {k: (float(v) if isinstance(v, (int, float, np.floating))
                            else v) for k, v in self.details.items()},
        }


@dataclass
class VerificationReport:
    """Deterministic record of one suite run."""

    mode: str
    seed: int
    config_echo: dict
    checks: list[CheckResult]

    @property
    def all_pass(self) -> bool:
        return all(c.in_order for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": "qchgeom-report-v1",
            "environment": {"seed": self.seed, "config": self.config_echo},
            "mode": self.mode,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "all_pass": self.all_pass,
        }


def sample_interior_points(model, rng: np.random.Generator, count: int) -> np.ndarray:
    """Random interior chart points (count, d), kept away from the collapsing
    ends and from the far region of the affine chart where conditioning
    degrades.  Each row draws z, then psi, then t on the warped chart, and
    keeps what the model's layout holds: (t, psi, z), (psi, z) or z."""
    points = np.zeros((count, model.dim))
    has_t = isinstance(model, WarpedBundleMetric)
    if has_t:
        L = model.profile.L
        lo, hi = SAMPLE_MARGIN * L, (1.0 - SAMPLE_MARGIN) * L
    nz = model.base.dim
    for row in points:
        z = rng.standard_normal(nz)
        z *= rng.uniform(0.1, 1.0) * Z_RADIUS / max(float(np.linalg.norm(z)), 1e-12)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        lead = [rng.uniform(lo, hi), psi] if has_t else [psi]
        row[:] = np.concatenate((lead, z))[-model.dim:]
    return points


class _Residuals:
    """Per-sample residuals keyed by check name, gathered over analysis slices.

    A check reports one sample per residual; ``controls`` holds the details
    of each negative control, a check the suite counts as in order when it
    fails.
    """

    def __init__(self):
        self._parts = defaultdict(list)
        self.controls: dict[str, dict] = {}

    def add(self, **residuals) -> None:
        for name, values in residuals.items():
            self._parts[name].append(np.ravel(values))

    def checks(self) -> list[CheckResult]:
        """One result per check: its largest residual over every sample, NaN if
        any is NaN (np.max propagates it, where max(0.0, nan) drops it), and
        the number of samples."""
        out = []
        for name, parts in self._parts.items():
            values = np.concatenate(parts)
            tolerance, claim = CHECKS[name]
            out.append(CheckResult(name, claim, float(np.max(values)), tolerance, len(values),
                                   expected_fail=name in self.controls,
                                   details=self.controls.get(name, {})))
        return out


def _kahler_form_closedness(analysis: PointAnalysis):
    """max |d Omega| for Omega_ij = g(J e_i, e_j) = (J^T g)_ij, from the first
    derivatives d_k(J^T g) = (d_k J)^T g + J^T d_k g of J and g."""
    J, dJ = analysis.complex_structure
    g, dg = analysis.g, analysis.metric.gradient
    # derivative axis in front of the matrix axes: [k, i, j]
    dJ, dg = np.moveaxis(dJ, -1, -3), np.moveaxis(dg, -1, -3)
    grads = mT(dJ) @ g[..., None, :, :] + mT(J)[..., None, :, :] @ dg
    return max_abs(exterior_derivative_2form(np.moveaxis(grads, -3, -1)), 3)


def _connection_form_residuals(model, analysis: PointAnalysis) -> tuple:
    """(max |d sigma - Omega|, max |d theta - s Omega|) at the point.

    sigma and Omega = h(J., .) come from the model's own evaluation at the
    analysed z-slice; theta is read off the assembled metric,
    theta_i = g(d_psi, e_i) / g(d_psi, d_psi), on both the warped and the
    bundle chart (psi sits just before the base block z).  So the second
    residual tests the pitch and cross terms the metric was built with.
    """
    d = model.dim
    off = d - model.base.dim
    sigma, omega = model.connection_forms(analysis.x[..., off:])
    grads = sigma.gradient[..., off:]
    res_sigma = max_abs(mT(grads) - grads - omega, 2)
    g = analysis.metric
    psi = off - 1
    target = np.zeros(omega.shape[:-2] + (d, d))
    target[..., off:, off:] = model.s * omega
    dtheta = exterior_derivative_1form(g[..., psi, :] / g[..., psi, psi, None])
    return res_sigma, max_abs(dtheta - target, 2)


def _metric_invariant_checks(res: _Residuals, model, an: PointAnalysis) -> None:
    g = an.g
    eye = np.eye(g.shape[-1])
    fr = an.frame
    gamma = an.gamma
    # theta(xi) = 1 and g(H, xi) = g(dt, dpsi) = 0 exactly on total charts
    theta = (np.abs(g[..., 0, 1]) if isinstance(model, WarpedBundleMetric)
             else np.zeros(g.shape[:-2]))
    res.add(metric_positive_definite=np.maximum(0.0, -np.linalg.eigvalsh(g).min(axis=-1)),
            frame_orthonormality=max_abs(fr @ g @ mT(fr) - eye, 2),
            christoffel_symmetry=max_abs(gamma - mT(gamma), 3),
            theta_normalization=theta)
    if an.complex_structure is not None:
        J = an.complex_structure[0]
        res.add(complex_structure_involution=max_abs(J @ J + eye, 2),
                hermitian_metric=max_abs(mT(J) @ g @ J - g, 2),
                kahler_form_closed=_kahler_form_closedness(an))
    if model.s != 0.0:
        ds, dt = _connection_form_residuals(model, an)
        res.add(connection_form_derivative=ds, theta_derivative=dt)


def _curvature_invariant_checks(res: _Residuals, an: PointAnalysis) -> None:
    R = an.riemann
    scale = np.maximum(max_abs(R, 4), 1e-30)

    def relative(x):
        return max_abs(x, 4) / scale

    rho = an.ricci
    res.add(curvature_antisymmetry=np.maximum(relative(R + np.swapaxes(R, -4, -3)),
                                              relative(R + np.swapaxes(R, -2, -1))),
            curvature_pair_symmetry=relative(R - np.moveaxis(R, (-2, -1), (-4, -3))),
            bianchi_first=relative(R + np.moveaxis(R, -2, -4) + np.moveaxis(R, -4, -2)),
            ricci_symmetry=max_abs(rho - mT(rho), 2))
    if an.complex_structure is not None:
        J = an.complex_structure[0]
        rj = np.moveaxis(contract_slots(R, mT(J), mT(J), rank=4), (-2, -1), (-4, -3))
        res.add(curvature_kahler_type=relative(rj - R),
                ricci_j_invariance=max_abs(mT(J) @ rho @ J - rho, 2))


def _profile_checks(res: _Residuals, profile, poly) -> None:
    rep = boundary_report(profile)
    res.add(profile_constraints=max(abs(poly(poly.x)), abs(poly(poly.y)),
                                    abs(poly.x * poly.deriv1(poly.x) - poly.s),
                                    abs(poly.y * poly.deriv1(poly.y) + poly.s)),
            profile_boundary=max(abs(rep["fp_start_minus_one"]), abs(rep["fp_end_plus_one"]),
                                 abs(rep["boundary_start"]), abs(rep["boundary_end"])),
            profile_first_integral=profile.first_integral_residuals(),
            profile_length_agreement=abs(profile.L - profile.quadrature_length))


def _warped_structure_checks(res: _Residuals, model, an: PointAnalysis, fit, rs,
                             divergences, phis) -> None:
    """The QCH structure at a slice, from the slice's ``fit``, Ricci split
    ``rs`` and section ``divergences``, with the section rotated by the
    angles ``phis``.  The slice's own points come first, then the complex
    step along t of the gradient laws, the order in which the model's memos
    hold one batch each."""
    r, rp, _, _ = model.profile_at(an.x[..., 0])
    c0 = model.base.c0
    d1, d2 = divergences
    d1r, d2r = section_divergences(an, model, (np.cos(phis), np.sin(phis)))
    res.add(qch_coefficient_a=np.abs(fit.a - (c0 / r ** 2 - 4.0 * rp ** 2 / r ** 2)),
            ricci_off_block=rs.off_block_max, ricci_e_block=rs.e_block_deviation,
            principal_section=np.abs(d2),  # div_E(JH) = 0 makes H the principal section
            kappa_section_independence=np.abs(np.hypot(d1r, d2r) - np.hypot(d1, d2)),
            **warped_submersion_residuals(an, model))
    res.add(**structure_identity_residuals(an, model, fit=fit, divergences=divergences))


def _nabla_j_check(res: _Residuals, an: PointAnalysis) -> None:
    res.add(nabla_j=max_frame_component_3tensor(nabla_j(an), an.frame, an.g))


def _decay_checks(res: _Residuals, model) -> None:
    L = model.profile.L
    rep = jacobi_decay_experiment(model, 0.2 * L, L * (1.0 - END_MARGIN_FRAC), samples=160)
    res.add(**rep.residuals())


def build_model(config):
    """The model of the configured mode: the circle bundle, or the warped
    chart over its solved profile (warped, product, negative-control)."""
    if config.mode == "circle-bundle":
        return CircleBundleMetric(config.alpha, config.beta, config.s,
                                  FubiniStudy(config.n - 1, config.c0))
    profile = solve_profile(build_polynomial(config.x, config.y, config.s))
    if config.mode == "negative-control":
        base = ProductBase([FubiniStudy(1, config.c0), FubiniStudy(1, config.c0)])
    else:
        base = FubiniStudy(config.n - 1, config.c0)
    return WarpedBundleMetric(profile, base, product_mode=(config.mode == "product"),
                              warp_scale=config.perturb_f)


def _circle_bundle_checks(res: _Residuals, model, an: PointAnalysis) -> None:
    ab = PointAnalysis(BaseChartMetric(model.base), an.x[..., 1:])
    fr = ab.frame
    rho_b = fr @ ab.ricci @ mT(fr)
    k = rho_b.shape[-1]
    mu0 = np.trace(rho_b, axis1=-2, axis2=-1) / k
    res.add(base_einstein=max_abs(rho_b - each(mu0) * np.eye(k), 2),
            **circle_bundle_residuals(an, model, mu0))


def _sample_checks(res: _Residuals, model, mode: str, points: np.ndarray, draws) -> None:
    """Every family of the mode at the sample points, one slice at a time:
    one analysis per slice, dropped before the next, and each family reads
    the slice's rows of the ``draws``.  Every QCH mode fits (a, b, c) once
    per slice and scores it along the slice's probes; the negative control
    keeps each point's median deviation, whose median over the run must
    exceed ``NEGATIVE_CONTROL_FLOOR``.  The warped mode keeps each point's
    coefficient a, and after the last slice compares it with a at every
    point's two base moves, all analysed together
    (``coefficient_base_independence``).  No analysis outlives the call, so
    the decay flow, which analyses its own points, runs without one."""
    medians, own_a = [], []
    for sl, an in batch_analyses(model, points):
        _metric_invariant_checks(res, model, an)
        _curvature_invariant_checks(res, an)
        if mode == "circle-bundle":
            _circle_bundle_checks(res, model, an)
            continue
        # with perturb_f != 1 this check fails decisively: that is a hard
        # failure mode (exit 1), not an annotated expected failure
        _nabla_j_check(res, an)
        fit = fit_qch_coefficients(an)
        deviations = qch_residual_samples(an, fit, draws[0][sl])
        res.add(qch_fit_residual=deviations)
        if mode == "negative-control":
            medians.append(np.median(deviations, axis=-1))
            continue
        rs = ricci_split(an, fit, model.n)
        divergences = section_divergences(an, model)
        res.add(ricci_lambda=np.abs(rs.lam_engine - rs.lam_formula),
                ricci_mu=np.abs(rs.mu_engine - rs.mu_formula))
        if mode == "product":
            res.add(kappa_vanishes=np.hypot(*divergences))
        else:
            _warped_structure_checks(res, model, an, fit, rs, divergences, draws[1][sl])
            own_a.append(coefficient_a(an))
    if medians:
        res.controls["qch_fit_residual"] = {
            "discrimination_floor": NEGATIVE_CONTROL_FLOOR,
            "median_residual": float(np.median(np.concatenate(medians)))}
    if own_a:
        res.add(qch_coefficient_base_independence=coefficient_base_independence(
            model, points, np.concatenate(own_a), draws=draws[2]))


def run_suite(config) -> VerificationReport:
    """Run every check enabled for the configured mode; deterministic in the seed."""
    rng = np.random.default_rng(config.rng_seed)
    res = _Residuals()
    mode, count = config.mode, config.sample_count
    model = build_model(config)
    if mode != "circle-bundle":
        _profile_checks(res, model.profile, model.profile.polynomial)
    points = sample_interior_points(model, rng, count)
    # every other number the run draws, in the seed's order, each family's
    # with one row per sample point (a draw of N + (k,) is the stream of N
    # draws of (k,)): unit directions (A, B, C) at the Bianchi spots, then
    # fit probes, a section angle and base moves point after point (warped),
    # or fit probes alone (product, negative-control)
    d, nz = model.dim, model.base.dim
    spots = points[:BIANCHI2_POINTS]
    dirs = rng.standard_normal(spots.shape[:-1] + (3, d))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    if mode == "warped":
        per_point = [(rng.standard_normal((100, d)), rng.uniform(0.0, 2.0 * np.pi),
                      rng.standard_normal((2, nz))) for _ in range(count)]
        draws = [np.array(a) for a in zip(*per_point)]
    elif mode == "circle-bundle":
        draws = []
    else:
        draws = [rng.standard_normal((count, 100, d))]

    _sample_checks(res, model, mode, points, draws)
    res.add(bianchi_second_spot=second_bianchi_residual(model, spots, dirs))
    if mode == "warped" and config.perturb_f == 1.0:
        _decay_checks(res, model)
    return VerificationReport(mode=mode, seed=config.rng_seed,
                              config_echo=config.to_dict(), checks=res.checks())
