"""Assembly of the verification suite: named checks, tolerances, reports.

Each check verifies one stated property of the constructed metrics at a set
of randomly sampled interior chart points (or of the solved profile / the
flow experiment) and records its worst residual against a tolerance.  Checks
marked ``expected_fail`` encode negative controls: the suite counts them as
in order exactly when they fail, and, for the quasi-constancy control, when
they fail decisively (median residual above the discrimination floor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curvature import (
    PointAnalysis,
    contract_slots,
    max_frame_component_3tensor,
    nabla_j,
    second_bianchi_residual,
)
from .flows import jacobi_decay_experiment
from .geometry import (
    BaseChartMetric,
    BundleParams,
    ChartPoint,
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
    exterior_derivative_1form,
    exterior_derivative_2form,
)
from .jets import stack
from .profile import boundary_report, build_polynomial, solve_profile
from .qch import (
    circle_bundle_residuals,
    coefficient_base_independence,
    fit_qch_coefficients,
    kappa_closed_form,
    qch_residual_samples,
    ricci_split,
    section_divergences,
    structure_identity_residuals,
    warped_submersion_residuals,
)

DEFAULT_TOLERANCES: dict[str, float] = {
    "bianchi_first": 1e-9,
    "bianchi_second_spot": 1e-6,
    "christoffel_symmetry": 1e-14,
    "connection_form_derivative": 1e-8,
    "curvature_antisymmetry": 1e-9,
    "curvature_pair_symmetry": 1e-9,
    "curvature_kahler_type": 1e-8,
    "complex_structure_involution": 1e-12,
    "decay_collapse": 1e-2,
    "decay_norm_tracks_warp": 1e-6,
    "decay_ratio_law": 1e-6,
    "decay_velocity_inner": 1e-8,
    "frame_orthonormality": 1e-10,
    "geodesic_residual": 1e-8,
    "hermitian_metric": 1e-10,
    "identity_eps_forms": 1e-8,
    "identity_gradient_a": 1e-6,
    "identity_gradient_b": 1e-6,
    "identity_log_kappa_gradient": 1e-7,
    "identity_nabla_theta": 1e-7,
    "identity_p": 1e-8,
    "identity_p_star": 1e-7,
    "kahler_form_closed": 1e-8,
    "kappa_closed_form": 1e-7,
    "kappa_section_independence": 1e-10,
    "kappa_vanishes": 1e-10,
    "metric_positive_definite": 1e-30,
    "nabla_j": 1e-7,
    "nabla_j_perturbed_floor": 1e-3,
    "potential_hessian": 1e-7,
    "potential_killing": 1e-7,
    "principal_section": 1e-9,
    "profile_boundary": 1e-7,
    "profile_constraints": 1e-12,
    "profile_first_integral": 1e-8,
    "profile_length_agreement": 1e-6,
    "qch_coefficient_a": 1e-7,
    "qch_coefficient_base_independence": 1e-8,
    "qch_fit_negative_floor": 1e-2,
    "qch_fit_residual": 1e-7,
    "ricci_e_block": 1e-8,
    "ricci_j_invariance": 1e-8,
    "ricci_lambda": 1e-7,
    "ricci_mu": 1e-7,
    "ricci_off_block": 1e-8,
    "ricci_symmetry": 1e-9,
    "submersion_degenerate": 1e-7,
    "submersion_fiber_t": 1e-8,
    "submersion_horizontal_t": 1e-7,
    "submersion_mixed_curvature": 1e-7,
    "submersion_twist": 1e-7,
    "theta_derivative": 1e-8,
    "theta_normalization": 1e-12,
    "totally_geodesic_d": 1e-8,
    "bundle_fiber_ricci": 1e-7,
    "bundle_mixed_fiber_curvature": 1e-7,
    "bundle_fiber_sectional": 1e-7,
    "bundle_vertizontal": 1e-7,
    "bundle_twist_operator": 1e-7,
    "bundle_horizontal_ricci": 1e-7,
    "base_einstein": 1e-8,
}


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
        floor = self.details.get("discrimination_floor")
        if floor is not None:
            return (not self.passed) and self.details["median_residual"] > floor
        return not self.passed

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


def sample_interior_points(model, rng: np.random.Generator, count: int,
                           margin_frac: float, z_radius: float) -> list[ChartPoint]:
    """Random interior chart points, kept away from the collapsing ends and
    from the far region of the affine chart where conditioning degrades."""
    points = []
    has_t = hasattr(model, "profile")
    if has_t:
        L = model.profile.L
        lo, hi = margin_frac * L, (1.0 - margin_frac) * L
    nz = model.base.dim
    for _ in range(count):
        z = rng.standard_normal(nz)
        z *= rng.uniform(0.1, 1.0) * z_radius / max(float(np.linalg.norm(z)), 1e-12)
        psi = rng.uniform(0.0, 2.0 * np.pi)
        if has_t:
            points.append(ChartPoint(t=rng.uniform(lo, hi), psi=psi, z=z,
                                     chart=model.chart))
        else:
            points.append(ChartPoint(psi=psi, z=z, chart=model.chart))
    return points


def _kahler_form_closedness(analysis: PointAnalysis) -> float:
    """max |d Omega| for Omega_ij = g(J e_i, e_j) = (J^T g)_ij, from the jets."""
    J = stack(analysis.field.complex_structure_jets(analysis.coords))
    return float(np.abs(exterior_derivative_2form(J.T @ analysis.metric)).max())


def _connection_form_residuals(model, analysis: PointAnalysis) -> tuple[float, float]:
    """(max |d sigma - Omega|, max |d theta - s Omega|) at the point.

    sigma comes from the base model; theta is read off the assembled metric,
    theta_i = g(d_psi, e_i) / g(d_psi, d_psi), on both the warped and the
    bundle chart (psi sits just before the base block z).  So the second
    residual tests the pitch and cross terms the metric was built with.
    """
    coords = analysis.coords
    base = model.base
    off = len(coords) - base.dim
    z = coords[off:]
    sigma = base.connection_potential_jets(z)
    omega = base.kahler_form_jets(z).value
    grads = sigma.gradient[:, off:]
    res_sigma = float(np.abs(grads.T - grads - omega).max())
    g = analysis.metric
    psi = off - 1
    target = np.zeros((len(coords), len(coords)))
    target[off:, off:] = model.s * omega
    dtheta = exterior_derivative_1form(g[psi] / g[psi, psi])
    return res_sigma, float(np.abs(dtheta - target).max())


def _metric_invariant_checks(model, analyses, tol, *, has_j: bool) -> list[CheckResult]:
    n_pts = len(analyses)
    pd_worst = 0.0
    frame_worst = 0.0
    theta_worst = 0.0
    j2_worst = 0.0
    herm_worst = 0.0
    domega_worst = 0.0
    gamma_sym_worst = 0.0
    dsigma_worst = 0.0
    dtheta_worst = 0.0
    for an in analyses:
        g = an.g
        eigs = np.linalg.eigvalsh(g)
        pd_worst = max(pd_worst, float(max(0.0, -eigs.min())))
        fr = an.frame.vectors
        frame_worst = max(frame_worst, float(np.abs(fr @ g @ fr.T - np.eye(g.shape[0])).max()))
        if an.frame.xi is not None and hasattr(model, "s"):
            # theta(xi) = 1 and g(H, xi) = 0 exactly on total charts
            if an.frame.h_vec is not None:
                theta_worst = max(theta_worst, abs(float(an.frame.h_vec @ g @ an.frame.xi)))
        gamma = an.connection.gamma
        gamma_sym_worst = max(gamma_sym_worst,
                              float(np.abs(gamma - gamma.transpose(0, 2, 1)).max()))
        if has_j:
            J = an.complex_structure[0]
            j2_worst = max(j2_worst, float(np.abs(J @ J + np.eye(g.shape[0])).max()))
            herm_worst = max(herm_worst, float(np.abs(J.T @ g @ J - g).max()))
            domega_worst = max(domega_worst, _kahler_form_closedness(an))
        if hasattr(model, "base") and getattr(model, "s", 0.0) != 0.0:
            ds, dt = _connection_form_residuals(model, an)
            dsigma_worst = max(dsigma_worst, ds)
            dtheta_worst = max(dtheta_worst, dt)
    checks = [
        CheckResult("metric_positive_definite",
                    "assembled metric is positive definite at interior points",
                    pd_worst, tol["metric_positive_definite"], n_pts),
        CheckResult("frame_orthonormality",
                    "frame (H, JH, E_a) is g-orthonormal after Gram-Schmidt",
                    frame_worst, tol["frame_orthonormality"], n_pts),
        CheckResult("christoffel_symmetry",
                    "Gamma^k_ij = Gamma^k_ji (torsion-free connection)",
                    gamma_sym_worst, tol["christoffel_symmetry"], n_pts),
    ]
    if hasattr(model, "s"):
        checks.append(CheckResult(
            "theta_normalization", "theta(xi) = 1 and g(H, xi) = 0",
            theta_worst, tol["theta_normalization"], n_pts))
    if has_j:
        checks.extend([
            CheckResult("complex_structure_involution", "J o J = -identity",
                        j2_worst, tol["complex_structure_involution"], n_pts),
            CheckResult("hermitian_metric", "g(JX, JY) = g(X, Y)",
                        herm_worst, tol["hermitian_metric"], n_pts),
            CheckResult("kahler_form_closed",
                        "d Omega = 0 for Omega(X, Y) = g(JX, Y)",
                        domega_worst, tol["kahler_form_closed"], n_pts),
        ])
    if hasattr(model, "base") and getattr(model, "s", 0.0) != 0.0:
        checks.extend([
            CheckResult("connection_form_derivative",
                        "d sigma equals the base Kaehler form Omega",
                        dsigma_worst, tol["connection_form_derivative"], n_pts),
            CheckResult("theta_derivative",
                        "d theta = s Omega (pulled back)",
                        dtheta_worst, tol["theta_derivative"], n_pts),
        ])
    return checks


def _curvature_invariant_checks(model, analyses, tol, rng, *, has_j: bool,
                                bianchi2_points: int = 2) -> list[CheckResult]:
    n_pts = len(analyses)
    anti = pair = b1 = ric_sym = 0.0
    kahler_type = ric_j = 0.0
    for an in analyses:
        R = an.riemann.components
        scale = max(float(np.abs(R).max()), 1e-30)
        anti = max(anti,
                   float(np.abs(R + R.transpose(1, 0, 2, 3)).max()) / scale,
                   float(np.abs(R + R.transpose(0, 1, 3, 2)).max()) / scale)
        pair = max(pair, float(np.abs(R - R.transpose(2, 3, 0, 1)).max()) / scale)
        b1 = max(b1, float(np.abs(R + R.transpose(1, 2, 0, 3)
                                  + R.transpose(2, 0, 1, 3)).max()) / scale)
        rho = an.ricci
        ric_sym = max(ric_sym, float(np.abs(rho - rho.T).max()))
        if has_j:
            J = an.complex_structure[0]
            rj = contract_slots(R, J.T, J.T).transpose(2, 3, 0, 1)
            kahler_type = max(kahler_type, float(np.abs(rj - R).max()) / scale)
            ric_j = max(ric_j, float(np.abs(J.T @ rho @ J - rho).max()))
    checks = [
        CheckResult("curvature_antisymmetry",
                    "R antisymmetric in its first and last index pairs",
                    anti, tol["curvature_antisymmetry"], n_pts),
        CheckResult("curvature_pair_symmetry", "R_ijkl = R_klij",
                    pair, tol["curvature_pair_symmetry"], n_pts),
        CheckResult("bianchi_first", "R_ijkl + R_jkil + R_kijl = 0",
                    b1, tol["bianchi_first"], n_pts),
        CheckResult("ricci_symmetry", "Ricci tensor is symmetric",
                    ric_sym, tol["ricci_symmetry"], n_pts),
    ]
    if has_j:
        checks.extend([
            CheckResult("curvature_kahler_type", "R(JX, JY, Z, W) = R(X, Y, Z, W)",
                        kahler_type, tol["curvature_kahler_type"], n_pts),
            CheckResult("ricci_j_invariance", "rho(JX, JY) = rho(X, Y)",
                        ric_j, tol["ricci_j_invariance"], n_pts),
        ])
    b2 = 0.0
    for an in analyses[:bianchi2_points]:
        d = an.g.shape[0]
        dirs = [v / np.linalg.norm(v) for v in rng.standard_normal((3, d))]
        b2 = max(b2, second_bianchi_residual(model, an.point, dirs))
    checks.append(CheckResult(
        "bianchi_second_spot",
        "cyclic sum of covariant curvature derivatives vanishes (spot check)",
        b2, tol["bianchi_second_spot"], min(bianchi2_points, n_pts)))
    return checks


def _profile_checks(profile, poly, tol) -> list[CheckResult]:
    cons = max(abs(poly(poly.x)), abs(poly(poly.y)),
               abs(poly.x * poly.deriv1(poly.x) - poly.s),
               abs(poly.y * poly.deriv1(poly.y) + poly.s))
    rep = boundary_report(profile)
    boundary = max(abs(rep["fp_start_minus_one"]), abs(rep["fp_end_plus_one"]),
                   abs(rep["boundary_start"]), abs(rep["boundary_end"]))
    return [
        CheckResult("profile_constraints",
                    "P(x) = P(y) = 0 and x P'(x) = s, y P'(y) = -s",
                    cons, tol["profile_constraints"], 1),
        CheckResult("profile_boundary",
                    "f'(0) = 1 and f'(L) = -1 at the solved endpoints",
                    boundary, tol["profile_boundary"], 1),
        CheckResult("profile_first_integral", "r'^2 = P(r) along the solution",
                    profile.first_integral_residual(), tol["profile_first_integral"], 400),
        CheckResult("profile_length_agreement",
                    "first-passage length agrees with the quadrature length",
                    abs(profile.L - profile.quadrature_length),
                    tol["profile_length_agreement"], 1),
    ]


def _warped_structure_checks(model, analyses, params, tol, rng) -> list[CheckResult]:
    n_pts = len(analyses)
    fit_res = coeff_a = base_indep = 0.0
    lam = mu = off = eblock = 0.0
    kap_cf = kap_indep = princ = 0.0
    ident_worst: dict[str, float] = {}
    sub_worst: dict[str, float] = {}
    for an in analyses:
        fit = fit_qch_coefficients(an, rng, 100)
        fit_res = max(fit_res, fit.residual)
        r, rp, _, _ = model.profile.evaluate(an.point.t)
        a_target = params.c0 / r ** 2 - 4.0 * rp ** 2 / r ** 2
        coeff_a = max(coeff_a, abs(fit.a - a_target))
        rs = ricci_split(an, fit, params.n)
        lam = max(lam, abs(rs.lam_engine - rs.lam_formula))
        mu = max(mu, abs(rs.mu_engine - rs.mu_formula))
        off = max(off, rs.off_block_max)
        eblock = max(eblock, rs.e_block_deviation)
        d1, d2 = section_divergences(an, model)
        kap = float(np.hypot(d1, d2))
        kap_cf = max(kap_cf, abs(kap - kappa_closed_form(params.n, r, rp)))
        princ = max(princ, abs(d2))  # div_E(JH) = 0 makes H the principal section
        phi = rng.uniform(0.0, 2.0 * np.pi)
        d1r, d2r = section_divergences(an, model, (np.cos(phi), np.sin(phi)))
        kap_indep = max(kap_indep, abs(float(np.hypot(d1r, d2r)) - kap))
        base_indep = max(base_indep, coefficient_base_independence(an, model, rng))
        for key, val in structure_identity_residuals(an, model, params).items():
            ident_worst[key] = max(ident_worst.get(key, 0.0), val)
        for key, val in warped_submersion_residuals(an, model, params).items():
            sub_worst[key] = max(sub_worst.get(key, 0.0), val)

    checks = [
        CheckResult("qch_fit_residual",
                    "R(X,JX,JX,X) = a + b |X_D|^2 + c |X_D|^4 on unit vectors",
                    fit_res, tol["qch_fit_residual"], n_pts * 100),
        CheckResult("qch_coefficient_a", "a = c0/r^2 - 4 r'^2/r^2",
                    coeff_a, tol["qch_coefficient_a"], n_pts),
        CheckResult("qch_coefficient_base_independence",
                    "fitted coefficients depend on t only",
                    base_indep, tol["qch_coefficient_base_independence"], n_pts),
        CheckResult("ricci_lambda", "lambda = (n+1)/2 a + b/4",
                    lam, tol["ricci_lambda"], n_pts),
        CheckResult("ricci_mu", "mu = (n+1)/2 a + (n+3)/4 b + c",
                    mu, tol["ricci_mu"], n_pts),
        CheckResult("ricci_off_block", "rho(D, E) = 0",
                    off, tol["ricci_off_block"], n_pts),
        CheckResult("ricci_e_block", "rho|_E = lambda m",
                    eblock, tol["ricci_e_block"], n_pts),
        CheckResult("kappa_closed_form", "kappa = 2 (n-1) r'/r",
                    kap_cf, tol["kappa_closed_form"], n_pts),
        CheckResult("kappa_section_independence",
                    "kappa is independent of the chosen unit section of D",
                    kap_indep, tol["kappa_section_independence"], n_pts),
        CheckResult("principal_section",
                    "div_E(JH) = 0, so H is the principal section",
                    princ, tol["principal_section"], n_pts),
    ]
    ident_claims = {
        "p_vanishes": ("identity_p", "p = g(nabla_xi xi, J xi) = 0"),
        "p_star_closed_form": ("identity_p_star", "p* = -f'/f"),
        "log_kappa_gradient": ("identity_log_kappa_gradient",
                               "d log kappa = -(kappa/(n-1) + p*) theta"),
        "theta_covariant_derivative": ("identity_nabla_theta",
                                       "nabla theta = kappa/(2(n-1)) m "
                                       "- p* Jtheta x Jtheta"),
        "coefficient_gradient_a": ("identity_gradient_a",
                                   "da = b kappa/(2(n-1)) theta"),
        "coefficient_gradient_b": ("identity_gradient_b",
                                   "db = (b + 4c) kappa/(n-1) theta"),
        "potential_killing_deviation": ("potential_killing",
                                        "J grad(r^2/s) is a Killing field"),
    }
    for key, (name, claim) in ident_claims.items():
        checks.append(CheckResult(name, claim, ident_worst[key], tol[name], n_pts))
    checks.append(CheckResult(
        "identity_eps_forms", "the forms eps and eps* vanish",
        max(ident_worst["eps_form"], ident_worst["eps_star_form"]),
        tol["identity_eps_forms"], n_pts))
    checks.append(CheckResult(
        "totally_geodesic_d", "p_E(nabla_X Y) = 0 for X, Y spanning D",
        ident_worst["totally_geodesic_d"], tol["totally_geodesic_d"], n_pts))
    checks.append(CheckResult(
        "potential_hessian",
        "Hess(r^2/s) restricted to E equals f kappa/(2(n-1)) m",
        max(ident_worst["potential_hessian_proportional"],
            ident_worst["potential_hessian_coefficient"]),
        tol["potential_hessian"], n_pts))
    sub_claims = {
        "fiber_t_tensor": ("submersion_fiber_t", "T(xi, xi) = -f f' H"),
        "horizontal_t_tensor": ("submersion_horizontal_t",
                                "T(U, U) = -r r' H for base-unit horizontal U"),
        "twist_tensor": ("submersion_twist",
                         "g(nabla_E F, xi) = (s f^2/(2 r^2)) g(E, J~F)"),
        "mixed_plane_curvature": ("submersion_mixed_curvature",
                                  "R(JH, U, U, JH) = s^2 f^2/(4 r^4) - f' r'/(f r)"),
        "d_plane_degenerate_curvature": ("submersion_degenerate",
                                         "R(X, Y, Z, V) = 0 for X, Y, Z in D, V in E"),
    }
    for key, (name, claim) in sub_claims.items():
        residual = max(sub_worst[key],
                       sub_worst["horizontal_t_tensor_base_unit"]
                       if key == "horizontal_t_tensor" else 0.0)
        checks.append(CheckResult(name, claim, residual, tol[name], n_pts))
    return checks


def _nabla_j_check(analyses, tol) -> CheckResult:
    worst = 0.0
    for an in analyses:
        nj = nabla_j(an)
        worst = max(worst, max_frame_component_3tensor(nj, an.frame.vectors, an.g))
    return CheckResult("nabla_j", "nabla J = 0 (the structure is parallel)",
                       worst, tol["nabla_j"], len(analyses))


def _decay_checks(model, tol) -> list[CheckResult]:
    L = model.profile.L
    rep = jacobi_decay_experiment(model, 0.2 * L, L * (1.0 - 1e-3),
                                  samples=160, rtol=1e-12, atol=1e-14)
    return [
        CheckResult("decay_norm_tracks_warp",
                    "|C(t)| = f(t) along the axial geodesic",
                    rep.max_norm_deviation, tol["decay_norm_tracks_warp"], 160),
        CheckResult("decay_ratio_law",
                    "d/dt log(kappa/|C|) = -kappa theta(c')/(n-1)",
                    rep.max_ratio_residual, tol["decay_ratio_law"], 160),
        CheckResult("decay_collapse",
                    "|C| collapses below 1e-2 of its start value near t = L",
                    rep.decay_factor, tol["decay_collapse"], 1),
        CheckResult("decay_velocity_inner", "g(c', C) stays at zero",
                    rep.max_velocity_inner, tol["decay_velocity_inner"], 160),
        CheckResult("geodesic_residual", "nabla_c' c' = 0 along the flow",
                    rep.geodesic_residual, tol["geodesic_residual"], 7),
    ]


def build_warped_model(config) -> tuple[BundleParams, WarpedBundleMetric]:
    """Profile + geometry for the warped / product / negative-control modes."""
    s = config.effective_s()
    poly = build_polynomial(config.x, config.y, s)
    profile = solve_profile(poly)
    params = BundleParams(n=config.n, c0=config.c0, s=s, k=config.k,
                          q=config.n if config.k is not None else None,
                          L=profile.L)
    if config.mode == "negative-control":
        base = ProductBase([FubiniStudy(1, config.c0), FubiniStudy(1, config.c0)])
    else:
        base = FubiniStudy(params.m, config.c0)
    model = WarpedBundleMetric(params, profile, base,
                               product_mode=(config.mode == "product"),
                               warp_scale=config.perturb_f)
    return params, model


def run_suite(config) -> VerificationReport:
    """Run every check enabled for the configured mode; deterministic in the seed."""
    rng = np.random.default_rng(config.rng_seed)
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(config.tolerances)
    checks: list[CheckResult] = []

    if config.mode == "circle-bundle":
        base = FubiniStudy(config.n - 1, config.c0)
        model = CircleBundleMetric(config.alpha, config.beta, config.effective_s(), base)
        points = sample_interior_points(model, rng, config.sample_count,
                                        config.sample_margin, config.z_radius)
        analyses = [PointAnalysis(model, p) for p in points]
        checks += _metric_invariant_checks(model, analyses, tol, has_j=False)
        checks += _curvature_invariant_checks(model, analyses, tol, rng, has_j=False)
        base_chart = BaseChartMetric(base)
        ein_worst = 0.0
        mu0 = None
        bundle_worst: dict[str, float] = {}
        for an in analyses:
            ab = PointAnalysis(base_chart, ChartPoint(z=an.point.z))
            rho_b = ab.frame.vectors @ ab.ricci @ ab.frame.vectors.T
            mu0 = float(np.trace(rho_b) / rho_b.shape[0])
            ein_worst = max(ein_worst, float(
                np.abs(rho_b - mu0 * np.eye(rho_b.shape[0])).max()))
            for key, val in circle_bundle_residuals(an, model, mu0).items():
                bundle_worst[key] = max(bundle_worst.get(key, 0.0), val)
        checks.append(CheckResult(
            "base_einstein", "the base metric is Einstein: rho_0 = mu_0 h",
            ein_worst, tol["base_einstein"], len(analyses)))
        claims = {
            "fiber_ricci_eigenvalue": (
                "bundle_fiber_ricci",
                "rho(xi/alpha, xi/alpha) = s^2 alpha^2 (2m)/(4 beta^4)"),
            "mixed_fiber_curvature": (
                "bundle_mixed_fiber_curvature",
                "R(X, xi, Y, xi) = -(s^2 alpha^4/(4 beta^4)) g(X, Y)"),
            "fiber_plane_sectional": (
                "bundle_fiber_sectional",
                "K(E, xi) = s^2 alpha^2/(4 beta^4)"),
            "vertizontal_tensor": (
                "bundle_vertizontal",
                "xi-component of nabla_E F equals g(E, TF)/alpha^2"),
            "twist_operator_closed_form": (
                "bundle_twist_operator",
                "nabla_E xi = (alpha^2 s/(2 beta^2)) J~E"),
            "horizontal_ricci_eigenvalue": (
                "bundle_horizontal_ricci",
                "mu = mu_0/beta^2 - s^2 alpha^2/(2 beta^4)"),
        }
        for key, (name, claim) in claims.items():
            checks.append(CheckResult(name, claim, bundle_worst[key],
                                      tol[name], len(analyses)))
        return VerificationReport(mode=config.mode, seed=config.rng_seed,
                                  config_echo=config.to_dict(), checks=checks)

    params, model = build_warped_model(config)
    checks += _profile_checks(model.profile, model.profile.polynomial, tol)
    points = sample_interior_points(model, rng, config.sample_count,
                                    config.sample_margin, config.z_radius)
    analyses = [PointAnalysis(model, p) for p in points]
    checks += _metric_invariant_checks(model, analyses, tol, has_j=True)
    checks += _curvature_invariant_checks(model, analyses, tol, rng, has_j=True)

    # with perturb_f != 1 this check fails decisively: that is a hard failure
    # mode (exit 1), not an annotated expected failure
    checks.append(_nabla_j_check(analyses, tol))

    if config.mode == "negative-control":
        fits = [fit_qch_coefficients(an, rng, 100) for an in analyses]
        per_point = []
        for an, fit in zip(analyses, fits):
            per_point.append(np.median(qch_residual_samples(an, fit, rng, 40)))
        res = CheckResult(
            "qch_fit_residual",
            "R(X,JX,JX,X) = a + b |X_D|^2 + c |X_D|^4 on unit vectors",
            max(f.residual for f in fits), tol["qch_fit_residual"],
            len(analyses) * 100, expected_fail=True,
            details={"discrimination_floor": tol["qch_fit_negative_floor"],
                     "median_residual": float(np.median(per_point))})
        checks.append(res)
    elif config.mode == "product":
        fit_res = kap_worst = lam = mu = 0.0
        for an in analyses:
            fit = fit_qch_coefficients(an, rng, 100)
            fit_res = max(fit_res, fit.residual)
            rs = ricci_split(an, fit, params.n)
            lam = max(lam, abs(rs.lam_engine - rs.lam_formula))
            mu = max(mu, abs(rs.mu_engine - rs.mu_formula))
            d1, d2 = section_divergences(an, model)
            kap_worst = max(kap_worst, float(np.hypot(d1, d2)))
        checks.append(CheckResult(
            "qch_fit_residual",
            "R(X,JX,JX,X) = a + b |X_D|^2 + c |X_D|^4 on unit vectors",
            fit_res, tol["qch_fit_residual"], len(analyses) * 100))
        checks.append(CheckResult(
            "kappa_vanishes", "kappa = 0 everywhere in product mode",
            kap_worst, tol["kappa_vanishes"], len(analyses)))
        checks.append(CheckResult(
            "ricci_lambda", "lambda = (n+1)/2 a + b/4",
            lam, tol["ricci_lambda"], len(analyses)))
        checks.append(CheckResult(
            "ricci_mu", "mu = (n+1)/2 a + (n+3)/4 b + c",
            mu, tol["ricci_mu"], len(analyses)))
    else:  # warped
        checks += _warped_structure_checks(model, analyses, params, tol, rng)
        if config.perturb_f == 1.0:
            checks += _decay_checks(model, tol)

    return VerificationReport(mode=config.mode, seed=config.rng_seed,
                              config_echo=config.to_dict(), checks=checks)
