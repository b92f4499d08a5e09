"""Quasi-constant holomorphic curvature structure theory at a point.

On a Kaehler manifold with a distinguished J-invariant plane field
D = span{H, JH}, quasi-constancy means the holomorphic sectional curvature of
a unit vector X depends only on |X_D|; equivalently the curvature tensor
decomposes as R = a Pi + b Phi + c Psi against three model tensors built from
g, J and the splitting.  This module fits (a, b, c), splits the Ricci tensor,
computes the divergence invariant kappa with its principal section, and
evaluates the pointwise structure identities and submersion cross-checks
against their closed forms.

Every function takes an analysis of one point or of a batch of points and
returns its results per point: floats for one point, arrays for a batch.
The fit and kappa are analytic in the chart coordinates, so at an analysis
of complex points x + i h e_t (``curvature.complex_step``) they carry their
t-derivatives, which the gradient laws read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .batch import each, inner, matvec, max_abs, mT, per_point
from .curvature import (
    Curvature4,
    PointAnalysis,
    complex_step,
    contract_slots,
    covariant_vector_derivative,
    div_e,
    hessian_form,
    holomorphic_sectional_curvature,
    j_gradient_field,
    killing_deviation,
    step_derivative,
)


# -- splitting and model tensors ------------------------------------------------


@dataclass(frozen=True)
class SplitTensors:
    """Projections onto D and E and the induced metric/form blocks."""

    p_d: np.ndarray      # (d, d) projection operator onto D
    p_e: np.ndarray      # (d, d) projection operator onto E = D-perp
    h: np.ndarray        # g restricted through p_D (bilinear form)
    m: np.ndarray        # g restricted through p_E
    omega: np.ndarray    # omega(X, Y) = h(JX, Y)
    omega_m: np.ndarray  # Omega_m(X, Y) = m(JX, Y)


def split_tensors(g: np.ndarray, J: np.ndarray, h_hat: np.ndarray,
                  jh_hat: np.ndarray) -> SplitTensors:
    """Build the D/E split from the orthonormal pair spanning D."""
    p_d = (h_hat[..., :, None] * matvec(g, h_hat)[..., None, :]
           + jh_hat[..., :, None] * matvec(g, jh_hat)[..., None, :])
    p_e = np.eye(g.shape[-1]) - p_d
    h = mT(p_d) @ g @ p_d
    m = mT(p_e) @ g @ p_e
    return SplitTensors(p_d=p_d, p_e=p_e, h=h, m=m,
                        omega=mT(J) @ h, omega_m=mT(J) @ m)


def model_tensor_arrays(g: np.ndarray, J: np.ndarray,
                        split: SplitTensors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Component arrays of the model tensors (Pi, Phi, Psi).

    With gj_ij = g(J e_i, e_j), h and omega the D-blocks of g and of the
    Kaehler form:

      Pi  = 1/4 ( g_jk g_il - g_ik g_jl + gj_jk gj_il - gj_ik gj_jl
                  - 2 gj_ij gj_kl )
      Phi = 1/8 ( g_jk h_il - g_ik h_jl + g_il h_jk - g_jl h_ik
                  + gj_jk om_il - gj_ik om_jl + gj_il om_jk - gj_jl om_ik
                  - 2 gj_ij om_kl - 2 gj_kl om_ij )
      Psi = -om_ij om_kl
    """
    gj = mT(J) @ g
    h, om = split.h, split.omega

    def prod(A, B, subscripts):
        left, out = subscripts.split("->")
        a, b = left.split(",")
        return np.einsum(f"...{a},...{b}->...{out}", A, B)

    Pi = 0.25 * (prod(g, g, "jk,il->ijkl") - prod(g, g, "ik,jl->ijkl")
                 + prod(gj, gj, "jk,il->ijkl") - prod(gj, gj, "ik,jl->ijkl")
                 - 2.0 * prod(gj, gj, "ij,kl->ijkl"))
    Phi = 0.125 * (prod(g, h, "jk,il->ijkl") - prod(g, h, "ik,jl->ijkl")
                   + prod(g, h, "il,jk->ijkl") - prod(g, h, "jl,ik->ijkl")
                   + prod(gj, om, "jk,il->ijkl") - prod(gj, om, "ik,jl->ijkl")
                   + prod(gj, om, "il,jk->ijkl") - prod(gj, om, "jl,ik->ijkl")
                   - 2.0 * prod(gj, om, "ij,kl->ijkl")
                   - 2.0 * prod(gj, om, "kl,ij->ijkl"))
    Psi = -prod(om, om, "ij,kl->ijkl")
    return Pi, Phi, Psi


# -- coefficient fit --------------------------------------------------------------


@dataclass(frozen=True)
class QCHCoefficients:
    """Fitted decomposition coefficients and the certifying residual (per point)."""

    a: float
    b: float
    c: float
    residual: float


_PROBE_MATRIX = np.array([
    [1.0, 0.0, 0.0],
    [1.0, 0.5, 0.25],
    [1.0, 1.0, 1.0],
])


def fit_from_curvature(R4: np.ndarray, g: np.ndarray, J: np.ndarray,
                       h_hat: np.ndarray, jh_hat: np.ndarray, e_unit: np.ndarray, *,
                       draws: np.ndarray | None = None) -> QCHCoefficients:
    """Fit phi(|X_D|) = a + b |X_D|^2 + c |X_D|^4 from three deterministic probes.

    Probes are X = cos(alpha) e + sin(alpha) H with |X_D|^2 in {0, 1/2, 1},
    a fixed well-conditioned 3x3 system; random unit vectors only feed the
    residual that certifies (or refutes) quasi-constancy.  They lie along
    ``draws``, standard normals of shape B + (samples, d); without them the
    residual is 0.
    """
    R = Curvature4(R4)
    half = (e_unit + h_hat) / np.sqrt(2.0)
    probes = holomorphic_sectional_curvature(R, g, J, np.stack([e_unit, half, h_hat], axis=-2))
    solved = np.linalg.solve(_PROBE_MATRIX, np.asarray(probes)[..., None])[..., 0]
    a, b, c = (per_point(x) for x in np.moveaxis(solved, -1, 0))
    coeffs = QCHCoefficients(a=a, b=b, c=c, residual=per_point(np.zeros_like(a)))
    if draws is not None:
        split = split_tensors(g, J, h_hat, jh_hat)
        deviations = _probe_deviations(R, g, J, split, coeffs, draws)
        coeffs = dataclasses.replace(coeffs, residual=per_point(deviations.max(axis=-1)))
    return coeffs


def _probe_deviations(R: Curvature4, g: np.ndarray, J: np.ndarray,
                      split: SplitTensors, coeffs: QCHCoefficients,
                      w: np.ndarray) -> np.ndarray:
    """|K(X) - phi(|X_D|)| on the unit vectors along the draws w, B + (samples, d)."""
    w = w / np.sqrt(np.sum((w @ g) * w, axis=-1))[..., None]
    tau2 = np.sum((w @ split.h) * w, axis=-1)
    k = holomorphic_sectional_curvature(R, g, J, w)
    a, b, c = (np.asarray(x)[..., None] for x in (coeffs.a, coeffs.b, coeffs.c))
    return np.abs(k - (a + b * tau2 + c * tau2 ** 2))


def fit_qch_coefficients(analysis: PointAnalysis, *,
                         draws: np.ndarray | None = None) -> QCHCoefficients:
    """Engine-facing fit at the analyzed point(s), its residual along ``draws``."""
    vectors = analysis.frame.vectors
    J = analysis.complex_structure[0]
    return fit_from_curvature(analysis.riemann.components, analysis.g, J,
                              vectors[..., 0, :], vectors[..., 1, :],
                              analysis.frame.horizontal[..., 0, :], draws=draws)


def qch_residual_samples(analysis: PointAnalysis, coeffs: QCHCoefficients,
                         rng: np.random.Generator, samples: int) -> np.ndarray:
    """Per-sample deviations |K(X) - phi(|X_D|)|, B + (samples,)."""
    vectors = analysis.frame.vectors
    J = analysis.complex_structure[0]
    g = analysis.g
    split = split_tensors(g, J, vectors[..., 0, :], vectors[..., 1, :])
    draws = rng.standard_normal(g.shape[:-2] + (samples, g.shape[-1]))
    return _probe_deviations(analysis.riemann, g, J, split, coeffs, draws)


# -- kappa, principal section, Ricci split ---------------------------------------


def section_divergences(analysis: PointAnalysis, model, section=None) -> tuple:
    """(div_E X, div_E JX) for a unit section X of D (default X = H); the
    section's (c1, c2) are floats or arrays with one entry per point."""
    e_frame = analysis.frame.horizontal
    if section is None:
        d1 = div_e(analysis, model.h_field(), e_frame)
        d2 = div_e(analysis, model.jh_field(), e_frame)
    else:
        c1, c2 = section
        d1 = div_e(analysis, model.section_field(c1, c2), e_frame)
        # J(c1 H + c2 JH) = c1 JH - c2 H
        d2 = div_e(analysis, model.section_field(-c2, c1), e_frame)
    return d1, d2


def kappa_and_principal_section(analysis: PointAnalysis, model, divergences=None):
    """(kappa, principal section) with div_E(J xi) = 0 and div_E(xi) = kappa >= 0.

    ``divergences`` are the (d1, d2) of ``section_divergences`` at the point(s),
    when the caller already holds them.  Raises ``ValueError`` where kappa
    vanishes (product mode), since the principal section is undefined there.
    """
    if divergences is None:
        divergences = section_divergences(analysis, model)
    d1, d2 = divergences
    kappa = np.sqrt(d1 * d1 + d2 * d2)  # analytic, unlike np.hypot
    if np.any(kappa.real < 1e-13):
        raise ValueError("kappa vanishes at this point; principal section undefined")
    vectors = analysis.frame.vectors
    xi_p = (np.asarray(d1)[..., None] * vectors[..., 0, :]
            + np.asarray(d2)[..., None] * vectors[..., 1, :]) / np.asarray(kappa)[..., None]
    return per_point(kappa), xi_p


def kappa_closed_form(n: int, r: float, rp: float) -> float:
    """kappa = 2 (n - 1) r'/r on the warped model."""
    return 2.0 * (n - 1) * rp / r


@dataclass(frozen=True)
class RicciSplit:
    """Engine vs coefficient-formula eigenvalues of the Ricci tensor."""

    lam_engine: float
    mu_engine: float
    lam_formula: float
    mu_formula: float
    off_block_max: float
    e_block_deviation: float
    d_block_deviation: float


def ricci_eigenvalue_formulas(a: float, b: float, c: float, n: int) -> tuple[float, float]:
    """lambda = (n+1)/2 a + b/4 and mu = (n+1)/2 a + (n+3)/4 b + c."""
    return (0.5 * (n + 1) * a + 0.25 * b,
            0.5 * (n + 1) * a + 0.25 * (n + 3) * b + c)


def ricci_split(analysis: PointAnalysis, coeffs: QCHCoefficients, n: int) -> RicciSplit:
    """Split rho into E and D eigenvalues, engine tensor vs coefficient formulas."""
    rho = analysis.ricci
    frame = analysis.frame
    d_block = frame.vectors[..., :2, :]
    e_block = frame.horizontal
    rho_e = e_block @ rho @ mT(e_block)
    rho_d = d_block @ rho @ mT(d_block)
    k = rho_e.shape[-1]
    lam_engine = np.trace(rho_e, axis1=-2, axis2=-1) / k
    mu_engine = np.trace(rho_d, axis1=-2, axis2=-1) / 2.0
    lam_formula, mu_formula = ricci_eigenvalue_formulas(coeffs.a, coeffs.b, coeffs.c, n)
    return RicciSplit(lam_engine=per_point(lam_engine), mu_engine=per_point(mu_engine),
                      lam_formula=lam_formula, mu_formula=mu_formula,
                      off_block_max=max_abs(d_block @ rho @ mT(e_block), 2),
                      e_block_deviation=max_abs(rho_e - each(lam_engine) * np.eye(k), 2),
                      d_block_deviation=max_abs(rho_d - each(mu_engine) * np.eye(2), 2))


# -- structure identities ---------------------------------------------------------


def _directional_cov(analysis: PointAnalysis, x_field, direction: np.ndarray):
    """nabla_direction X at the point."""
    _, nabla = covariant_vector_derivative(analysis, x_field)
    return matvec(nabla, direction)


def coefficient_t_derivatives(analysis: PointAnalysis, model) -> tuple:
    """(da/dt, db/dt, dkappa/dt) at the analysed point(s), from the fit and
    kappa of one analysis at the complex points x + i h e_t."""
    x = analysis.x
    stepped = PointAnalysis(model, complex_step(x, np.eye(x.shape[-1])[0]))
    fit = fit_qch_coefficients(stepped)
    kappa = kappa_and_principal_section(stepped, model)[0]
    return step_derivative(fit.a), step_derivative(fit.b), step_derivative(kappa)


def structure_identity_residuals(analysis: PointAnalysis, model, params,
                                 *, fit: QCHCoefficients | None = None,
                                 divergences=None) -> dict[str, float]:
    """Named residuals of the pointwise structure identities (warped mode).

    The t-derivatives of the fitted coefficients and of kappa, which the
    gradient laws compare with their closed forms, come from one analysis
    at the complex points x + i h e_t (``coefficient_t_derivatives``): the
    fit and kappa there carry them in their imaginary parts, exact to
    rounding, with no step to tune.  t-only dependence of the coefficients
    is asserted separately.
    A caller that has already fitted the point(s) (any residual draws: the
    coefficients come from fixed probes) and taken ``section_divergences``
    passes them as ``fit`` and ``divergences``.
    """
    if fit is None:
        fit = fit_qch_coefficients(analysis)
    n = params.n
    frame = analysis.frame
    g = analysis.g
    h_hat, jh_hat = frame.vectors[..., 0, :], frame.vectors[..., 1, :]
    e_frame = frame.horizontal
    J = analysis.complex_structure[0]
    split = split_tensors(g, J, h_hat, jh_hat)
    r, rp, rpp, rppp = model.profile.evaluate(analysis.x[..., 0])
    f, fp, _ = model.profile.warp_from(r, rp, rpp, rppp)

    out: dict = {}

    # p = g(nabla_xi xi, J xi) with xi the principal section (= H here)
    nHH = _directional_cov(analysis, model.h_field(), h_hat)
    out["p_vanishes"] = np.abs(inner(g, nHH, jh_hat))

    # p* = g(nabla_JH JH, H), closed form -f'/f
    nJJ = _directional_cov(analysis, model.jh_field(), jh_hat)
    p_star = inner(g, nJJ, h_hat)
    out["p_star_closed_form"] = np.abs(p_star + fp / f)

    # epsilon forms: E-components of nabla_X X for X = H, JH
    e_low = e_frame @ g
    out["eps_form"] = max_abs(matvec(e_low, nHH), 1)
    out["eps_star_form"] = max_abs(matvec(e_low, nJJ), 1)

    # totally geodesic D: p_E(nabla_X Y) = 0 for X, Y in {H, JH}
    worst = 0.0
    for xf in (model.h_field(), model.jh_field()):
        for direction in (h_hat, jh_hat):
            vec = _directional_cov(analysis, xf, direction)
            worst = np.maximum(worst, max_abs(matvec(e_low, vec), 1))
    out["totally_geodesic_d"] = worst

    # kappa closed form, and d ln kappa = -(kappa/(n-1) + p*) theta along H
    kap, _ = kappa_and_principal_section(analysis, model, divergences)
    out["kappa_closed_form"] = np.abs(kap - kappa_closed_form(n, r, rp))
    da, db, dkap = coefficient_t_derivatives(analysis, model)
    out["log_kappa_gradient"] = np.abs(dkap / kap + kap / (n - 1) + p_star)

    # nabla theta = kappa/(2(n-1)) m - p* (J theta) x (J theta), theta = H-flat
    theta = matvec(g, h_hat)
    jtheta = matvec(g, jh_hat)
    gamma = analysis.gamma
    nabla_theta = -np.einsum("...kij,...k->...ij", gamma, theta)
    target = (each(kap / (2.0 * (n - 1))) * split.m
              - each(p_star) * (jtheta[..., :, None] * jtheta[..., None, :]))
    fr = frame.vectors
    out["theta_covariant_derivative"] = max_abs(fr @ (nabla_theta - target) @ mT(fr), 2)

    # coefficient gradients along t:
    #   da/dt = b kappa / (2(n-1)),   db/dt = (b + 4c) kappa / (n-1)
    out["coefficient_gradient_a"] = np.abs(da - fit.b * kap / (2.0 * (n - 1)))
    out["coefficient_gradient_b"] = np.abs(db - (fit.b + 4.0 * fit.c) * kap / (n - 1))

    # Killing potential tau = r^2/s: J grad(tau) is Killing and
    # Hess(tau)|_E = f kappa / (2(n-1)) m
    tau_field = model.potential_field()
    x_jets = j_gradient_field(analysis, tau_field)
    dev = killing_deviation(analysis, lambda _: x_jets)
    out["potential_killing_deviation"] = max_abs(fr @ dev @ mT(fr), 2)
    hess = hessian_form(analysis, tau_field)
    hess_e = e_frame @ hess @ mT(e_frame)
    k = hess_e.shape[-1]
    coeff = np.trace(hess_e, axis1=-2, axis2=-1) / k
    out["potential_hessian_proportional"] = max_abs(hess_e - each(coeff) * np.eye(k), 2)
    out["potential_hessian_coefficient"] = np.abs(coeff - f * kap / (2.0 * (n - 1)))

    return {key: per_point(value) for key, value in out.items()}


def coefficient_base_independence(analysis: PointAnalysis, model, *, draws: np.ndarray,
                                  fit: QCHCoefficients | None = None):
    """|a(z1) - a(z2)| for two nearby base points at the same t (t-only check).

    The base points move by 0.05 times standard-normal ``draws`` of shape
    B + (2, 2m).  ``fit`` is the caller's fit at the analysed point(s), if it
    has one.
    """
    if fit is None:
        fit = fit_qch_coefficients(analysis)
    a0 = fit.a
    worst = 0.0
    for k in range(2):
        moved = analysis.x.copy()
        moved[..., 2:] += 0.05 * draws[..., k, :]
        a1 = fit_qch_coefficients(PointAnalysis(model, moved)).a
        worst = np.maximum(worst, np.abs(a1 - a0))
    return per_point(worst)


# -- submersion cross-checks -------------------------------------------------------


def warped_submersion_residuals(analysis: PointAnalysis, model, params) -> dict[str, float]:
    """Closed forms of the fiber second fundamental form, twist tensor and the
    mixed/degenerate curvature components on the warped chart vs the engine."""
    g = analysis.g
    frame = analysis.frame
    h_hat, jh_hat = frame.vectors[..., 0, :], frame.vectors[..., 1, :]
    e_frame = frame.horizontal
    r, rp, rpp, rppp = model.profile.evaluate(analysis.x[..., 0])
    f, fp, _ = model.profile.warp_from(r, rp, rpp, rppp)
    s = model.s
    R4 = analysis.riemann.components
    out: dict = {}

    # T(xi, xi) = -f f' H  (fiber second fundamental form, fiber direction)
    gamma = analysis.gamma
    n_xi_xi = gamma[..., :, 1, 1]
    diff = n_xi_xi + np.asarray(f * fp)[..., None] * h_hat
    out["fiber_t_tensor"] = np.sqrt(inner(g, diff, diff))

    # T on horizontal fiber directions (tensorial, so lift-field covariant
    # derivatives contract exactly with the frame coefficients):
    # for orthonormal E_a:  g(nabla_{E_a} E_b, H) = -(r'/r) delta_ab
    nb = model.base.dim
    lift_vals, n_lift = _lift_derivatives(analysis, model)
    coef = e_frame[..., 2:]                                  # E_a = sum coef[a,i] lift_i
    n_ee = np.moveaxis(contract_slots(n_lift, coef, coef, rank=3), -3, -1)
    t_h = matvec(n_ee, matvec(g, h_hat)[..., None, :])
    out["horizontal_t_tensor"] = max_abs(t_h + each(rp / r) * np.eye(nb), 2)

    # the base-unit statement: T(U, U) = -r r' H for h-unit U
    u_field = model.base_unit_lift_field(0)
    u_vals, n_u = covariant_vector_derivative(analysis, u_field)
    n_uu = matvec(n_u, u_vals)
    out["horizontal_t_tensor_base_unit"] = np.abs(inner(g, n_uu, h_hat) + r * rp)

    # twist tensor: g(nabla_E F, xi) = (s f^2 / (2 r^2)) g(E, J~F) on lifts
    if s != 0.0:
        j0 = model.base.j0
        lhs = matvec(n_lift, matvec(g, frame.xi)[..., None, :])
        g_lift = lift_vals @ g @ mT(lift_vals)
        rhs = each(s * f * f / (2.0 * r * r)) * (g_lift @ j0)
        out["twist_tensor"] = max_abs(lhs - rhs, 2)

    # mixed curvature: R(JH, U, V, JH) = (s^2 f^2/(4 r^4) - f' r'/(f r)) g(U, V)
    target = s * s * f * f / (4.0 * r ** 4) - fp * rp / (f * r)
    mixed = contract_slots(R4, jh_hat, e_frame, e_frame, jh_hat, rank=4)
    out["mixed_plane_curvature"] = max_abs(mixed - each(target) * np.eye(nb), 2)

    # degenerate components: R(X, Y, Z, V) = 0 for X, Y, Z in D, V in E
    d_pair = frame.vectors[..., :2, :]
    degen = contract_slots(R4, d_pair, d_pair, d_pair, e_frame, rank=4)
    out["d_plane_degenerate_curvature"] = max_abs(degen, 4)

    return {key: per_point(value) for key, value in out.items()}


def _lift_derivatives(analysis: PointAnalysis, model) -> tuple[np.ndarray, np.ndarray]:
    """(lift values B + (2m, d), n_lift B + (2m, 2m, d)) with
    n_lift[l, j] = nabla_{lift_l} lift_j for the horizontal coordinate lifts,
    from the model's one jet of all the lifts."""
    lifts = model.lift_jets(analysis.coords)
    lift_vals = lifts.value                                  # [j, k]
    batch, (nb, d) = lift_vals.shape[:-2], lift_vals.shape[-2:]
    # cov_lift[j, k, i] = d_i lift_j^k + Gamma^k_{ia} lift_j^a, every row at once
    turned = analysis.gamma.reshape(batch + (d * d, d)) @ mT(lift_vals)
    cov_lift = lifts.gradient + np.moveaxis(turned.reshape(batch + (d, d, nb)), -1, -3)
    # n_lift[l, j, k] = cov_lift[j, k, i] lift_vals[l, i]
    n_lift = (cov_lift.reshape(batch + (nb * d, d)) @ mT(lift_vals)).reshape(
        batch + (nb, d, nb))
    return lift_vals, np.moveaxis(n_lift, -1, -3)


def circle_bundle_residuals(analysis: PointAnalysis, model,
                            base_einstein_constant: float) -> dict[str, float]:
    """Closed forms of the odd-dimensional bundle curvature vs the engine.

    The twist operator T = nabla(.) xi equals (alpha^2 s / (2 beta^2)) J~ on
    horizontals, so |T|^2 = s^2 alpha^4 (2m)/(4 beta^4) and the fiber Ricci
    eigenvalue is |T|^2 / alpha^2 = s^2 alpha^2 (2m) / (4 beta^4).
    """
    al, be, s = model.alpha, model.beta, model.s
    nb = model.base.dim          # 2m
    g = analysis.g
    frame = analysis.frame
    xi = frame.xi
    xi_hat = frame.vectors[..., 0, :]
    e_frame = frame.horizontal
    rho = analysis.ricci
    R4 = analysis.riemann.components
    out: dict = {}

    lam_target = s * s * al * al * nb / (4.0 * be ** 4)
    out["fiber_ricci_eigenvalue"] = np.abs(inner(rho, xi_hat, xi_hat) - lam_target)

    # R(X, xi, Y, xi) = -(s^2 alpha^4/(4 beta^4)) g(X, Y) on horizontals
    mixed = contract_slots(R4, e_frame, xi, e_frame, xi, rank=4)
    target = -(s * s * al ** 4 / (4.0 * be ** 4)) * np.eye(nb)
    out["mixed_fiber_curvature"] = max_abs(mixed - target, 2)

    # sectional curvature of (E, xi) planes: s^2 alpha^2/(4 beta^4)
    sect = np.diagonal(contract_slots(R4, e_frame, xi_hat, xi_hat, e_frame, rank=4),
                       axis1=-2, axis2=-1)
    out["fiber_plane_sectional"] = max_abs(sect - s * s * al * al / (4.0 * be ** 4), 1)

    # vertizontal identity: xi-coefficient of nabla_E F equals g(E, TF)/alpha^2
    gamma = analysis.gamma
    t_op = gamma[..., :, :, 0]   # T X = nabla_X xi for the constant fiber field
    lift_vals, n_lift = _lift_derivatives(analysis, model)
    lhs = matvec(n_lift, matvec(g, xi)[..., None, :]) / al ** 2
    t_lifts = lift_vals @ mT(t_op)                        # T lift_i
    rhs = (lift_vals @ g) @ mT(t_lifts) / al ** 2
    out["vertizontal_tensor"] = max_abs(lhs - rhs, 2)

    # closed form of the twist operator: T E = (alpha^2 s / (2 beta^2)) J~ E
    jt_lifts = model.base.j0.T @ lift_vals
    out["twist_operator_closed_form"] = max_abs(
        t_lifts - (al * al * s / (2.0 * be * be)) * jt_lifts, 2)

    # horizontal Ricci eigenvalue: mu = mu0/beta^2 - s^2 alpha^2/(2 beta^4)
    mu_target = base_einstein_constant / be ** 2 - s * s * al * al / (2.0 * be ** 4)
    rho_e = e_frame @ rho @ mT(e_frame)
    out["horizontal_ricci_eigenvalue"] = max_abs(rho_e - each(mu_target) * np.eye(nb), 2)

    return {key: per_point(value) for key, value in out.items()}
