"""Quasi-constant holomorphic curvature structure theory at a point.

On a Kaehler manifold with a distinguished J-invariant plane field
D = span{H, JH}, quasi-constancy means the holomorphic sectional curvature of
a unit vector X depends only on |X_D|; equivalently the curvature tensor
decomposes as R = a Pi + b Phi + c Psi against three model tensors built from
g, J and the splitting.  This module fits (a, b, c), splits the Ricci tensor,
computes the divergence invariant kappa with its principal section, and
evaluates the pointwise structure identities and submersion cross-checks
against their closed forms.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .curvature import (
    Curvature4,
    PointAnalysis,
    contract_slots,
    covariant_vector_derivative,
    div_e,
    hessian_form,
    holomorphic_sectional_curvature,
    j_gradient_field,
    killing_deviation,
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
    p_d = np.outer(h_hat, g @ h_hat) + np.outer(jh_hat, g @ jh_hat)
    p_e = np.eye(g.shape[0]) - p_d
    h = p_d.T @ g @ p_d
    m = p_e.T @ g @ p_e
    return SplitTensors(p_d=p_d, p_e=p_e, h=h, m=m,
                        omega=J.T @ h, omega_m=J.T @ m)


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
    gj = J.T @ g
    h, om = split.h, split.omega

    def prod(A, B, subscripts):
        return np.einsum(subscripts, A, B)

    Pi = 0.25 * (prod(g, g, "jk,il->ijkl") - prod(g, g, "ik,jl->ijkl")
                 + prod(gj, gj, "jk,il->ijkl") - prod(gj, gj, "ik,jl->ijkl")
                 - 2.0 * prod(gj, gj, "ij,kl->ijkl"))
    Phi = 0.125 * (prod(g, h, "jk,il->ijkl") - prod(g, h, "ik,jl->ijkl")
                   + prod(g, h, "il,jk->ijkl") - prod(g, h, "jl,ik->ijkl")
                   + prod(gj, om, "jk,il->ijkl") - prod(gj, om, "ik,jl->ijkl")
                   + prod(gj, om, "il,jk->ijkl") - prod(gj, om, "jl,ik->ijkl")
                   - 2.0 * prod(gj, om, "ij,kl->ijkl")
                   - 2.0 * prod(gj, om, "kl,ij->ijkl"))
    Psi = -np.einsum("ij,kl->ijkl", om, om)
    return Pi, Phi, Psi


def model_tensors(g: np.ndarray, J: np.ndarray, split: SplitTensors,
                  X, Y, Z, U) -> tuple[float, float, float]:
    """(Pi, Phi, Psi) evaluated on one 4-tuple of tangent vectors."""
    Pi, Phi, Psi = model_tensor_arrays(g, J, split)

    def val(T):
        return float(contract_slots(T, X, Y, Z, U))

    return val(Pi), val(Phi), val(Psi)


# -- coefficient fit --------------------------------------------------------------


@dataclass(frozen=True)
class QCHCoefficients:
    """Fitted decomposition coefficients and the certifying residual."""

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
                       h_hat: np.ndarray, jh_hat: np.ndarray, e_unit: np.ndarray,
                       rng: np.random.Generator | None = None,
                       residual_samples: int = 0) -> QCHCoefficients:
    """Fit phi(|X_D|) = a + b |X_D|^2 + c |X_D|^4 from three deterministic probes.

    Probes are X = cos(alpha) e + sin(alpha) H with |X_D|^2 in {0, 1/2, 1},
    a fixed well-conditioned 3x3 system; random unit vectors only feed the
    residual that certifies (or refutes) quasi-constancy.
    """
    R = Curvature4(R4)
    half = (e_unit + h_hat) / np.sqrt(2.0)
    probes = holomorphic_sectional_curvature(R, g, J, np.stack([e_unit, half, h_hat]))
    a, b, c = np.linalg.solve(_PROBE_MATRIX, probes)
    coeffs = QCHCoefficients(a=float(a), b=float(b), c=float(c), residual=0.0)
    if residual_samples and rng is not None:
        split = split_tensors(g, J, h_hat, jh_hat)
        deviations = _probe_deviations(R, g, J, split, coeffs, rng, residual_samples)
        coeffs = dataclasses.replace(coeffs, residual=float(deviations.max()))
    return coeffs


def _probe_deviations(R: Curvature4, g: np.ndarray, J: np.ndarray,
                      split: SplitTensors, coeffs: QCHCoefficients,
                      rng: np.random.Generator, samples: int) -> np.ndarray:
    """|K(X) - phi(|X_D|)| on ``samples`` random unit vectors, drawn in one call.

    One (samples, d) draw yields the same stream as ``samples`` draws of size d,
    so batching leaves the probes of a seed unchanged.
    """
    w = rng.standard_normal((samples, g.shape[0]))
    w /= np.sqrt(np.sum((w @ g) * w, axis=1))[:, None]
    tau2 = np.sum((w @ split.h) * w, axis=1)
    k = holomorphic_sectional_curvature(R, g, J, w)
    return np.abs(k - (coeffs.a + coeffs.b * tau2 + coeffs.c * tau2 ** 2))


def fit_qch_coefficients(analysis: PointAnalysis,
                         rng: np.random.Generator | None = None,
                         residual_samples: int = 100) -> QCHCoefficients:
    """Engine-facing fit at one analyzed point."""
    frame = analysis.frame
    J = analysis.complex_structure[0]
    return fit_from_curvature(analysis.riemann.components, analysis.g, J,
                              frame.vectors[0], frame.vectors[1],
                              frame.horizontal[0], rng, residual_samples)


def qch_residual_samples(analysis: PointAnalysis, coeffs: QCHCoefficients,
                         rng: np.random.Generator, samples: int) -> np.ndarray:
    """Per-sample deviations |K(X) - phi(|X_D|)| at one point."""
    frame = analysis.frame
    J = analysis.complex_structure[0]
    g = analysis.g
    split = split_tensors(g, J, frame.vectors[0], frame.vectors[1])
    return _probe_deviations(analysis.riemann, g, J, split, coeffs, rng, samples)


# -- kappa, principal section, Ricci split ---------------------------------------


@dataclass(frozen=True)
class StructureScalars:
    """Pointwise scalar invariants of the split structure."""

    kappa: float
    p: float
    p_star: float
    lam: float
    mu: float


def section_divergences(analysis: PointAnalysis, model,
                        section: tuple[float, float] | None = None) -> tuple[float, float]:
    """(div_E X, div_E JX) for a unit section X of D (default X = H)."""
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


def kappa_and_principal_section(analysis: PointAnalysis, model):
    """(kappa, principal section) with div_E(J xi) = 0 and div_E(xi) = kappa >= 0.

    Raises ``ValueError`` where kappa vanishes (product mode), since the
    principal section is undefined there.
    """
    d1, d2 = section_divergences(analysis, model)
    kappa = float(np.hypot(d1, d2))
    if kappa < 1e-13:
        raise ValueError("kappa vanishes at this point; principal section undefined")
    frame = analysis.frame
    xi_p = (d1 * frame.vectors[0] + d2 * frame.vectors[1]) / kappa
    return kappa, xi_p


def kappa_closed_form(n: int, r: float, rp: float) -> float:
    """kappa = 2 (n - 1) r'/r on the warped model."""
    return 2.0 * (n - 1) * rp / r


def structure_scalars(analysis: PointAnalysis, model, n: int) -> StructureScalars:
    """All pointwise scalar invariants at once (engine values throughout)."""
    kap, xi_p = kappa_and_principal_section(analysis, model)
    frame = analysis.frame
    g = analysis.g
    J = analysis.complex_structure[0]
    jxi_p = J @ xi_p
    # with the principal section aligned to H these reduce to the H/JH fields
    nXX = _directional_cov(analysis, model.h_field(), xi_p)
    p = float(nXX @ g @ jxi_p)
    nJJ = _directional_cov(analysis, model.jh_field(), jxi_p)
    p_star = float(nJJ @ g @ xi_p)
    fit = fit_qch_coefficients(analysis, None, 0)
    rs = ricci_split(analysis, fit, n)
    return StructureScalars(kappa=kap, p=p, p_star=p_star,
                            lam=rs.lam_engine, mu=rs.mu_engine)


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
    d_block = frame.vectors[:2]
    e_block = frame.horizontal
    rho_e = e_block @ rho @ e_block.T
    rho_d = d_block @ rho @ d_block.T
    lam_engine = float(np.trace(rho_e) / rho_e.shape[0])
    mu_engine = float(np.trace(rho_d) / 2.0)
    e_dev = float(np.abs(rho_e - lam_engine * np.eye(rho_e.shape[0])).max())
    d_dev = float(np.abs(rho_d - mu_engine * np.eye(2)).max())
    off = float(np.abs(d_block @ rho @ e_block.T).max())
    lam_formula, mu_formula = ricci_eigenvalue_formulas(coeffs.a, coeffs.b, coeffs.c, n)
    return RicciSplit(lam_engine=lam_engine, mu_engine=mu_engine,
                      lam_formula=lam_formula, mu_formula=mu_formula,
                      off_block_max=off, e_block_deviation=e_dev,
                      d_block_deviation=d_dev)


# -- structure identities ---------------------------------------------------------


def _directional_cov(analysis: PointAnalysis, x_field, direction: np.ndarray):
    """nabla_direction X at the point."""
    _, nabla = covariant_vector_derivative(analysis, x_field)
    return nabla @ direction


def _shifted_analysis(model, point, t_new) -> PointAnalysis:
    from .geometry import ChartPoint

    moved = ChartPoint(t=t_new, psi=point.psi, z=point.z, chart=point.chart)
    return PointAnalysis(model, moved)


def _kappa_at_t(model, point, t_new) -> float:
    kap, _ = kappa_and_principal_section(_shifted_analysis(model, point, t_new), model)
    return kap


def _fit_at_t(model, point, t_new) -> QCHCoefficients:
    return fit_qch_coefficients(_shifted_analysis(model, point, t_new), None, 0)


def structure_identity_residuals(analysis: PointAnalysis, model, params,
                                 *, fit_step: float = 1e-4,
                                 kappa_step: float = 1e-5) -> dict[str, float]:
    """Named residuals of the pointwise structure identities (warped mode).

    Derivatives of the fitted coefficients and of kappa along t come from
    centered differences of fits/divergences at displaced t; the underlying
    quantities are jet-exact, so the differencing error is the step-size bias
    alone.  t-only dependence of the coefficients is asserted separately.
    """
    n = params.n
    frame = analysis.frame
    g = analysis.g
    h_hat, jh_hat = frame.vectors[0], frame.vectors[1]
    e_frame = frame.horizontal
    J = analysis.complex_structure[0]
    split = split_tensors(g, J, h_hat, jh_hat)
    t = analysis.point.t
    r, rp, _, _ = model.profile.evaluate(t)
    f, fp, _ = model.profile.warp_derivatives(t)

    out: dict[str, float] = {}

    # p = g(nabla_xi xi, J xi) with xi the principal section (= H here)
    nHH = _directional_cov(analysis, model.h_field(), h_hat)
    out["p_vanishes"] = abs(float(nHH @ g @ jh_hat))

    # p* = g(nabla_JH JH, H), closed form -f'/f
    nJJ = _directional_cov(analysis, model.jh_field(), jh_hat)
    p_star = float(nJJ @ g @ h_hat)
    out["p_star_closed_form"] = abs(p_star + fp / f)

    # epsilon forms: E-components of nabla_X X for X = H, JH
    out["eps_form"] = float(np.abs(e_frame @ g @ nHH).max())
    out["eps_star_form"] = float(np.abs(e_frame @ g @ nJJ).max())

    # totally geodesic D: p_E(nabla_X Y) = 0 for X, Y in {H, JH}
    worst = 0.0
    for xf in (model.h_field(), model.jh_field()):
        for direction in (h_hat, jh_hat):
            vec = _directional_cov(analysis, xf, direction)
            worst = max(worst, float(np.abs(e_frame @ g @ vec).max()))
    out["totally_geodesic_d"] = worst

    # kappa closed form, and d ln kappa = -(kappa/(n-1) + p*) theta along H
    kap, _ = kappa_and_principal_section(analysis, model)
    out["kappa_closed_form"] = abs(kap - kappa_closed_form(n, r, rp))
    kplus = _kappa_at_t(model, analysis.point, t + kappa_step)
    kminus = _kappa_at_t(model, analysis.point, t - kappa_step)
    dlnk = (np.log(kplus) - np.log(kminus)) / (2.0 * kappa_step)
    out["log_kappa_gradient"] = abs(dlnk + kap / (n - 1) + p_star)

    # nabla theta = kappa/(2(n-1)) m - p* (J theta) x (J theta), theta = H-flat
    theta = g @ h_hat
    jtheta = g @ jh_hat
    gamma = analysis.connection.gamma
    nabla_theta = -np.einsum("kij,k->ij", gamma, theta)
    target = (kap / (2.0 * (n - 1))) * split.m - p_star * np.outer(jtheta, jtheta)
    fr = frame.vectors
    out["theta_covariant_derivative"] = float(
        np.abs(fr @ (nabla_theta - target) @ fr.T).max())

    # coefficient gradients along t:
    #   da/dt = b kappa / (2(n-1)),   db/dt = (b + 4c) kappa / (n-1)
    fit0 = fit_qch_coefficients(analysis, None, 0)
    fplus = _fit_at_t(model, analysis.point, t + fit_step)
    fminus = _fit_at_t(model, analysis.point, t - fit_step)
    da = (fplus.a - fminus.a) / (2.0 * fit_step)
    db = (fplus.b - fminus.b) / (2.0 * fit_step)
    out["coefficient_gradient_a"] = abs(da - fit0.b * kap / (2.0 * (n - 1)))
    out["coefficient_gradient_b"] = abs(db - (fit0.b + 4.0 * fit0.c) * kap / (n - 1))

    # Killing potential tau = r^2/s: J grad(tau) is Killing and
    # Hess(tau)|_E = f kappa / (2(n-1)) m
    tau_field = model.potential_field()
    x_jets = j_gradient_field(analysis, tau_field)
    dev = killing_deviation(analysis, lambda _: x_jets)
    out["potential_killing_deviation"] = float(np.abs(fr @ dev @ fr.T).max())
    hess = hessian_form(analysis, tau_field)
    hess_e = e_frame @ hess @ e_frame.T
    coeff = float(np.trace(hess_e) / hess_e.shape[0])
    out["potential_hessian_proportional"] = float(
        np.abs(hess_e - coeff * np.eye(hess_e.shape[0])).max())
    out["potential_hessian_coefficient"] = abs(coeff - f * kap / (2.0 * (n - 1)))

    return out


def coefficient_base_independence(analysis: PointAnalysis, model,
                                  rng: np.random.Generator) -> float:
    """|a(z1) - a(z2)| for two nearby base points at the same t (t-only check)."""
    from .geometry import ChartPoint

    point = analysis.point
    a0 = fit_qch_coefficients(analysis, None, 0).a
    worst = 0.0
    for _ in range(2):
        dz = 0.05 * rng.standard_normal(point.z.shape[0])
        moved = ChartPoint(t=point.t, psi=point.psi, z=point.z + dz, chart=point.chart)
        a1 = fit_qch_coefficients(PointAnalysis(model, moved), None, 0).a
        worst = max(worst, abs(a1 - a0))
    return worst


# -- submersion cross-checks -------------------------------------------------------


def warped_submersion_residuals(analysis: PointAnalysis, model, params) -> dict[str, float]:
    """Closed forms of the fiber second fundamental form, twist tensor and the
    mixed/degenerate curvature components on the warped chart vs the engine."""
    g = analysis.g
    frame = analysis.frame
    h_hat, jh_hat = frame.vectors[0], frame.vectors[1]
    e_frame = frame.horizontal
    t = analysis.point.t
    r, rp, _, _ = model.profile.evaluate(t)
    f, fp, _ = model.profile.warp_derivatives(t)
    s = model.s
    R4 = analysis.riemann.components
    out: dict[str, float] = {}

    # T(xi, xi) = -f f' H  (fiber second fundamental form, fiber direction)
    gamma = analysis.connection.gamma
    n_xi_xi = gamma[:, 1, 1]
    diff = n_xi_xi + f * fp * h_hat
    out["fiber_t_tensor"] = float(np.sqrt(diff @ g @ diff))

    # T on horizontal fiber directions (tensorial, so lift-field covariant
    # derivatives contract exactly with the frame coefficients):
    # for orthonormal E_a:  g(nabla_{E_a} E_b, H) = -(r'/r) delta_ab
    nb = model.base.dim
    lift_vals, cov_lift = [], []
    for i in range(nb):
        vals, nabla = covariant_vector_derivative(analysis, model.lift_field(i))
        lift_vals.append(vals)
        cov_lift.append(nabla)
    lift_vals = np.stack(lift_vals)                          # (nb, d)
    cov_lift = np.stack(cov_lift)                            # (nb, d, d): [j,k,i]
    n_lift = np.einsum("jki,li->ljk", cov_lift, lift_vals)   # nabla_{lift_l} lift_j
    coef = e_frame[:, 2:]                                    # E_a = sum coef[a,i] lift_i
    n_ee = contract_slots(n_lift, coef, coef).transpose(1, 2, 0)
    t_h = np.einsum("abk,k->ab", n_ee, g @ h_hat)
    out["horizontal_t_tensor"] = float(np.abs(t_h + (rp / r) * np.eye(nb)).max())

    # the base-unit statement: T(U, U) = -r r' H for h-unit U
    u_field = model.lift_field(0, base_unit=True)
    u_vals, n_u = covariant_vector_derivative(analysis, u_field)
    n_uu = n_u @ u_vals
    out["horizontal_t_tensor_base_unit"] = abs(float(n_uu @ g @ h_hat) + r * rp)

    # twist tensor: g(nabla_E F, xi) = (s f^2 / (2 r^2)) g(E, J~F) on lifts
    if s != 0.0:
        xi = frame.xi
        j0 = model.base.j0
        lhs = np.einsum("ijk,k->ij", n_lift, g @ xi)
        g_lift = lift_vals @ g @ lift_vals.T
        rhs = (s * f * f / (2.0 * r * r)) * (g_lift @ j0)
        out["twist_tensor"] = float(np.abs(lhs - rhs).max())

    # mixed curvature: R(JH, U, V, JH) = (s^2 f^2/(4 r^4) - f' r'/(f r)) g(U, V)
    target = s * s * f * f / (4.0 * r ** 4) - fp * rp / (f * r)
    mixed = contract_slots(R4, jh_hat, e_frame, e_frame, jh_hat)
    out["mixed_plane_curvature"] = float(np.abs(mixed - target * np.eye(nb)).max())

    # degenerate components: R(X, Y, Z, V) = 0 for X, Y, Z in D, V in E
    d_pair = np.stack([h_hat, jh_hat])
    degen = contract_slots(R4, d_pair, d_pair, d_pair, e_frame)
    out["d_plane_degenerate_curvature"] = float(np.abs(degen).max())

    return out


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
    xi_hat = frame.vectors[0]
    e_frame = frame.horizontal
    rho = analysis.ricci
    R4 = analysis.riemann.components
    out: dict[str, float] = {}

    lam_target = s * s * al * al * nb / (4.0 * be ** 4)
    out["fiber_ricci_eigenvalue"] = abs(float(xi_hat @ rho @ xi_hat) - lam_target)

    # R(X, xi, Y, xi) = -(s^2 alpha^4/(4 beta^4)) g(X, Y) on horizontals
    mixed = contract_slots(R4, e_frame, xi, e_frame, xi)
    target = -(s * s * al ** 4 / (4.0 * be ** 4)) * np.eye(nb)
    out["mixed_fiber_curvature"] = float(np.abs(mixed - target).max())

    # sectional curvature of (E, xi) planes: s^2 alpha^2/(4 beta^4)
    sect = np.diagonal(contract_slots(R4, e_frame, xi_hat, xi_hat, e_frame))
    out["fiber_plane_sectional"] = float(
        np.abs(sect - s * s * al * al / (4.0 * be ** 4)).max())

    # vertizontal identity: xi-coefficient of nabla_E F equals g(E, TF)/alpha^2
    gamma = analysis.connection.gamma
    t_op = gamma[:, :, 0]        # T X = nabla_X xi for the constant fiber field
    lift_vals, cov_lift = [], []
    for i in range(nb):
        vals, nabla = covariant_vector_derivative(analysis, model.lift_field(i))
        lift_vals.append(vals)
        cov_lift.append(nabla)
    lift_vals = np.stack(lift_vals)
    cov_lift = np.stack(cov_lift)
    n_lift = np.einsum("jki,li->ljk", cov_lift, lift_vals)
    lhs = np.einsum("ijk,k->ij", n_lift, g @ xi) / al ** 2
    t_lifts = np.einsum("kj,ij->ik", t_op, lift_vals)        # T lift_i
    rhs = np.einsum("ik,jk->ij", lift_vals @ g, t_lifts) / al ** 2
    out["vertizontal_tensor"] = float(np.abs(lhs - rhs).max())

    # closed form of the twist operator: T E = (alpha^2 s / (2 beta^2)) J~ E
    j0 = model.base.j0
    jt_lifts = np.einsum("ki,kd->id", j0, lift_vals)
    out["twist_operator_closed_form"] = float(
        np.abs(t_lifts - (al * al * s / (2.0 * be * be)) * jt_lifts).max())

    # horizontal Ricci eigenvalue: mu = mu0/beta^2 - s^2 alpha^2/(2 beta^4)
    mu_target = base_einstein_constant / be ** 2 - s * s * al * al / (2.0 * be ** 4)
    rho_e = e_frame @ rho @ e_frame.T
    out["horizontal_ricci_eigenvalue"] = float(
        np.abs(rho_e - mu_target * np.eye(nb)).max())

    return out
