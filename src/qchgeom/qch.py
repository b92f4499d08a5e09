"""Quasi-constant holomorphic curvature structure theory at a point.

On a Kaehler manifold with a distinguished J-invariant plane field
D = span{H, JH}, quasi-constancy means the holomorphic sectional curvature of
a unit vector X depends only on |X_D|; equivalently the curvature tensor
decomposes as R = a Pi + b Phi + c Psi against three model tensors built from
g, J and the D block of g.  The fit reads (a, b, c) off the holomorphic
sectional curvatures of three fixed probes without forming the tensors, and
``qch_residual_samples``, the one scorer of random probes, hands out the
deviation from a + b |X_D|^2 + c |X_D|^4 along each.  That block is
h = theta x theta + Jtheta x Jtheta for the covectors theta = g(H, .) and
Jtheta = g(JH, .) of the frame's first two rows (``d_block``), so
|X_D|^2 = h(X, X), and the E block is g - h; no projector is formed.  This
module fits (a, b, c), splits the Ricci tensor, computes the divergence
invariant kappa, and evaluates the pointwise structure identities and
submersion cross-checks against their closed forms.  The residual functions
return each residual under the name of the ``suite.CHECKS`` check it feeds,
one per point; a check with several parts gets the larger of them.

Every function takes an analysis of one point or of a batch of points and
returns its results per point: floats for one point, arrays for a batch.
The fit and kappa are analytic in the chart coordinates, so at an analysis
of complex points x + i h e_t (``curvature.complex_step``) they carry their
t-derivatives, which the gradient laws read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batch import each, inner, matvec, max_abs, mT, per_point
from .curvature import (
    PointAnalysis,
    batch_analyses,
    complex_step,
    contract_slots,
    covariant_vector_derivative,
    div_e,
    hessian_form,
    holomorphic_curvature_along,
    holomorphic_sectional_curvature,
    j_gradient_field,
    killing_deviation,
    step_derivative,
)


# -- the D block -----------------------------------------------------------------


def d_block(g: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """h = theta x theta + Jtheta x Jtheta, g restricted to D = span{H, JH},
    from the covectors theta = g(H, .) and Jtheta = g(JH, .) of the frame's
    first two rows, which are g-orthonormal by construction."""
    covectors = frame[..., :2, :] @ g
    return mT(covectors) @ covectors


# -- coefficient fit --------------------------------------------------------------


@dataclass(frozen=True)
class QCHCoefficients:
    """Fitted decomposition coefficients (per point)."""

    a: float
    b: float
    c: float


_PROBE_MATRIX = np.array([
    [1.0, 0.0, 0.0],
    [1.0, 0.5, 0.25],
    [1.0, 1.0, 1.0],
])


def fit_from_curvature(R: np.ndarray, g: np.ndarray, J: np.ndarray,
                       frame: np.ndarray) -> QCHCoefficients:
    """Fit phi(|X_D|) = a + b |X_D|^2 + c |X_D|^4 from three deterministic probes.

    Probes are X = cos(alpha) E_1 + sin(alpha) H, from the frame rows
    (H, JH, E_1, ...), with |X_D|^2 in {0, 1/2, 1}, a fixed well-conditioned
    3x3 system.  Whether the fit certifies (or refutes) quasi-constancy is
    for ``qch_residual_samples`` to say, on random unit vectors.
    """
    h_hat, e_unit = frame[..., 0, :], frame[..., 2, :]
    half = (e_unit + h_hat) / np.sqrt(2.0)
    probes = holomorphic_sectional_curvature(R, g, J, np.stack([e_unit, half, h_hat], axis=-2))
    solved = np.linalg.solve(_PROBE_MATRIX, np.asarray(probes)[..., None])[..., 0]
    a, b, c = (per_point(x) for x in np.moveaxis(solved, -1, 0))
    return QCHCoefficients(a=a, b=b, c=c)


def fit_qch_coefficients(analysis: PointAnalysis) -> QCHCoefficients:
    """Engine-facing fit at the analyzed point(s)."""
    return fit_from_curvature(analysis.riemann, analysis.g, analysis.complex_structure[0],
                              analysis.frame)


def qch_residual_samples(analysis: PointAnalysis, coeffs: QCHCoefficients,
                         draws: np.ndarray) -> np.ndarray:
    """Per-sample deviations |K(X) - phi(|X_D|)| on the unit vectors X along
    ``draws``, standard normals B + (samples, d), with |X_D|^2 = h(X, X) for
    h the D block of g; the result is B + (samples,)."""
    g = analysis.g
    w = draws / np.sqrt(np.sum((draws @ g) * draws, axis=-1))[..., None]
    tau2 = np.sum((w @ d_block(g, analysis.frame)) * w, axis=-1)
    k = holomorphic_sectional_curvature(analysis.riemann, g, analysis.complex_structure[0], w)
    a, b, c = (np.asarray(x)[..., None] for x in (coeffs.a, coeffs.b, coeffs.c))
    return np.abs(k - (a + b * tau2 + c * tau2 ** 2))


# -- kappa and the Ricci split ----------------------------------------------------


def section_divergences(analysis: PointAnalysis, model, section=(1.0, 0.0)) -> tuple:
    """(div_E X, div_E JX) for a unit section X = c1 H + c2 JH of D (default
    X = H); the section's (c1, c2) are floats or arrays with one entry per
    point."""
    e_frame = analysis.frame[..., 2:, :]
    c1, c2 = (np.asarray(c)[..., None] for c in section)
    H, JH = model.section_jets(analysis.coords)
    d1 = div_e(analysis, H * c1 + JH * c2, e_frame)
    # J(c1 H + c2 JH) = c1 JH - c2 H
    d2 = div_e(analysis, JH * c1 - H * c2, e_frame)
    return d1, d2


def kappa(divergences: tuple):
    """kappa = sqrt(d1^2 + d2^2) >= 0, from the (d1, d2) of
    ``section_divergences`` at the point(s); analytic, unlike np.hypot.

    Raises ``ValueError`` where kappa vanishes (product mode), which the
    gradient law divides by.
    """
    d1, d2 = divergences
    kap = np.sqrt(d1 * d1 + d2 * d2)
    if np.any(kap.real < 1e-13):
        raise ValueError("kappa vanishes at this point")
    return per_point(kap)


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


def ricci_eigenvalue_formulas(a: float, b: float, c: float, n: int) -> tuple[float, float]:
    """lambda = (n+1)/2 a + b/4 and mu = (n+1)/2 a + (n+3)/4 b + c."""
    return (0.5 * (n + 1) * a + 0.25 * b,
            0.5 * (n + 1) * a + 0.25 * (n + 3) * b + c)


def ricci_split(analysis: PointAnalysis, coeffs: QCHCoefficients, n: int) -> RicciSplit:
    """Split rho into E and D eigenvalues, engine tensor vs coefficient formulas."""
    rho = analysis.ricci
    frame = analysis.frame
    d_block = frame[..., :2, :]
    e_block = frame[..., 2:, :]
    rho_e = e_block @ rho @ mT(e_block)
    k = rho_e.shape[-1]
    lam_engine = np.trace(rho_e, axis1=-2, axis2=-1) / k
    mu_engine = np.trace(d_block @ rho @ mT(d_block), axis1=-2, axis2=-1) / 2.0
    lam_formula, mu_formula = ricci_eigenvalue_formulas(coeffs.a, coeffs.b, coeffs.c, n)
    return RicciSplit(lam_engine=per_point(lam_engine), mu_engine=per_point(mu_engine),
                      lam_formula=lam_formula, mu_formula=mu_formula,
                      off_block_max=max_abs(d_block @ rho @ mT(e_block), 2),
                      e_block_deviation=max_abs(rho_e - each(lam_engine) * np.eye(k), 2))


# -- structure identities ---------------------------------------------------------


def coefficient_t_derivatives(analysis: PointAnalysis, model) -> tuple:
    """(da/dt, db/dt, dkappa/dt) at the analysed point(s), from the fit and
    kappa of one analysis at the complex points x + i h e_t: the fit and
    kappa there carry them in their imaginary parts, exact to rounding,
    with no step to tune.  Only ``analysis.x`` is read, so the suite takes
    them first at each sample slice, before the slice's real R and dense
    Hessian exist: the complex analysis, with its complex R, is dropped on
    return and never coexists with them."""
    x = analysis.x
    stepped = PointAnalysis(model, complex_step(x, np.eye(x.shape[-1])[0]))
    fit = fit_qch_coefficients(stepped)
    kap = kappa(section_divergences(stepped, model))
    return step_derivative(fit.a), step_derivative(fit.b), step_derivative(kap)


def structure_identity_residuals(analysis: PointAnalysis, model, *,
                                 fit: QCHCoefficients, divergences: tuple,
                                 t_derivatives: tuple) -> dict[str, float]:
    """Residuals of the pointwise structure identities (warped mode) by check.

    ``fit`` is the fit at the point(s), ``divergences`` their
    ``section_divergences`` and ``t_derivatives`` the (da/dt, db/dt,
    dkappa/dt) of ``coefficient_t_derivatives`` there, which the gradient
    laws compare with their closed forms.  t-only dependence of the
    coefficients is asserted separately.
    """
    n = model.n
    frame = analysis.frame
    g = analysis.g
    h_hat, jh_hat, e_frame = frame[..., 0, :], frame[..., 1, :], frame[..., 2:, :]
    r, rp, rpp, rppp = model.profile_at(analysis.x[..., 0])
    f, fp, _ = model.profile.warp_from(r, rp, rpp, rppp)

    out: dict = {}

    # nabla H and nabla JH, (nabla X)[k, i] = nabla_i X^k
    coords = analysis.coords
    nH, nJH = (covariant_vector_derivative(analysis, x) for x in model.section_jets(coords))
    nHH, nJJ = matvec(nH, h_hat), matvec(nJH, jh_hat)

    # p = g(nabla_xi xi, J xi) with xi the principal section (= H here)
    out["identity_p"] = np.abs(inner(g, nHH, jh_hat))

    # p* = g(nabla_JH JH, H), closed form -f'/f
    p_star = inner(g, nJJ, h_hat)
    out["identity_p_star"] = np.abs(p_star + fp / f)

    # epsilon forms: E-components of nabla_X X for X = H, JH; totally geodesic
    # D adds the mixed ones: p_E(nabla_X Y) = 0 for X, Y in {H, JH}
    e_low = e_frame @ g

    def e_part(v):
        return max_abs(matvec(e_low, v), 1)

    out["identity_eps_forms"] = np.maximum(e_part(nHH), e_part(nJJ))
    out["totally_geodesic_d"] = np.maximum(out["identity_eps_forms"], np.maximum(
        e_part(matvec(nH, jh_hat)), e_part(matvec(nJH, h_hat))))

    # kappa closed form, and d ln kappa = -(kappa/(n-1) + p*) theta along H
    kap = kappa(divergences)
    out["kappa_closed_form"] = np.abs(kap - kappa_closed_form(n, r, rp))
    da, db, dkap = t_derivatives
    out["identity_log_kappa_gradient"] = np.abs(dkap / kap + kap / (n - 1) + p_star)

    # nabla theta = kappa/(2(n-1)) m - p* (J theta) x (J theta), theta = H-flat
    # and m = g - h the E block of g
    theta = matvec(g, h_hat)
    jtheta = matvec(g, jh_hat)
    gamma = analysis.gamma
    nabla_theta = -np.einsum("...kij,...k->...ij", gamma, theta)
    target = (each(kap / (2.0 * (n - 1))) * (g - d_block(g, frame))
              - each(p_star) * (jtheta[..., :, None] * jtheta[..., None, :]))
    out["identity_nabla_theta"] = max_abs(frame @ (nabla_theta - target) @ mT(frame), 2)

    # coefficient gradients along t:
    #   da/dt = b kappa / (2(n-1)),   db/dt = (b + 4c) kappa / (n-1)
    out["identity_gradient_a"] = np.abs(da - fit.b * kap / (2.0 * (n - 1)))
    out["identity_gradient_b"] = np.abs(db - (fit.b + 4.0 * fit.c) * kap / (n - 1))

    # Killing potential tau = r^2/s: J grad(tau) is Killing and
    # Hess(tau)|_E = f kappa / (2(n-1)) m
    tau = model.potential_jets(coords)
    dev = killing_deviation(analysis, j_gradient_field(analysis, tau))
    out["potential_killing"] = max_abs(frame @ dev @ mT(frame), 2)
    hess = hessian_form(analysis, tau)
    hess_e = e_frame @ hess @ mT(e_frame)
    k = hess_e.shape[-1]
    coeff = np.trace(hess_e, axis1=-2, axis2=-1) / k
    out["potential_hessian"] = np.maximum(max_abs(hess_e - each(coeff) * np.eye(k), 2),
                                          np.abs(coeff - f * kap / (2.0 * (n - 1))))

    return {key: per_point(value) for key, value in out.items()}


def coefficient_a(analysis: PointAnalysis) -> np.ndarray:
    """a = K(E_1) at the analysed point(s), the fit's first probe
    (|X_D| = 0), from one contraction of the metric jet
    (``curvature.holomorphic_curvature_along``): no Riemann tensor."""
    return holomorphic_curvature_along(analysis, analysis.frame[..., 2, :])


def coefficient_base_independence(model, points: np.ndarray, a, *, draws: np.ndarray):
    """The larger of |a(z_k) - a(z)| over two base points z_k moved from each
    of the points, B + (d,), at the same t and psi (t-only check), per point.

    The base points move by 0.05 times standard-normal ``draws`` of shape
    B + (2, 2m).  ``a`` holds a at the points themselves, read in their own
    analyses by ``coefficient_a``; the moved points are read the same way,
    all of them together in directional analyses
    (``curvature.batch_analyses``), so the two sides of each difference
    round alike and no moved analysis builds a rank-4 array.  The suite
    makes this one call per run, after its sample slices.
    """
    moved = np.repeat(points[..., None, :], 2, axis=-2)
    moved[..., 2:] += 0.05 * draws
    a_moved = np.concatenate([coefficient_a(an) for _, an in batch_analyses(
        model, moved.reshape(-1, points.shape[-1]), directional=True)])
    return per_point(np.abs(a_moved.reshape(moved.shape[:-1]) - np.asarray(a)[..., None])
                     .max(axis=-1))


# -- submersion cross-checks -------------------------------------------------------


def warped_submersion_residuals(analysis: PointAnalysis, model) -> dict[str, float]:
    """Closed forms of the fiber second fundamental form, twist tensor and the
    mixed/degenerate curvature components on the warped chart vs the engine,
    by check."""
    g = analysis.g
    frame = analysis.frame
    h_hat, jh_hat, e_frame = frame[..., 0, :], frame[..., 1, :], frame[..., 2:, :]
    r, rp, rpp, rppp = model.profile_at(analysis.x[..., 0])
    f, fp, _ = model.profile.warp_from(r, rp, rpp, rppp)
    s = model.s
    R4 = analysis.riemann
    out: dict = {}

    # T(xi, xi) = -f f' H  (fiber second fundamental form, fiber direction)
    gamma = analysis.gamma
    n_xi_xi = gamma[..., :, 1, 1]
    diff = n_xi_xi + np.asarray(f * fp)[..., None] * h_hat
    out["submersion_fiber_t"] = np.sqrt(inner(g, diff, diff))

    # T on horizontal fiber directions (tensorial, so lift-field covariant
    # derivatives contract exactly with the frame coefficients):
    # for orthonormal E_a:  g(nabla_{E_a} E_b, H) = -(r'/r) delta_ab
    nb = model.base.dim
    lift_vals, n_lift = _lift_derivatives(analysis, model)
    coef = e_frame[..., 2:]                                  # E_a = sum coef[a,i] lift_i
    n_ee = np.moveaxis(contract_slots(n_lift, coef, coef, rank=3), -3, -1)
    t_h = matvec(n_ee, matvec(g, h_hat)[..., None, :])
    horizontal_t = max_abs(t_h + each(rp / r) * np.eye(nb), 2)

    # the base-unit statement: T(U, U) = -r r' H for h-unit U
    u = model.base_unit_lift_jets(analysis.coords, 0)
    n_uu = matvec(covariant_vector_derivative(analysis, u), u.value)
    out["submersion_horizontal_t"] = np.maximum(
        horizontal_t, np.abs(inner(g, n_uu, h_hat) + r * rp))

    # twist tensor: g(nabla_E F, xi) = (s f^2 / (2 r^2)) g(E, J~F) on lifts
    if s != 0.0:
        j0 = model.base.j0
        lhs = matvec(n_lift, g[..., :, 1][..., None, :])   # g(., xi), xi = d/dpsi
        g_lift = lift_vals @ g @ mT(lift_vals)
        rhs = each(s * f * f / (2.0 * r * r)) * (g_lift @ j0)
        out["submersion_twist"] = max_abs(lhs - rhs, 2)

    # mixed curvature: R(JH, U, V, JH) = (s^2 f^2/(4 r^4) - f' r'/(f r)) g(U, V)
    target = s * s * f * f / (4.0 * r ** 4) - fp * rp / (f * r)
    mixed = contract_slots(R4, jh_hat, e_frame, e_frame, jh_hat, rank=4)
    out["submersion_mixed_curvature"] = max_abs(mixed - each(target) * np.eye(nb), 2)

    # degenerate components: R(X, Y, Z, V) = 0 for X, Y, Z in D, V in E
    d_pair = frame[..., :2, :]
    degen = contract_slots(R4, d_pair, d_pair, d_pair, e_frame, rank=4)
    out["submersion_degenerate"] = max_abs(degen, 4)

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
    """Closed forms of the odd-dimensional bundle curvature vs the engine, by check.

    The twist operator T = nabla(.) xi equals (alpha^2 s / (2 beta^2)) J~ on
    horizontals, so |T|^2 = s^2 alpha^4 (2m)/(4 beta^4) and the fiber Ricci
    eigenvalue is |T|^2 / alpha^2 = s^2 alpha^2 (2m) / (4 beta^4).
    """
    al, be, s = model.alpha, model.beta, model.s
    nb = model.base.dim          # 2m
    g = analysis.g
    frame = analysis.frame
    xi = np.broadcast_to(np.eye(model.dim)[0], g.shape[:-1])   # xi = d/dpsi
    xi_hat, e_frame = frame[..., 0, :], frame[..., 1:, :]
    rho = analysis.ricci
    R4 = analysis.riemann
    out: dict = {}

    lam_target = s * s * al * al * nb / (4.0 * be ** 4)
    out["bundle_fiber_ricci"] = np.abs(inner(rho, xi_hat, xi_hat) - lam_target)

    # R(X, xi, Y, xi) = -(s^2 alpha^4/(4 beta^4)) g(X, Y) on horizontals
    mixed = contract_slots(R4, e_frame, xi, e_frame, xi, rank=4)
    target = -(s * s * al ** 4 / (4.0 * be ** 4)) * np.eye(nb)
    out["bundle_mixed_fiber_curvature"] = max_abs(mixed - target, 2)

    # sectional curvature of (E, xi) planes: s^2 alpha^2/(4 beta^4)
    sect = np.diagonal(contract_slots(R4, e_frame, xi_hat, xi_hat, e_frame, rank=4),
                       axis1=-2, axis2=-1)
    out["bundle_fiber_sectional"] = max_abs(sect - s * s * al * al / (4.0 * be ** 4), 1)

    # vertizontal identity: xi-coefficient of nabla_E F equals g(E, TF)/alpha^2
    gamma = analysis.gamma
    t_op = gamma[..., :, :, 0]   # T X = nabla_X xi for the constant fiber field
    lift_vals, n_lift = _lift_derivatives(analysis, model)
    lhs = matvec(n_lift, matvec(g, xi)[..., None, :]) / al ** 2
    t_lifts = lift_vals @ mT(t_op)                        # T lift_i
    rhs = (lift_vals @ g) @ mT(t_lifts) / al ** 2
    out["bundle_vertizontal"] = max_abs(lhs - rhs, 2)

    # closed form of the twist operator: T E = (alpha^2 s / (2 beta^2)) J~ E
    jt_lifts = model.base.j0.T @ lift_vals
    out["bundle_twist_operator"] = max_abs(
        t_lifts - (al * al * s / (2.0 * be * be)) * jt_lifts, 2)

    # horizontal Ricci eigenvalue: mu = mu0/beta^2 - s^2 alpha^2/(2 beta^4)
    mu_target = base_einstein_constant / be ** 2 - s * s * al * al / (2.0 * be ** 4)
    rho_e = e_frame @ rho @ mT(e_frame)
    out["bundle_horizontal_ricci"] = max_abs(rho_e - each(mu_target) * np.eye(nb), 2)

    return {key: per_point(value) for key, value in out.items()}
