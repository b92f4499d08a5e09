#!/usr/bin/env python3
"""Independent symbolic validation of the closed-form curvature identities.

Builds the warped metric dt^2 + f(t)^2 theta^2 + r(t)^2 h over a projective
line base (the lowest-dimensional slice that exercises every structural
feature: connection twist, warped base block, fiber scaling) with sympy, and
derives from scratch the identities the numerical suite asserts:

  * the complex structure squares to -1 and is g-compatible;
  * nabla J = 0 exactly when f = 2 r r'/s, and fails when f is scaled;
  * p* = g(nabla_JH JH, H) = -f'/f;
  * the second fundamental form of the fibers: nabla_xi xi = -f f' H and
    g(nabla_U U, H) = -r r' for base-unit horizontal U;
  * the twist component g(nabla_E F, xi) = (s f^2/(2 r^2)) g(E, J~F);
  * the mixed-plane curvature R(JH, U, U, JH) = s^2 f^2/(4 r^4) - f' r'/(f r),
    which collapses to -r''/r in the parallel case;
  * the degenerate components R(X, Y, Z, V) = 0 for X, Y, Z axial/fiber and
    V horizontal;
  * on the static circle bundle alpha^2 theta^2 + beta^2 h: the fiber Ricci
    eigenvalue s^2 alpha^2 (2m)/(4 beta^4) (m = 1 here) and the mixed
    curvature R(X, xi, Y, xi) = -(s^2 alpha^4/(4 beta^2)) h(X*, Y*);
  * the closed-form warp profile r = x + (y - x) sn^2(omega t | m) solves
    r'^2 = P(r) and r'' = P'(r)/2, and the reflection sn(K - u) = cn/dn,
    cn(K - u) = k' sn/dn, dn(K - u) = k'/dn that the profile evaluates past
    L/2 is the solution of the same system from the far turning point;
  * the closed-form Fubini-Study jets of ``FubiniStudy`` at m = 2: every
    entry of dh, d^2 h, d sigma and d^2 sigma, and d sigma = Omega;
  * on a non-diagonal 3 x 3 polynomial metric, the two curvature formulas of
    ``curvature.PointAnalysis``: the first-kind R_ijkl equals g_lb R^b_ijk
    built from d Gamma, and the contracted Ricci equals g^{il} R_ijkl;
  * on a generic metric in 3 coordinates, the contraction
    ``curvature.riemann_along`` reads: R(X, Y, ., .) of the first-kind form
    for constant X, Y equals (S - S^T)/2 + M - M^T with S = A(X, Y) - A(Y, X),
    A(U, W)[k, l] = U^m W^a d_m d_k g_al and M[k, l] = Gamma^b(X, e_k)
    Gamma_b(Y, e_l);
  * on the same metric, the contraction ``curvature.jacobi_operator`` reads:
    R(v, e_j, v, e_l) of the first-kind form for constant v equals
    (d_v d_v g + H(v, v) - C - C^T)/2 + Gamma_b(e_j, e_l) Gamma^b(v, v)
    - Gamma^b(v, e_j) Gamma_b(v, e_l) with H(v, v)[j, l] = v^a v^b d_j d_l g_ab
    and C[j, l] = d_l d_v g_jv.

Everything is exact symbolic algebra; the runtime is about a minute.
"""

import sympy as sp

t, psi, u, v = sp.symbols("t psi u v", real=True)
s, c0, al, be = sp.symbols("s c0 alpha beta", positive=True)
r = sp.Function("r", positive=True)(t)
f = sp.Function("f", positive=True)(t)


def christoffel(g, coords):
    d = len(coords)
    ginv = g.inv()
    gamma = [[[sp.Integer(0)] * d for _ in range(d)] for _ in range(d)]
    for k in range(d):
        for i in range(d):
            for j in range(i, d):
                expr = sum(
                    ginv[k, l] * (sp.diff(g[j, l], coords[i])
                                  + sp.diff(g[i, l], coords[j])
                                  - sp.diff(g[i, j], coords[l]))
                    for l in range(d))
                expr = sp.simplify(expr / 2)
                gamma[k][i][j] = expr
                gamma[k][j][i] = expr
    return gamma


def curvature(g, gamma, coords, X, Y, Z, W):
    """g(R(X, Y)Z, W) with R(X, Y) = [nabla_X, nabla_Y] - nabla_[X, Y]."""
    d = len(coords)
    total = sp.Integer(0)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if X[i] == 0 or Y[j] == 0 or Z[k] == 0:
                    continue
                for b in range(d):
                    rb = sp.diff(gamma[b][j][k], coords[i]) \
                        - sp.diff(gamma[b][i][k], coords[j]) \
                        + sum(gamma[b][i][a] * gamma[a][j][k]
                              - gamma[b][j][a] * gamma[a][i][k]
                              for a in range(d))
                    for l in range(d):
                        if W[l] == 0:
                            continue
                        total += X[i] * Y[j] * Z[k] * W[l] * g[b, l] * rb
    return sp.simplify(total)


def cov_deriv(gamma, coords, X, Y):
    d = len(coords)
    out = [sp.Integer(0)] * d
    for k in range(d):
        expr = sp.Integer(0)
        for i in range(d):
            if X[i] == 0:
                continue
            expr += X[i] * sp.diff(Y[k], coords[i])
            for j in range(d):
                if Y[j] != 0:
                    expr += X[i] * Y[j] * gamma[k][i][j]
        out[k] = sp.simplify(expr)
    return out


def dot(g, X, Y):
    return sp.simplify(sum(g[i, j] * X[i] * Y[j]
                           for i in range(g.shape[0])
                           for j in range(g.shape[0])
                           if X[i] != 0 and Y[j] != 0))


def check(label, expr, target=0):
    residual = sp.simplify(expr - target)
    status = "ok" if residual == 0 else f"MISMATCH: {residual}"
    print(f"  {label}: {status}")
    return residual == 0


def warped_block():
    print("warped total space (m = 1 slice):")
    coords = [t, psi, u, v]
    d = 4
    w2 = 1 + u ** 2 + v ** 2
    h0 = (4 / c0) / w2 ** 2
    sigma = [sp.Integer(0), sp.Integer(0), -(2 / c0) * v / w2, (2 / c0) * u / w2]
    theta = [sp.Integer(0), sp.Integer(1), s * sigma[2], s * sigma[3]]
    g = sp.zeros(d, d)
    g[0, 0] = 1
    for i in range(d):
        for j in range(d):
            g[i, j] += f ** 2 * theta[i] * theta[j]
    g[2, 2] += r ** 2 * h0
    g[3, 3] += r ** 2 * h0
    g = sp.simplify(g)

    J = sp.zeros(d, d)
    J[0, 1] = -f
    J[1, 0] = 1 / f
    J[0, 2] = -f * s * sigma[2]
    J[0, 3] = -f * s * sigma[3]
    J[1, 2] = -s * sigma[3]
    J[1, 3] = s * sigma[2]
    J[3, 2] = 1
    J[2, 3] = -1

    ok = True
    ok &= check("J o J = -identity", sp.simplify(J * J + sp.eye(d)).norm())
    ok &= check("g(J., J.) = g", sp.simplify(J.T * g * J - g).norm())

    gamma = christoffel(g, coords)

    fk = 2 * r * sp.diff(r, t) / s
    nj_entries = []
    for jj in range(d):
        for k in range(d):
            for i in range(d):
                expr = sp.diff(J[k, i], coords[jj]) + sum(
                    gamma[k][jj][a] * J[a, i] - gamma[a][jj][i] * J[k, a]
                    for a in range(d))
                nj_entries.append(sp.simplify(expr))
    parallel = all(sp.simplify(e.subs(f, fk).doit()) == 0 for e in nj_entries)
    perturbed = any(sp.simplify(e.subs(f, sp.Rational(101, 100) * fk).doit()) != 0
                    for e in nj_entries)
    print(f"  nabla J = 0 at f = 2 r r'/s: {'ok' if parallel else 'MISMATCH'}")
    print(f"  nabla J != 0 at 1.01 scaling: {'ok' if perturbed else 'MISMATCH'}")
    ok &= parallel and perturbed

    H = [sp.Integer(1), 0, 0, 0]
    xi = [0, sp.Integer(1), 0, 0]
    JH = [0, 1 / f, 0, 0]
    lift_u = [0, -s * sigma[2], sp.Integer(1), 0]
    lift_v = [0, -s * sigma[3], 0, sp.Integer(1)]

    njj = cov_deriv(gamma, coords, JH, JH)
    ok &= check("p* = -f'/f", dot(g, njj, H), -sp.diff(f, t) / f)

    nxx = cov_deriv(gamma, coords, xi, xi)
    ok &= check("nabla_xi xi = -f f' H",
                sum(sp.simplify(nxx[k] + f * sp.diff(f, t) * H[k]) ** 2
                    for k in range(d)))

    u_unit = [sp.simplify(c / sp.sqrt(h0)) for c in lift_u]
    nuu = cov_deriv(gamma, coords, u_unit, u_unit)
    ok &= check("g(nabla_U U, H) = -r r' (base-unit U)",
                dot(g, nuu, H), -r * sp.diff(r, t))

    nef = cov_deriv(gamma, coords, lift_u, lift_v)
    target = (s * f ** 2 / (2 * r ** 2)) * dot(g, lift_u, [-c for c in lift_u])
    ok &= check("twist g(nabla_E F, xi)", dot(g, nef, xi), target)

    n2 = sp.simplify(r ** 2 * h0)
    k_mix = sp.simplify(curvature(g, gamma, coords, JH, lift_u, lift_u, JH) / n2)
    mixed_form = s ** 2 * f ** 2 / (4 * r ** 4) - sp.diff(f, t) * sp.diff(r, t) / (f * r)
    ok &= check("R(JH, U, U, JH) closed form", k_mix, mixed_form)
    ok &= check("mixed curvature = -r''/r in the parallel case",
                sp.simplify(k_mix.subs(f, fk).doit()),
                -sp.diff(r, t, 2) / r)

    degen = [curvature(g, gamma, coords, X, Y, Z, lift_u).subs(f, fk).doit()
             for X in (H, xi) for Y in (H, xi) for Z in (H, xi)]
    ok &= check("degenerate components R(D, D, D, E)",
                sum(sp.simplify(x) ** 2 for x in degen))
    return ok


def bundle_block():
    print("static circle bundle (m = 1 slice):")
    coords = [psi, u, v]
    d = 3
    w2 = 1 + u ** 2 + v ** 2
    h0 = (4 / c0) / w2 ** 2
    sigma = [sp.Integer(0), -(2 / c0) * v / w2, (2 / c0) * u / w2]
    theta = [sp.Integer(1), s * sigma[1], s * sigma[2]]
    g = sp.zeros(d, d)
    for i in range(d):
        for j in range(d):
            g[i, j] += al ** 2 * theta[i] * theta[j]
    g[1, 1] += be ** 2 * h0
    g[2, 2] += be ** 2 * h0
    g = sp.simplify(g)
    gamma = christoffel(g, coords)
    ginv = g.inv()

    xi = [sp.Integer(1), 0, 0]
    lift_u = [-s * sigma[1], sp.Integer(1), 0]
    lift_v = [-s * sigma[2], 0, sp.Integer(1)]

    basis = [xi, lift_u, lift_v]
    ric = sp.zeros(d, d)
    for jj in range(d):
        for k in range(jj, d):
            val = sp.Integer(0)
            for i in range(d):
                for l in range(d):
                    ei = [sp.Integer(1) if x == i else sp.Integer(0) for x in range(d)]
                    el = [sp.Integer(1) if x == l else sp.Integer(0) for x in range(d)]
                    ej = [sp.Integer(1) if x == jj else sp.Integer(0) for x in range(d)]
                    ek = [sp.Integer(1) if x == k else sp.Integer(0) for x in range(d)]
                    val += ginv[i, l] * curvature(g, gamma, coords, ei, ej, ek, el)
            ric[jj, k] = sp.simplify(val)
            ric[k, jj] = ric[jj, k]

    ok = True
    lam = sp.simplify(dot(ric, xi, xi) / al ** 2)
    ok &= check("fiber Ricci eigenvalue = s^2 a^2 (2m)/(4 b^4), m = 1",
                lam, s ** 2 * al ** 2 / (2 * be ** 4))
    mixed = curvature(g, gamma, coords, lift_u, xi, lift_u, xi)
    ok &= check("R(X, xi, X, xi) = -(s^2 a^4/(4 b^2)) h(X*, X*)",
                mixed, -(s ** 2 * al ** 4 / (4 * be ** 2)) * h0)
    return ok


def fubini_study_block():
    """The closed-form jets of the Fubini-Study base at m = 2, entry by entry.

    With u = 1/(1 + |z|^2) and P = z z^T + (Jz)(Jz)^T, h = (4/c0)(u I - u^2 P)
    and sigma = (2/c0) u Jz.  ``FubiniStudy`` differentiates them by
    d u = -2 u^2 z, d^2 u = -2 u^2 I + 8 u^3 z z^T, dP linear in z and the
    constant d^2 P, assembled as below; sympy differentiates the definitions.
    """
    print("Fubini-Study closed-form jets (m = 2):")
    n = 4
    z = sp.Matrix(sp.symbols("z0:4", real=True))
    J = sp.zeros(n, n)
    for a in range(2):
        J[2 + a, a], J[a, 2 + a] = 1, -1
    I = sp.eye(n)
    jz = J * z
    w = 1 / (1 + (z.T * z)[0])
    P = z * z.T + jz * jz.T
    h = (4 / c0) * (w * I - w ** 2 * P)
    sigma = (2 / c0) * w * jz
    # the closed forms: dP[i, j, a] = e[i, j, a] + e[j, i, a] with
    # e[i, j, a] = delta_ia z_j + J_ia (Jz)_j, A = 4 u^3 P - 2 u^2 I,
    # C = 8 u^3 I - 24 u^4 P
    A = 4 * w ** 3 * P - 2 * w ** 2 * I
    C = 8 * w ** 3 * I - 24 * w ** 4 * P

    def dP(i, j, a):
        return I[i, a] * z[j] + J[i, a] * jz[j] + I[j, a] * z[i] + J[j, a] * jz[i]

    def d2P(i, j, a, b):
        return I[i, a] * I[j, b] + I[i, b] * I[j, a] + J[i, a] * J[j, b] + J[i, b] * J[j, a]

    def dh(i, j, a):
        return (4 / c0) * (A[i, j] * z[a] - w ** 2 * dP(i, j, a))

    def d2h(i, j, a, b):
        return (4 / c0) * (A[i, j] * I[a, b] + C[i, j] * z[a] * z[b]
                           + 4 * w ** 3 * (z[a] * dP(i, j, b) + z[b] * dP(i, j, a))
                           - w ** 2 * d2P(i, j, a, b))

    def dsigma(i, a):
        return (2 / c0) * (w * J[i, a] - 2 * w ** 2 * jz[i] * z[a])

    def d2sigma(i, a, b):
        return (2 / c0) * (jz[i] * (8 * w ** 3 * z[a] * z[b] - 2 * w ** 2 * I[a, b])
                           - 2 * w ** 2 * (z[a] * J[i, b] + z[b] * J[i, a]))

    def vanishes(exprs):
        return all(sp.cancel(e) == 0 for e in exprs)

    rng = range(n)
    ok = True
    for label, exprs in (
            ("dh", [sp.diff(h[i, j], z[a]) - dh(i, j, a)
                    for i in rng for j in rng for a in rng]),
            ("d2h", [sp.diff(h[i, j], z[a], z[b]) - d2h(i, j, a, b)
                     for i in rng for j in rng for a in rng for b in rng]),
            ("dsigma", [sp.diff(sigma[i], z[a]) - dsigma(i, a) for i in rng for a in rng]),
            ("d2sigma", [sp.diff(sigma[i], z[a], z[b]) - d2sigma(i, a, b)
                         for i in rng for a in rng for b in rng])):
        good = vanishes(exprs)
        print(f"  {label} closed form: {'ok' if good else 'MISMATCH'}")
        ok &= good
    # and the potential is the connection of the Kaehler form: d sigma = h(J., .)
    omega = J.T * h
    good = vanishes([sp.diff(sigma[j], z[i]) - sp.diff(sigma[i], z[j]) - omega[i, j]
                     for i in rng for j in rng])
    print(f"  d sigma = Omega: {'ok' if good else 'MISMATCH'}")
    return ok and good


def first_kind_block():
    """The two curvature formulas ``curvature.PointAnalysis`` evaluates, on a
    non-diagonal 3 x 3 metric with polynomial entries (det g = (1 + x1^2)
    (1 + x2^2), so log sqrt(det g) is not constant).

    R_ijkl in the first-kind form, (d_i d_k g_jl + d_j d_l g_ik - d_i d_l g_jk
    - d_j d_k g_il)/2 + Gamma_{b,jl} Gamma^b_ik - Gamma_{b,il} Gamma^b_jk, must
    equal g_lb R^b_ijk built from d Gamma; and Ricci as the code contracts it,
    d_i Gamma^i_jk - d_j d_k log sqrt(det g) + Gamma^i_ia Gamma^a_jk
    - Gamma^i_ja Gamma^a_ik with both derivative terms expanded in the metric
    jet, must equal g^{il} R_ijkl (of the first-kind form, once that is
    confirmed).
    """
    print("first-kind curvature and contracted Ricci (non-diagonal 3 x 3 metric):")
    d = 3
    x = sp.symbols("x1:4", real=True)
    # g = A^T W A with A unit upper triangular: g^-1 = A^-1 W^-1 A^-T, whose
    # only denominators are the two factors of det g
    A = sp.Matrix([[1, x[1], x[2]], [0, 1, x[0]], [0, 0, 1]])
    W = sp.diag(1 + x[0] ** 2, 1, 1 + x[1] ** 2)
    g = (A.T * W * A).applyfunc(sp.expand)
    ginv = A.inv() * W.inv() * A.inv().T
    rng = range(d)

    def vanishes(exprs):
        return all(sp.expand(sp.numer(sp.together(e))) == 0 for e in exprs)

    def dg(a, b, i):
        return sp.diff(g[a, b], x[i])

    def d2g(a, b, i, j):
        return sp.diff(g[a, b], x[i], x[j])

    first = [[[(dg(j, l, i) + dg(i, l, j) - dg(i, j, l)) / 2 for j in rng] for i in rng]
             for l in rng]
    gamma = [[[sum(ginv[k, l] * first[l][i][j] for l in rng) for j in rng]
              for i in rng] for k in rng]

    def reference(i, j, k, l):
        """g_lb R^b_ijk with R^b_ijk = d_i Gamma^b_jk - d_j Gamma^b_ik + ..."""
        return sum(g[l, b] * (sp.diff(gamma[b][j][k], x[i]) - sp.diff(gamma[b][i][k], x[j])
                              + sum(gamma[b][i][a] * gamma[a][j][k]
                                    - gamma[b][j][a] * gamma[a][i][k] for a in rng))
                   for b in rng)

    def first_kind(i, j, k, l):
        return ((d2g(j, l, i, k) + d2g(i, k, j, l) - d2g(j, k, i, l) - d2g(i, l, j, k)) / 2
                + sum(first[b][j][l] * gamma[b][i][k] - first[b][i][l] * gamma[b][j][k]
                      for b in rng))

    # both sides are antisymmetric in (i, j) term by term: i < j suffices
    ok = vanishes(first_kind(i, j, k, l) - reference(i, j, k, l)
                  for i in rng for j in rng if i < j for k in rng for l in rng)
    print(f"  R_ijkl first kind = g_lb R^b_ijk: {'ok' if ok else 'MISMATCH'}")

    # the three terms as PointAnalysis.ricci forms them from the jet
    w = [sum(ginv[i, b] * dg(a, b, i) for i in rng for b in rng) for a in rng]
    u_vec = [sum(ginv[l, a] * w[a] for a in rng) for l in rng]       # -d_i g^{il}
    ginv_dg = [ginv * sp.Matrix(d, d, lambda a, b: dg(a, b, m)) for m in rng]

    def hk(j, k):
        return sum(ginv[i, l] * d2g(j, l, i, k) for i in rng for l in rng)

    def div_gamma(j, k):
        return (-sum(u_vec[l] * first[l][j][k] for l in rng)
                + (hk(j, k) + hk(k, j)
                   - sum(ginv[i, l] * d2g(j, k, i, l) for i in rng for l in rng)) / 2)

    def log_det(j, k):
        return (sum(ginv[a, b] * d2g(a, b, j, k) for a in rng for b in rng)
                - (ginv_dg[j] * ginv_dg[k]).trace()) / 2

    def quadratic(j, k):
        return sum(gamma[i][i][a] * gamma[a][j][k] - gamma[i][j][a] * gamma[a][i][k]
                   for i in rng for a in rng)

    log_sqrt_det = sp.log(g.det()) / 2
    pairs = [(j, k) for j in rng for k in rng]
    for label, exprs in (
            ("d_i Gamma^i_jk", [div_gamma(j, k) - sum(sp.diff(gamma[i][j][k], x[i]) for i in rng)
                                for j, k in pairs]),
            ("d_j d_k log sqrt(det g)", [log_det(j, k) - sp.diff(log_sqrt_det, x[j], x[k])
                                         for j, k in pairs]),
            ("contracted Ricci = g^il R_ijkl",
             [div_gamma(j, k) - log_det(j, k) + quadratic(j, k)
              - sum(ginv[i, l] * first_kind(i, j, k, l) for i in rng for l in rng)
              for j, k in pairs])):
        good = vanishes(exprs)
        print(f"  {label}: {'ok' if good else 'MISMATCH'}")
        ok &= good
    return ok


def generic_metric():
    """A generic metric in 3 coordinates, six free functions g_ab(x1, x2, x3),
    as (d2g, det(g), first-kind symbols, det(g) Gamma^k_ij, det(g) R_ijkl of
    the first-kind form).  Every term holds g^-1 at most once, so with
    g^-1 = adj(g)/det(g) each quantity times det(g) is a polynomial in the
    jet of g, and two of them are compared by expansion."""
    d = 3
    rng = range(d)
    x = sp.symbols("x1:4", real=True)
    g = sp.Matrix(d, d, lambda a, b: sp.Function(f"g{min(a, b) + 1}{max(a, b) + 1}")(*x))
    det, adj = g.det(), g.adjugate()

    def dg(a, b, i):
        return sp.diff(g[a, b], x[i])

    def d2g(a, b, i, j):
        return sp.diff(g[a, b], x[i], x[j])

    first = [[[(dg(j, l, i) + dg(i, l, j) - dg(i, j, l)) / 2 for j in rng] for i in rng]
             for l in rng]
    gamma_det = [[[sum(adj[k, l] * first[l][i][j] for l in rng) for j in rng]
                  for i in rng] for k in rng]

    def first_kind_det(i, j, k, l):
        return (det * (d2g(j, l, i, k) + d2g(i, k, j, l) - d2g(j, k, i, l) - d2g(i, l, j, k)) / 2
                + sum(first[b][j][l] * gamma_det[b][i][k] - first[b][i][l] * gamma_det[b][j][k]
                      for b in rng))

    return d2g, det, first, gamma_det, first_kind_det


def riemann_along_block():
    """R(X, Y, e_k, e_l) for constant X and Y, contracted from the first-kind
    form, against the formula ``curvature.riemann_along`` evaluates, on the
    generic metric (``generic_metric``)."""
    print("R(X, Y, ., .) contracted from the jet (generic 3 x 3 metric):")
    rng = range(3)
    X, Y = sp.symbols("X1:4", real=True), sp.symbols("Y1:4", real=True)
    d2g, det, first, gamma_det, first_kind_det = generic_metric()

    def A(U, W, k, l):
        return sum(U[m] * W[a] * d2g(a, l, m, k) for m in rng for a in rng)

    def S(k, l):
        return A(X, Y, k, l) - A(Y, X, k, l)

    def M_det(k, l):
        """det(g) Gamma^b(X, e_k) Gamma_b(Y, e_l)"""
        return sum(sum(X[i] * gamma_det[b][i][k] for i in rng)
                   * sum(Y[j] * first[b][j][l] for j in rng) for b in rng)

    ok = all(sp.expand(sum(X[i] * Y[j] * first_kind_det(i, j, k, l) for i in rng for j in rng)
                       - det * (S(k, l) - S(l, k)) / 2 - M_det(k, l) + M_det(l, k)) == 0
             for k in rng for l in rng)
    print(f"  R(X, Y, e_k, e_l) = (S - S^T)/2 + M - M^T: {'ok' if ok else 'MISMATCH'}")
    return ok


def jacobi_operator_block():
    """K[j, l] = R(v, e_j, v, e_l) for constant v, contracted from the
    first-kind form, against the formula ``curvature.jacobi_operator``
    evaluates, on the generic metric (``generic_metric``):

        K = (d_v d_v g + H(v, v) - C - C^T) / 2 + Gamma_b(., .) Gamma^b(v, v)
            - Gamma^b(v, .)^T Gamma_b(v, .),

    H(v, v)[j, l] = v^a v^b d_j d_l g_ab and C[j, l] = d_l d_v g_jv.
    """
    print("R(v, ., v, .) contracted from the jet (generic 3 x 3 metric):")
    rng = range(3)
    v = sp.symbols("v1:4", real=True)
    d2g, det, first, gamma_det, first_kind_det = generic_metric()
    # det(g) Gamma^b(v, v), det(g) Gamma^b(v, e_j) and Gamma_b(v, e_l)
    w_det = [sum(v[i] * v[k] * gamma_det[b][i][k] for i in rng for k in rng) for b in rng]
    along_det = [[sum(v[i] * gamma_det[b][i][j] for i in rng) for j in rng] for b in rng]
    first_along = [[sum(v[i] * first[b][i][l] for i in rng) for l in rng] for b in rng]

    def C(j, l):
        return sum(v[m] * v[a] * d2g(j, a, l, m) for m in rng for a in rng)

    def K_det(j, l):
        slots = sum(v[m] * v[a] * (d2g(j, l, m, a) + d2g(m, a, j, l)) for m in rng for a in rng)
        return (det * (slots - C(j, l) - C(l, j)) / 2
                + sum(first[b][j][l] * w_det[b] - along_det[b][j] * first_along[b][l]
                      for b in rng))

    ok = all(sp.expand(sum(v[i] * v[k] * first_kind_det(i, j, k, l) for i in rng for k in rng)
                       - K_det(j, l)) == 0
             for j in rng for l in rng)
    print(f"  R(v, e_j, v, e_l) = (d_v d_v g + H(v, v) - C - C^T)/2 + Gamma_b Gamma^b(v, v)"
          f" - Gamma^b(v, .)^T Gamma_b(v, .): {'ok' if ok else 'MISMATCH'}")
    return ok


def profile_block():
    """sn, cn, dn as symbols S, C, D with dS = CD, dC = -SD, dD = -m SC per
    unit of u = omega t, reduced by C^2 = 1 - S^2 and D^2 = 1 - m S^2."""
    print("closed-form warp profile r = x + (y - x) sn^2(omega t | m):")
    S, C, D, x, y, kp = sp.symbols("S C D x y kp", positive=True)

    def d_du(expr, m):
        return (sp.diff(expr, S) * C * D - sp.diff(expr, C) * S * D
                - sp.diff(expr, D) * m * S * C)

    def reduced(expr, m):
        return sp.simplify(expr.subs({C: sp.sqrt(1 - S ** 2), D: sp.sqrt(1 - m * S ** 2)}))

    m = (y - x) / y
    omega = sp.sqrt(s / (x * (y - x))) / 2
    c3 = s / (x * y * (y - x))
    z = sp.Symbol("z")
    P = c3 * (z - x) * (z - y) * (z - x - y)
    r = x + (y - x) * S ** 2
    rp = omega * d_du(r, m)
    rpp = omega * d_du(rp, m)
    ok = True
    ok &= check("r' = 2 (y - x) omega sn cn dn", rp - 2 * (y - x) * omega * S * C * D)
    ok &= check("r'^2 = P(r)", reduced(rp ** 2 - P.subs(z, r), m))
    ok &= check("r'' = P'(r)/2", reduced(rpp - sp.diff(P, z).subs(z, r) / 2, m))

    # (cn/dn, k' sn/dn, k'/dn) solves the system run backwards, d/du of
    # f(K - u) being -f'(K - u), with the same two relations, and at u = K
    # (sn, cn, dn = 1, 0, k') it takes the values (0, 1, 1) of u' = 0
    m = 1 - kp ** 2
    Sr, Cr, Dr = C / D, kp * S / D, kp / D
    ok &= check("reflected sn' = -cn dn", reduced(d_du(Sr, m) + Cr * Dr, m))
    ok &= check("reflected cn' = sn dn", reduced(d_du(Cr, m) - Sr * Dr, m))
    ok &= check("reflected dn' = m sn cn", reduced(d_du(Dr, m) - m * Sr * Cr, m))
    ok &= check("reflected cn^2 + sn^2 = 1", reduced(Cr ** 2 + Sr ** 2 - 1, m))
    ok &= check("reflected dn^2 + m sn^2 = 1", reduced(Dr ** 2 + m * Sr ** 2 - 1, m))
    at_k = {S: 1, C: 0, D: kp}
    ok &= check("reflected values at u = K",
                (sp.Matrix([Sr, Cr, Dr]).subs(at_k) - sp.Matrix([0, 1, 1])).norm())
    return ok


if __name__ == "__main__":
    good = warped_block()
    good &= bundle_block()
    good &= fubini_study_block()
    good &= first_kind_block()
    good &= riemann_along_block()
    good &= jacobi_operator_block()
    good &= profile_block()
    print("symbolic validation:", "all identities confirmed" if good else "FAILURES")
    raise SystemExit(0 if good else 1)
