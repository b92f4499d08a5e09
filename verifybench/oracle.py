"""Known answer of each verification job, stated from the paper's theorems.

Nothing here is captured from the program's output.  For a configuration the
oracle says which checks a report must contain, with how many samples each,
which must be in order, which must fail, and the exit code.  Residual values
are never compared: they may move in the last bits between versions.

* Every metric field is Riemannian, so positive definiteness, the
  orthonormal frame, torsion-freeness, the curvature symmetries, the first
  Bianchi identity and Ricci symmetry hold whatever the warp.  The same holds
  for J^2 = -1, the Hermitian property (J is built from the same f as g), the
  connection form and the solved profile.
* With f = 2 r r'/s the warped, product and negative-control metrics are
  Kaehler, and the warped and product ones are QCH: every check holds.
* The negative control is Kaehler but its base has no constant holomorphic
  curvature, so its QCH fit must fail decisively (an expected failure that
  counts as in order).
* Scaling f by perturb_f != 1 gives dOmega = (2 r r' - s f) dt ^ omega != 0 at
  interior points: the Kaehler form is not closed and nabla J != 0, so the
  run exits 1 with both checks failing.
* The odd-dimensional circle bundle has no J; its submersion closed forms
  hold for every admissible alpha, beta, c0.
"""

from __future__ import annotations

from dataclasses import dataclass

PROFILE_CHECKS = {"profile_constraints": 1, "profile_boundary": 1,
                  "profile_first_integral": 400, "profile_length_agreement": 1}
RIEMANNIAN_CHECKS = ("metric_positive_definite", "frame_orthonormality",
                     "christoffel_symmetry", "theta_normalization",
                     "curvature_antisymmetry", "curvature_pair_symmetry",
                     "bianchi_first", "ricci_symmetry")
HERMITIAN_CHECKS = ("complex_structure_involution", "hermitian_metric")
KAEHLER_CHECKS = ("kahler_form_closed", "nabla_j", "curvature_kahler_type",
                  "ricci_j_invariance")
TWIST_CHECKS = ("connection_form_derivative", "theta_derivative")
BUNDLE_CHECKS = ("base_einstein", "bundle_fiber_ricci", "bundle_mixed_fiber_curvature",
                 "bundle_fiber_sectional", "bundle_vertizontal",
                 "bundle_twist_operator", "bundle_horizontal_ricci")
PRODUCT_CHECKS = ("kappa_vanishes", "ricci_lambda", "ricci_mu")
WARPED_CHECKS = ("qch_coefficient_a", "qch_coefficient_base_independence",
                 "ricci_lambda", "ricci_mu", "ricci_off_block", "ricci_e_block",
                 "kappa_closed_form", "kappa_section_independence",
                 "principal_section", "identity_p", "identity_p_star",
                 "identity_log_kappa_gradient", "identity_nabla_theta",
                 "identity_gradient_a", "identity_gradient_b", "potential_killing",
                 "identity_eps_forms", "totally_geodesic_d", "potential_hessian",
                 "submersion_fiber_t", "submersion_horizontal_t", "submersion_twist",
                 "submersion_mixed_curvature", "submersion_degenerate")
# the decay experiment samples the Jacobi field 160 times along the axis and
# re-checks the geodesic equation at 7 interior parameters
DECAY_CHECKS = {"decay_norm_tracks_warp": 160, "decay_ratio_law": 160,
                "decay_collapse": 1, "decay_velocity_inner": 160,
                "geodesic_residual": 7}
FIT_SAMPLES_PER_POINT = 100
BIANCHI2_POINTS = 2


@dataclass(frozen=True)
class KnownAnswer:
    exit_code: int
    samples: dict[str, int]      # every check the report must contain
    in_order: frozenset[str]     # checks that must be in order
    must_fail: frozenset[str]    # checks that must not be in order
    expected_fail: frozenset[str]  # negative controls, in order when failing


@dataclass(frozen=True)
class Miss:
    kind: str    # exit, crash, missing, samples, not_in_order, must_fail, expected_fail
    check: str = ""
    detail: str = ""

    def __str__(self) -> str:
        return ":".join(p for p in (self.kind, self.check, self.detail) if p)


def known_answer(config: dict) -> KnownAnswer:
    mode = config["mode"]
    n_pts = config.get("sample_count", 50)
    s = config["s"] if config.get("s") is not None else 2.0 * config["k"] / config.get("n", 3)
    samples = {name: n_pts for name in RIEMANNIAN_CHECKS}
    samples["bianchi_second_spot"] = min(BIANCHI2_POINTS, n_pts)
    if mode != "product" and s != 0.0:
        samples.update({name: n_pts for name in TWIST_CHECKS})
    expected_fail: set[str] = set()
    perturbed = config.get("perturb_f", 1.0) != 1.0

    if mode == "circle-bundle":
        samples.update({name: n_pts for name in BUNDLE_CHECKS})
    else:
        samples.update(PROFILE_CHECKS)
        samples.update({name: n_pts for name in HERMITIAN_CHECKS + KAEHLER_CHECKS})
        samples["qch_fit_residual"] = n_pts * FIT_SAMPLES_PER_POINT
        if mode == "product":
            samples.update({name: n_pts for name in PRODUCT_CHECKS})
        elif mode == "negative-control":
            expected_fail.add("qch_fit_residual")
        else:
            samples.update({name: n_pts for name in WARPED_CHECKS})
            if not perturbed:
                samples.update(DECAY_CHECKS)

    if perturbed:
        must_fail = frozenset({"kahler_form_closed", "nabla_j"})
        holds = set(RIEMANNIAN_CHECKS) | set(HERMITIAN_CHECKS) | set(PROFILE_CHECKS)
        holds |= set(TWIST_CHECKS) & set(samples)
        return KnownAnswer(1, samples, frozenset(holds), must_fail, frozenset())
    return KnownAnswer(0, samples, frozenset(samples), frozenset(),
                       frozenset(expected_fail))


def check(config: dict, exit_code, report: dict | None) -> list[Miss]:
    """Every way a job's outcome departs from its known answer (empty when it matches).

    `exit_code` is None when `cli.main` raised.  Checks the report holds
    beyond the known answer are ignored, so a new check is never a miss.
    """
    answer = known_answer(config)
    if exit_code is None:
        return [Miss("crash")]
    misses = []
    if exit_code != answer.exit_code:
        misses.append(Miss("exit", detail=f"{exit_code}!={answer.exit_code}"))
    if report is None:
        return misses + [Miss("missing", "report.json")]
    by_name = {c["name"]: c for c in report["checks"]}
    for name, count in sorted(answer.samples.items()):
        got = by_name.get(name)
        if got is None:
            misses.append(Miss("missing", name))
            continue
        if got["samples"] != count:
            misses.append(Miss("samples", name, f"{got['samples']}!={count}"))
        if name in answer.in_order and not got["in_order"]:
            misses.append(Miss("not_in_order", name))
        if name in answer.must_fail and got["in_order"]:
            misses.append(Miss("must_fail", name))
        if got["expected_fail"] != (name in answer.expected_fail):
            misses.append(Miss("expected_fail", name))
    return misses


def explained_by(misses: list[Miss], defect_checks: set[str]) -> bool:
    """Whether a miss is exactly a listed known defect: failing checks from
    the list and the exit code they cause, nothing else."""
    failing = {m.check for m in misses if m.kind == "not_in_order"}
    return bool(failing) and failing <= defect_checks and all(
        m.kind in ("exit", "not_in_order") for m in misses)
