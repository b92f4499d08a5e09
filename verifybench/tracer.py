"""Outside-in tracer for qchgeom: spans and counts at each module's entry points.

The program is not edited.  `Tracer.install` replaces each target where it is
looked up: a module-level function in every loaded `qchgeom` module that binds
it (so `qchgeom.suite.fit_qch_coefficients` and `qchgeom.qch`'s own internal
calls are both seen), a method or cached property on its class (the cache is
kept: only the first access of a property runs, and is timed).  A target that
no longer exists is recorded as absent and the run goes on, so the tracer
survives refactors that delete or rename code.

Spans (name, start, end, parent, job) are kept in memory and written out at the
end.  A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    module: str
    path: str            # "name" or "Class.attribute"
    name: str            # span or counter name
    kind: str = "span"   # span | count | points | memo | base | ivp


# the span around each whole job; its self time is what no layer span covers
ROOT_SPAN = "cli.main"

SUITE_FAMILIES = (
    ("_metric_invariant_checks", "suite.metric_invariants"),
    ("_curvature_invariant_checks", "suite.curvature_invariants"),
    ("_nabla_j_check", "suite.nabla_j"),
    ("_warped_structure_checks", "suite.structure"),
    ("_decay_checks", "suite.decay"),
    ("_profile_checks", "suite.profile_checks"),
)
_QCH = (
    ("fit_qch_coefficients", "qch.fit"),
    ("structure_identity_residuals", "qch.structure_identities"),
    ("warped_submersion_residuals", "qch.submersion"),
    ("coefficient_base_independence", "qch.base_independence"),
    ("ricci_split", "qch.ricci_split"),
    ("section_divergences", "qch.section_divergences"),
    ("qch_residual_samples", "qch.residual_samples"),
    ("circle_bundle_residuals", "qch.circle_bundle"),
)
_CURVATURE_OPERATORS = ("covariant_vector_derivative", "killing_deviation",
                        "hessian_form", "div_e", "j_gradient_field",
                        "max_frame_component_3tensor", "metric_inverse_jets")
_FIELDS = ("WarpedBundleMetric", "CircleBundleMetric", "BaseChartMetric")

TARGETS: tuple[Target, ...] = (
    Target("qchgeom.cli", "main", ROOT_SPAN),
    Target("qchgeom.cli", "_effective_config", "cli.config"),
    Target("qchgeom.cli", "emit_report", "cli.report"),
    Target("qchgeom.cli", "print_report", "cli.report"),
    Target("qchgeom.suite", "run_suite", "suite.run_suite"),
    *(Target("qchgeom.suite", fn, name) for fn, name in SUITE_FAMILIES),
    Target("qchgeom.suite", "sample_interior_points", "curvature.sampled_points",
           kind="points"),
    Target("qchgeom.profile", "solve_profile", "profile.solve_profile"),
    Target("qchgeom.jets", "Jet2.__init__", "jets.objects", kind="count"),
    *(Target("qchgeom.geometry", f"{cls}.metric_jets", "geometry.metric_jets")
      for cls in _FIELDS),
    Target("qchgeom.geometry", "WarpedBundleMetric.complex_structure_jets",
           "geometry.complex_structure_jets"),
    Target("qchgeom.geometry", "BaseChartMetric.complex_structure_jets",
           "geometry.complex_structure_jets"),
    *(Target("qchgeom.geometry", f"{cls}.frame_at", "geometry.frame_at")
      for cls in _FIELDS),
    Target("qchgeom.geometry", "WarpedBundleMetric._base_at", "geometry.base_lookups",
           kind="memo"),
    Target("qchgeom.geometry", "FubiniStudy.metric_jets", "geometry.base_evals",
           kind="base"),
    Target("qchgeom.geometry", "ProductBase.metric_jets", "geometry.base_evals",
           kind="base"),
    Target("qchgeom.curvature", "PointAnalysis.__init__", "curvature.point_analyses",
           kind="count"),
    *(Target("qchgeom.curvature", f"PointAnalysis.{prop}", f"curvature.{prop}")
      for prop in ("metric", "connection", "riemann", "ricci", "complex_structure")),
    Target("qchgeom.curvature", "nabla_j", "curvature.nabla_j"),
    Target("qchgeom.curvature", "second_bianchi_residual", "curvature.second_bianchi"),
    *(Target("qchgeom.curvature", fn, "curvature.operators")
      for fn in _CURVATURE_OPERATORS),
    *(Target("qchgeom.qch", fn, name) for fn, name in _QCH),
    Target("qchgeom.flows", "jacobi_decay_experiment", "flows.experiment"),
    Target("qchgeom.flows", "integrate_geodesic", "flows.geodesic"),
    Target("qchgeom.flows", "integrate_jacobi", "flows.jacobi"),
    Target("qchgeom.flows", "geodesic_residuals", "flows.residuals"),
    Target("qchgeom.flows", "jacobi_equation_residual", "flows.residuals"),
    # scipy's integrator as `flows` looks it up; nfev and steps come from its result
    Target("qchgeom.flows", "solve_ivp", "flows", kind="ivp"),
)


class Tracer:
    """Span and counter store; one per traced worker process."""

    def __init__(self):
        self.job = ""
        self.spans: list[list] = []      # [name, start, end, parent index, job]
        self.stack: list[list] = []      # [span index, target path, child time]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._base_depth = 0
        self._memo_depth = 0

    # -- installation ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            try:
                self._install(target)
            except (ImportError, AttributeError, TypeError) as exc:
                self.absent.append(f"{target.module}:{target.path} ({exc})")

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." not in target.path:
            original = getattr(module, target.path)
            if not callable(original):
                raise TypeError("not callable")
            wrapped = self._wrap(target, original)
            if target.kind == "ivp":
                setattr(module, target.path, wrapped)
                return
            for name, mod in list(sys.modules.items()):
                if name != "qchgeom" and not name.startswith("qchgeom."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
            return
        cls_name, attr = target.path.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__.get(attr)
        if isinstance(original, functools.cached_property):
            replacement = functools.cached_property(self._wrap(target, original.func))
            replacement.__set_name__(cls, attr)
        elif isinstance(original, property):
            replacement = property(self._wrap(target, original.fget))
        elif callable(original):
            replacement = self._wrap(target, original)
        else:
            raise AttributeError(f"{cls_name} defines no callable {attr}")
        setattr(cls, attr, replacement)

    def _wrap(self, target: Target, fn):
        if target.kind == "span":
            wrapper = self._span_wrapper(target, fn)
        elif target.kind == "count":
            wrapper = self._count_wrapper(target.name, fn)
        elif target.kind == "points":
            wrapper = self._points_wrapper(target.name, fn)
        elif target.kind == "memo":
            wrapper = self._memo_wrapper(target.name, fn)
        elif target.kind == "base":
            wrapper = self._base_wrapper(target.name, fn)
        elif target.kind == "ivp":
            wrapper = self._ivp_wrapper(fn)
        else:
            raise TypeError(f"unknown target kind {target.kind!r}")
        return functools.wraps(fn)(wrapper)

    # -- wrappers ----------------------------------------------------------------

    def _span_wrapper(self, target: Target, fn):
        name, path = target.name, target.path
        spans, stack = self.spans, self.stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, self.job]
            frame = [len(spans), path, 0.0]
            spans.append(record)
            stack.append(frame)
            start = record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = record[2] = clock()
                stack.pop()
                duration = end - start
                self_s[name] += duration - frame[2]
                total_s[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][2] += duration
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _points_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            points = fn(*args, **kwargs)
            self.counts[name] += len(points)
            return points
        return wrapper

    def _memo_wrapper(self, name: str, fn):
        """Counts lookups of the warped bundle's base-slice memo; a silent frame
        (no span) that marks the base evaluations made inside it as misses."""
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            self._memo_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._memo_depth -= 1
        return wrapper

    def _base_wrapper(self, name: str, fn):
        """Counts base-model evaluations made inside the base-slice memo, i.e.
        its misses, whichever span looked it up (outermost call only: a product
        base evaluates its factors inside)."""
        def wrapper(*args, **kwargs):
            if self._base_depth == 0 and self._memo_depth:
                self.counts[name] += 1
            self._base_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._base_depth -= 1
        return wrapper

    def _ivp_wrapper(self, fn):
        """Reads nfev and accepted steps from each solve, by enclosing flow, and
        counts failed solves."""
        flows = {"integrate_geodesic": "flows.geodesic", "integrate_jacobi": "flows.jacobi"}

        def wrapper(*args, **kwargs):
            layer = next((flows[frame[1]] for frame in reversed(self.stack)
                          if frame[1] in flows), None)
            try:
                sol = fn(*args, **kwargs)
            except Exception:
                self.counts["flows.errors"] += 1
                raise
            if not sol.success:
                self.counts["flows.errors"] += 1
            if layer is not None:
                self.counts[f"{layer}.nfev"] += int(sol.nfev)
                self.counts[f"{layer}.steps"] += len(sol.t) - 1
            return sol
        return wrapper

    # -- output ------------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
