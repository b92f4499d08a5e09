"""Configuration, orchestration and report emission.

Subcommands:

* ``solve-profile`` -- build the cubic and its closed-form warp profile, export
  the profile table (CSV) and print the boundary report.
* ``verify`` -- run the verification suite for the configured mode and write
  the JSON report; exit code 0 iff every enabled check is in order.
* ``sample`` -- tabulate (t, r, f, a, b, c, lambda, mu, kappa) along the axis
  for plotting.
* ``report`` -- pretty-print a previously written JSON report.

Exit codes: 0 all checks in order, 1 verification failure, 2 configuration
or usage error or unreadable report, 3 numerical/integration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
import typing
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .curvature import batch_analyses
from .flows import FlowError
from .profile import ProfileError, boundary_report, build_polynomial, solve_profile
from .qch import fit_qch_coefficients, ricci_split, section_divergences
from .suite import SAMPLE_MARGIN, VerificationReport, build_model, run_suite

MODES = ("warped", "product", "circle-bundle", "negative-control")


class ConfigError(ValueError):
    """Invalid run configuration."""


@dataclass(kw_only=True)
class RunConfig:
    """Validated configuration of one verification run: the model, its sample
    count and its seed."""

    mode: str
    rng_seed: int
    n: int = 3
    c0: float = 4.0
    k: int
    x: float = 1.0
    y: float = 2.0
    alpha: float = 1.0
    beta: float = 1.0
    sample_count: int = 50
    perturb_f: float = 1.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.rng_seed, int) or self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        if self.n < 3:
            raise ConfigError(f"constraint n >= 3 violated (n = {self.n})")
        if self.c0 <= 0:
            raise ConfigError(f"constraint c0 > 0 violated (c0 = {self.c0})")
        if self.mode != "circle-bundle" and not self.s > 0:
            raise ConfigError(f"constraint s > 0 violated outside circle-bundle mode "
                              f"(s = {self.s})")
        if not (0 < self.x < self.y):
            raise ConfigError(f"constraint 0 < x < y violated (x = {self.x}, y = {self.y})")
        if self.sample_count < 10:
            raise ConfigError(f"constraint sample_count >= 10 violated ({self.sample_count})")
        if self.alpha <= 0 or self.beta <= 0:
            raise ConfigError("constraint alpha, beta > 0 violated")
        if self.perturb_f == 0:
            raise ConfigError("constraint perturb_f != 0 violated (f must not vanish)")
        if self.perturb_f != 1 and self.mode in ("product", "circle-bundle"):
            # the product's (t, psi) block is Kaehler for any f; the bundle has no f
            raise ConfigError(f"perturb_f != 1 would break nothing in {self.mode} mode")
        if self.mode == "negative-control" and self.n != 3:
            raise ConfigError(
                "negative-control mode uses a product of two projective lines, "
                "which requires n = 3")

    @property
    def s(self) -> float:
        """The pitch s = 2k/n of the bundle."""
        return 2.0 * self.k / self.n

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        missing = [k for k in ("mode", "rng_seed", "k") if k not in data]
        if missing:
            raise ConfigError(f"missing required configuration keys: {missing}")
        hints = typing.get_type_hints(cls)
        return cls(**{key: _typed(key, value, hints[key]) for key, value in data.items()})


_KINDS = {int: "an integer", float: "a finite number", str: "a string"}


def _typed(key: str, value, kind):
    """A configuration value checked against its field's type: no booleans,
    an int wherever a float is allowed (converted), and only finite floats."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if (isinstance(value, bool) or not isinstance(value, kind)
            or (kind is float and not math.isfinite(value))):
        raise ConfigError(f"configuration key {key!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def parse_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(data)


# -- emission -------------------------------------------------------------------


def emit_report(report: VerificationReport, path) -> dict:
    """Write the report as JSON, stamped with ``generated_at``, and return the
    dict written."""
    payload = report.to_dict()
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def emit_summary_csv(config: RunConfig, path, points: int) -> None:
    """Axis table (t, r, f, a, b, c, lambda, mu, kappa) for plotting."""
    model = build_model(config)
    profile = model.profile
    lo = SAMPLE_MARGIN * profile.L
    hi = (1.0 - SAMPLE_MARGIN) * profile.L
    ts = np.linspace(lo, hi, points)
    axis = np.zeros((points, model.dim))
    axis[:, 0] = ts
    r, rp, rpp, rppp = profile.evaluate(ts)
    columns = [ts, r, profile.warp_from(r, rp, rpp, rppp)[0]]
    parts = []
    for _, analysis in batch_analyses(model, axis):
        fit = fit_qch_coefficients(analysis)
        rs = ricci_split(analysis, fit, model.n)
        d1, d2 = section_divergences(analysis, model)
        parts.append((fit.a, fit.b, fit.c, rs.lam_engine, rs.mu_engine, np.hypot(d1, d2)))
    columns += [np.concatenate(col) for col in zip(*parts)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "r", "f", "a", "b", "c", "lambda", "mu", "kappa"])
        for row in zip(*columns):
            writer.writerow([format(v, ".17g") for v in row])


def print_report(report_dict: dict, stream=None) -> None:
    stream = stream if stream is not None else sys.stdout
    checks = report_dict["checks"]
    width = max(len(c["name"]) for c in checks)
    print(f"mode: {report_dict['mode']}   seed: "
          f"{report_dict['environment']['seed']}", file=stream)
    for c in checks:
        status = "pass" if c["pass"] else "FAIL"
        if c["expected_fail"]:
            status = "xfail" if c["in_order"] else "XPASS?"
        print(f"  {c['name']:<{width}}  {status:>6}  "
              f"max {c['max_residual']:.3e}  tol {c['tolerance']:.1e}  "
              f"[{c['claim']}]", file=stream)
    verdict = "ALL CHECKS IN ORDER" if report_dict["all_pass"] else "FAILURES PRESENT"
    print(verdict, file=stream)


def show_saved_report(path) -> int:
    """Print a written report; exit 0 if all its checks were in order, 1 if
    not, 2 if the file cannot be read or is not a report."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        text = io.StringIO()
        print_report(data, text)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"cannot read report: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text.getvalue())
    return 0 if data["all_pass"] else 1


# -- entry point ----------------------------------------------------------------


def _effective_config(args) -> RunConfig:
    if args.config:
        data = parse_config(args.config).to_dict()
    else:
        data = {"mode": "warped", "rng_seed": 42, "k": 1}
    if args.mode:
        data["mode"] = args.mode
    if args.seed is not None:
        data["rng_seed"] = args.seed
    if args.command == "verify" and args.points is not None:
        data["sample_count"] = args.points
    config = RunConfig.from_dict(data)
    if args.command == "sample":
        if config.mode == "circle-bundle":
            raise ConfigError("sample tabulates the t axis of the warped chart, "
                              "which circle-bundle mode does not have")
        if args.points is not None and args.points < 1:
            raise ConfigError(f"sample needs --points >= 1, got {args.points}")
    return config


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: building it costs about a
    millisecond, a visible share of a small verify run made in-process."""
    parser = argparse.ArgumentParser(
        prog="qchgeom",
        description="construct warped circle-bundle Kaehler metrics and verify "
                    "their curvature identities numerically")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("solve-profile", "solve the warp profile and export it as CSV"),
        ("verify", "run the verification suite and write the JSON report"),
        ("sample", "tabulate the structure functions along the axis"),
        ("report", "pretty-print a previously written report"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--out", default=".", help="output directory")
        if name == "report":
            p.add_argument("path", nargs="?", default=None,
                           help="report file (default <out>/report.json)")
            continue
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--mode", choices=MODES, help="override the configured mode")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        if name in ("verify", "sample"):
            p.add_argument("--points", type=int,
                           help="override sample_count (verify) or the table rows (sample)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out_dir = Path(args.out)
    if args.command == "report":
        return show_saved_report(args.path or out_dir / "report.json")

    try:
        config = _effective_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "solve-profile":
            poly = build_polynomial(config.x, config.y, config.s)
            solution = solve_profile(poly)
            solution.export_csv(out_dir / "profile.csv")
            print(f"half-period length L = {solution.L:.12f} "
                  f"(quadrature {solution.quadrature_length:.12f})")
            for name, value in boundary_report(solution).items():
                print(f"  {name}: {value:.3e}")
            print(f"profile table written to {out_dir / 'profile.csv'}")
            return 0

        if args.command == "verify":
            report = run_suite(config)
            print_report(emit_report(report, out_dir / "report.json"))
            return 0 if report.all_pass else 1

        if args.command == "sample":
            emit_summary_csv(config, out_dir / "summary.csv", args.points or 100)
            print(f"summary table written to {out_dir / 'summary.csv'}")
            return 0

    except (ProfileError, FlowError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
