#!/usr/bin/env python3
"""Run the Jacobi decay experiment and export the sampled diagnostics.

The fiber Killing field restricts to a Jacobi field along the axial geodesic;
its norm must track the warp factor f(t) = 2 r r'/s all the way into the
collapsing end of the chart, and the ratio kappa/|C| must obey the transport
law d/dt log(kappa/|C|) = -kappa theta(c')/(n-1).  This script integrates the
field, prints the headline numbers and writes the row-by-row CSV.
"""

import argparse
from pathlib import Path

from qchgeom import FubiniStudy, WarpedBundleMetric, build_polynomial, solve_profile
from qchgeom.flows import jacobi_decay_experiment
from qchgeom.geometry import END_MARGIN_FRAC


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--c0", type=float, default=4.0)
    parser.add_argument("--k", type=int, default=1, help="pitch numerator, s = 2k/n")
    parser.add_argument("--x", type=float, default=1.0)
    parser.add_argument("--y", type=float, default=2.0)
    parser.add_argument("--start", type=float, default=0.2,
                        help="start of the geodesic as a fraction of L")
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--out", default="decay.csv")
    args = parser.parse_args()

    s = 2.0 * args.k / args.n
    profile = solve_profile(build_polynomial(args.x, args.y, s))
    model = WarpedBundleMetric(profile, FubiniStudy(args.n - 1, args.c0))
    L = profile.L
    t_end = L * (1.0 - END_MARGIN_FRAC)
    report = jacobi_decay_experiment(model, args.start * L, t_end, samples=args.samples)
    print(f"profile: L = {L:.12f}, s = {s:.6f}, window [{args.start * L:.4f}, {t_end:.4f}]")
    residuals = report.residuals()
    for label, check in (("max | |C| - f |", "decay_norm_tracks_warp"),
                         ("max ratio-law residual", "decay_ratio_law"),
                         ("collapse factor", "decay_collapse"),
                         ("max |g(c', C)|", "decay_velocity_inner"),
                         ("geodesic residual", "geodesic_residual")):
        print(f"{label:<22}: {residuals[check].max():.3e}")
    for name, stats in (("geodesic", report.geodesic_stats), ("jacobi", report.jacobi_stats)):
        print(f"{name + ' solve':<22}: {stats.nfev} exact evaluations, {stats.steps} panels")
    report.to_csv(args.out)
    print(f"rows written to {Path(args.out).resolve()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
