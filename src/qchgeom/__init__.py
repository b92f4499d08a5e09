"""Numerical toolkit for warped circle-bundle Kaehler metrics with
quasi-constant holomorphic sectional curvature, and for verifying their
curvature identities at machine precision on sampled points."""

from .geometry import (
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    BaseChartMetric,
    WarpedBundleMetric,
)
from .jets import Jet2, seed_chart
from .profile import (
    CubicProfilePolynomial,
    ProfileSolution,
    boundary_report,
    build_polynomial,
    period_length,
    solve_profile,
)

__all__ = [
    "CircleBundleMetric", "FubiniStudy", "ProductBase", "BaseChartMetric",
    "WarpedBundleMetric", "Jet2", "seed_chart",
    "CubicProfilePolynomial", "ProfileSolution", "boundary_report",
    "build_polynomial", "period_length", "solve_profile",
]

__version__ = "0.1.0"
