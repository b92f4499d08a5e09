import numpy as np
import pytest

from qchgeom import (
    CircleBundleMetric,
    FubiniStudy,
    ProductBase,
    WarpedBundleMetric,
    build_polynomial,
    solve_profile,
)
from qchgeom.curvature import PointAnalysis
from qchgeom.suite import sample_interior_points

# one desk-scale configuration shared by the whole suite:
# n = 3 (real dimension 6), base curvature 4, pitch s = 2/3, endpoints (1, 2)
N = 3
C0 = 4.0
S = 2.0 / 3.0
X_END, Y_END = 1.0, 2.0


@pytest.fixture(scope="session")
def cubic():
    return build_polynomial(X_END, Y_END, S)


@pytest.fixture(scope="session")
def profile(cubic):
    return solve_profile(cubic)


@pytest.fixture(scope="session")
def warped(profile):
    return WarpedBundleMetric(profile, FubiniStudy(N - 1, C0))


@pytest.fixture(scope="session")
def product(profile):
    return WarpedBundleMetric(profile, FubiniStudy(N - 1, C0), product_mode=True)


@pytest.fixture(scope="session")
def perturbed(profile):
    return WarpedBundleMetric(profile, FubiniStudy(N - 1, C0), warp_scale=1.01)


@pytest.fixture(scope="session")
def negative(profile):
    base = ProductBase([FubiniStudy(1, C0), FubiniStudy(1, C0)])
    return WarpedBundleMetric(profile, base)


@pytest.fixture(scope="session")
def circle_bundle():
    return CircleBundleMetric(1.0, 1.0, S, FubiniStudy(2, C0))


def _analyses(model, seed, count):
    rng = np.random.default_rng(seed)
    points = sample_interior_points(model, rng, count)
    return [PointAnalysis(model, p) for p in points]


@pytest.fixture(scope="session")
def warped_analyses(warped):
    """Ten analyzed points for the unit tests (acceptance uses its own 50)."""
    return _analyses(warped, 101, 10)


@pytest.fixture(scope="session")
def sample_point(profile):
    return np.array([0.4 * profile.L, 0.3, 0.2, -0.1, 0.15, 0.05])


@pytest.fixture(scope="session")
def warped_point_analysis(warped, sample_point):
    return PointAnalysis(warped, sample_point)
