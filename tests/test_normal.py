"""Normal CDF/quantile accuracy against a numeric-integration oracle."""

import math

import pytest
from scipy.integrate import quad

from cfmmrep.normal import norm_cdf, norm_inv, norm_pdf


def cdf_by_integration(x: float) -> float:
    """Independent oracle: integrate the density from 0 to x."""
    value, err = quad(norm_pdf, 0.0, x, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    return 0.5 + value


def test_cdf_at_zero():
    assert norm_cdf(0.0) == 0.5


def test_cdf_against_integration_oracle():
    for x in (-3.0, -1.0, -0.5, 0.1, 0.5, 1.0, 1.96, 2.5, 4.0):
        oracle = cdf_by_integration(x)
        assert abs(norm_cdf(x) - oracle) <= 1e-12, f"x={x}"


def test_cdf_at_1_96():
    oracle = cdf_by_integration(1.96)
    assert norm_cdf(1.96) == pytest.approx(oracle, abs=1e-12)
    assert round(norm_cdf(1.96), 6) == 0.975002


def test_pdf_is_cdf_derivative():
    h = 1e-6
    for x in (-2.0, -0.3, 0.0, 0.7, 2.5):
        diff = (norm_cdf(x + h) - norm_cdf(x - h)) / (2 * h)
        assert diff == pytest.approx(norm_pdf(x), rel=1e-8)


def test_inverse_round_trip():
    for p in (1e-12, 1e-6, 0.02425, 0.1, 0.25, 0.5, 0.7, 0.97575, 1 - 1e-6):
        x = norm_inv(p)
        assert norm_cdf(x) == pytest.approx(p, rel=1e-11, abs=1e-15), f"p={p}"


def test_inverse_accuracy_against_oracle():
    # Invert the integration oracle by bisection, independently of norm_inv.
    def oracle_inv(p, lo=-10.0, hi=10.0):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if cdf_by_integration(mid) < p:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    for p in (0.1, 0.5, 0.975002104851780,):
        assert norm_inv(p) == pytest.approx(oracle_inv(p), abs=1e-9)


def test_inverse_edges():
    assert norm_inv(0.0) == -math.inf
    assert norm_inv(1.0) == math.inf
    with pytest.raises(ValueError):
        norm_inv(-0.1)
    with pytest.raises(ValueError):
        norm_inv(1.1)
    with pytest.raises(ValueError):
        norm_inv(math.nan)


def test_symmetry():
    for p in (0.01, 0.2, 0.49):
        assert norm_inv(p) == pytest.approx(-norm_inv(1.0 - p), rel=1e-12)


def test_extreme_tails_do_not_overflow():
    # Down to the smallest positive double the quantile stays finite and
    # ordered; the refinement is skipped where exp(x^2/2) would overflow.
    previous = 0.0
    for p in (1e-100, 1e-300, 5e-324):
        x = norm_inv(p)
        assert math.isfinite(x) and x < previous
        previous = x
