"""Normal CDF/quantile accuracy against a numeric-integration oracle."""

import math
import re

import pytest
from scipy.integrate import quad

from cfmmrep.normal import _P_LOW, norm_cdf, norm_inv, norm_pdf


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


# norm_inv's bits at its branch edges, the ends of [0, 1] and deep in the
# tails, as (p, norm_inv(p)) by float.hex: _P_LOW and 1 - _P_LOW with the
# doubles on either side, 0 and 1 with the doubles inside, and the smallest
# subnormal, 1e-300 and 1 - 2**-53.
NORM_INV_BITS = [
    ("0x0.0p+0", "-inf"),
    ("0x0.0000000000001p-1022", "-0x1.33bd3f31179e2p+5"),
    ("0x1.fffffffffffffp-1", "0x1.06b48525582dap+3"),
    ("0x1.0000000000000p+0", "inf"),
    ("0x1.8d4fdf3b645a1p-6", "-0x1.f913f9b7aa943p+0"),
    ("0x1.8d4fdf3b645a2p-6", "-0x1.f913f9b7aa943p+0"),
    ("0x1.8d4fdf3b645a3p-6", "-0x1.f913f9b7aa942p+0"),
    ("0x1.f395810624dd2p-1", "0x1.f913f9b7aa93ep+0"),
    ("0x1.f395810624dd3p-1", "0x1.f913f9b7aa943p+0"),
    ("0x1.f395810624dd4p-1", "0x1.f913f9b7aa949p+0"),
    ("0x1.56e1fc2f8f359p-997", "-0x1.286074064c26ep+5"),
]


def test_inverse_keeps_its_bits_at_edges():
    assert float.fromhex(NORM_INV_BITS[4][0]) == math.nextafter(_P_LOW, 0.0)
    assert float.fromhex(NORM_INV_BITS[8][0]) == 1.0 - _P_LOW
    assert float.fromhex(NORM_INV_BITS[10][0]) == 1e-300
    for p, x in NORM_INV_BITS:
        assert norm_inv(float.fromhex(p)).hex() == x, p


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.1, -5e-324, math.nextafter(1.0, 2.0)])
def test_inverse_rejects_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=re.escape(f"probability must lie in [0, 1], got {p}")):
        norm_inv(p)
