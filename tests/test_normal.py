"""Normal CDF/quantile accuracy against a numeric-integration oracle and scipy."""

import math
import re

import pytest
from scipy.integrate import quad
from scipy.special import ndtri

from cfmmrep.normal import norm_cdf, norm_inv, norm_invs, norm_pdf
from cfmmrep.rng import SplitMix64


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


def test_list_inverse_edges():
    # The list form sends 0 and 1 to norm_inv, not to the standard library's
    # quantile, which rejects them.
    assert norm_invs([0.0, 0.5, 1.0]) == [-math.inf, 0.0, math.inf]


def test_symmetry():
    for p in (0.01, 0.2, 0.49):
        assert norm_inv(p) == pytest.approx(-norm_inv(1.0 - p), rel=1e-12)


def test_extreme_tails_do_not_overflow():
    # Down to the smallest positive double the quantile stays finite and ordered.
    previous = 0.0
    for p in (1e-100, 1e-300, 5e-324):
        x = norm_inv(p)
        assert math.isfinite(x) and x < previous
        previous = x


def test_inverse_within_ulps_of_scipy():
    # Within 8 ulps of max(|x|, 1) of scipy's ndtri: on seeded uniforms, down
    # the lower tail to 2**-1000, and up the upper tail, where p = 1 - 2**-k
    # holds the fewest digits of its distance from 1.
    rng = SplitMix64(2024)
    ps = [rng.uniform() for _ in range(3000)]
    ps += [2.0 ** -k for k in range(1, 1001)] + [1.0 - 2.0 ** -k for k in range(1, 54)]
    for p in ps:
        want = float(ndtri(p))
        assert abs(norm_inv(p) - want) <= 8 * math.ulp(max(abs(want), 1.0)), p


# norm_inv's bits at the ends of [0, 1], deep in the tails and at the branch
# edges of Wichura's AS 241, as (p, norm_inv(p)) by float.hex: 0 and 1 with
# the doubles inside, the smallest subnormal and 1e-300; the central form
# holds |p - 1/2| <= 0.425, shown at 0.075 and 0.925 with the doubles on
# either side; the far-tail form starts below sqrt(-log(p)) = 5, shown by the
# last double it takes, the first one it does not, and exp(-25).
NORM_INV_BITS = [
    ("0x0.0p+0", "-inf"),
    ("0x0.0000000000001p-1022", "-0x1.33bd3f27fcd02p+5"),
    ("0x1.fffffffffffffp-1", "0x1.06b48528cea51p+3"),
    ("0x1.0000000000000p+0", "inf"),
    ("0x1.56e1fc2f8f359p-997", "-0x1.286074064c26ep+5"),
    ("0x1.3333333333332p-4", "-0x1.7085226d3e522p+0"),
    ("0x1.3333333333333p-4", "-0x1.7085226d3e523p+0"),
    ("0x1.3333333333334p-4", "-0x1.7085226d3e523p+0"),
    ("0x1.d999999999999p-1", "0x1.7085226d3e521p+0"),
    ("0x1.d99999999999ap-1", "0x1.7085226d3e524p+0"),
    ("0x1.d99999999999bp-1", "0x1.7085226d3e528p+0"),
    ("0x1.e8a37a45fc300p-37", "-0x1.aa1b1c13ee528p+2"),
    ("0x1.e8a37a45fc301p-37", "-0x1.aa1b1c13ee525p+2"),
    ("0x1.e8a37a45fc32ep-37", "-0x1.aa1b1c13ee525p+2"),
]


def test_inverse_keeps_its_bits_at_edges():
    p = [float.fromhex(p) for p, _ in NORM_INV_BITS]
    assert p[4] == 1e-300 and p[6] == 0.075 and p[9] == 0.925 and p[13] == math.exp(-25)
    assert abs(p[5] - 0.5) > 0.425 >= abs(p[6] - 0.5)
    assert abs(p[8] - 0.5) <= 0.425 < abs(p[9] - 0.5)
    assert math.sqrt(-math.log(p[11])) > 5.0 >= math.sqrt(-math.log(p[12]))
    assert p[12] == math.nextafter(p[11], 1.0)
    for p, x in NORM_INV_BITS:
        assert norm_inv(float.fromhex(p)).hex() == x, p


@pytest.mark.parametrize("p", [math.nan, -0.1, 1.1, -5e-324, math.nextafter(1.0, 2.0)])
def test_inverse_rejects_outside_the_unit_interval(p):
    with pytest.raises(ValueError, match=re.escape(f"probability must lie in [0, 1], got {p}")):
        norm_inv(p)
