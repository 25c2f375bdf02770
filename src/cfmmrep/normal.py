"""Standard normal distribution helpers.

The CDF goes through the complementary error function, which keeps the
tails accurate to machine precision.  The inverse CDF is the standard
library's NormalDist().inv_cdf (Wichura's Algorithm AS 241), within a few
ulps over the whole open interval, with -inf and inf at 0 and 1.
"""

import math
from statistics import NormalDist

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

_inv_cdf = NormalDist().inv_cdf


def norm_pdf(x: float) -> float:
    """Density of the standard normal."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x: float) -> float:
    """P(Z <= x) for standard normal Z."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_inv(p: float) -> float:
    """Quantile function: x with norm_cdf(x) == p, for p in [0, 1]."""
    if 0.0 < p < 1.0:
        return _inv_cdf(p)
    if p == 0.0 or p == 1.0:
        return math.inf if p else -math.inf
    raise ValueError(f"probability must lie in [0, 1], got {p}")


def norm_invs(ps) -> list:
    """norm_inv of each probability in ps."""
    inv = _inv_cdf
    return [inv(p) if 0.0 < p < 1.0 else norm_inv(p) for p in ps]
