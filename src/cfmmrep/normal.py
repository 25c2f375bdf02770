"""Standard normal distribution helpers.

The CDF goes through the complementary error function, which keeps the
tails accurate to machine precision.  The inverse CDF is a rational
approximation polished by one Halley step against that CDF, so both
directions agree to well under 1e-12.  It is written once, as the list
kernel norm_invs; norm_inv is that kernel on a one-element tuple.
"""

import math

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Below this tail mass (and above 1 minus it) the inverse CDF's initial
# guess switches from the central rational form to the tail form.
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def norm_pdf(x: float) -> float:
    """Density of the standard normal."""
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def norm_cdf(x: float) -> float:
    """P(Z <= x) for standard normal Z."""
    return 0.5 * math.erfc(-x / _SQRT2)


def norm_inv(p: float) -> float:
    """Quantile function: x with norm_cdf(x) == p, for p in (0, 1)."""
    return norm_invs((p,))[0]


def norm_invs(ps) -> list:
    """norm_inv of each probability in ps, bit for bit, in one loop."""
    out = []
    erfc, exp, log, sqrt = math.erfc, math.exp, math.log, math.sqrt
    for p in ps:
        # Rational initial guess (Acklam; relative error ~1.15e-9), one form
        # for the centre and one, odd about p = 1/2, for the tails.  Most
        # draws land in the centre, tested first: there |x| < 2, so only the
        # tails need the domain check (NaN fails the centre's test too) and
        # the overflow guard.
        if _P_LOW <= p <= _P_HIGH:
            q = p - 0.5
            r = q * q
            x = ((((((-3.969683028665376e+01 * r + 2.209460984245205e+02) * r
                     - 2.759285104469687e+02) * r + 1.383577518672690e+02) * r
                   - 3.066479806614716e+01) * r + 2.506628277459239e+00) * q
                 / (((((-5.447609879822406e+01 * r + 1.615858368580409e+02) * r
                       - 1.556989798598866e+02) * r + 6.680131188771972e+01) * r
                     - 1.328068155288572e+01) * r + 1.0))
        else:
            if not 0.0 < p < 1.0:
                if p != 0.0 and p != 1.0:
                    raise ValueError(f"probability must lie in [0, 1], got {p}")
                out.append(math.inf if p == 1.0 else -math.inf)
                continue
            q = sqrt(-2.0 * log(p if p < 0.5 else 1.0 - p))
            x = ((((((-7.784894002430293e-03 * q - 3.223964580411365e-01) * q
                     - 2.400758277161838e+00) * q - 2.549732539343734e+00) * q
                   + 4.374664141464968e+00) * q + 2.938163982698783e+00)
                 / ((((7.784695709041462e-03 * q + 3.224671290700398e-01) * q
                      + 2.445134137142996e+00) * q + 3.754408661907416e+00) * q + 1.0))
            if p > 0.5:
                x = -x
            if 0.5 * x * x > 700.0:
                # exp(x^2/2) would overflow; out here the guess's ~1e-9
                # relative accuracy already exceeds what doubles resolve in p.
                out.append(x)
                continue
        # One Halley step against norm_cdf; the guess is good enough that
        # this converges fully.
        u = (0.5 * erfc(-x / _SQRT2) - p) * _SQRT_2PI * exp(0.5 * x * x)
        out.append(x - u / (1.0 + 0.5 * x * u))
    return out
