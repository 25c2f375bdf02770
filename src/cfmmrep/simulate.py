"""Price paths and arbitrageur-earnings simulation.

A price path is repeatedly arbitraged against a pool; each step books the
realignment profit.  The total decomposes exactly (discrete summation by
parts) into a payoff leg and a path leg:

    W = sum of step profits
      = [V(P_0) - V(P_T)]  +  sum of g(P_{i-1}) * (P_i - P_{i-1})

where the path leg uses left-endpoint evaluation; any other endpoint
breaks the discrete identity.  For a driftless geometric Brownian motion
the path leg has zero mean, which is what makes the logarithmic payoff's
expected earnings behave like half the realized variance.

GBM steps are exact in the log (no discretization bias in the path law);
normals come from the seeded SplitMix64 stream, so a path is a pure
function of its seed.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate

from .cfmm import arbitrage_to_price  # noqa: F401  (traced by name in bench/spans.py)
from .errors import InvalidParameterError, NumericalError
from .replication import ReplicationProfile
from .rng import SplitMix64


@dataclass(frozen=True)
class PricePath:
    """Time-indexed positive prices; times strictly increase from 0."""

    times: tuple
    prices: tuple

    def __post_init__(self):
        if len(self.times) != len(self.prices) or not self.times:
            raise InvalidParameterError("times and prices must be nonempty, same length")
        if self.times[0] != 0.0:
            raise InvalidParameterError("path must start at time 0")
        if not all(map(operator.lt, self.times, self.times[1:])):
            raise InvalidParameterError("times must be strictly increasing")
        for p in self.prices:
            if not (p > 0.0 and math.isfinite(p)):
                raise InvalidParameterError(f"prices must be positive, got {p}")


@dataclass(frozen=True)
class GbmParams:
    """Driftless lognormal diffusion: dP = P * sigma * dW."""

    p_start: float
    sigma: float
    horizon: float
    steps: int
    seed: int

    def __post_init__(self):
        if not (self.p_start > 0.0 and math.isfinite(self.p_start)):
            raise InvalidParameterError(f"p_start must be positive, got {self.p_start}")
        if self.sigma < 0.0 or not math.isfinite(self.sigma):
            raise InvalidParameterError(f"sigma must be >= 0, got {self.sigma}")
        if not (self.horizon > 0.0 and math.isfinite(self.horizon)):
            raise InvalidParameterError(f"horizon must be positive, got {self.horizon}")
        if not isinstance(self.steps, int) or not isinstance(self.seed, int):
            raise InvalidParameterError("steps and seed must be integers")
        if self.steps < 1:
            raise InvalidParameterError(f"steps must be >= 1, got {self.steps}")
        if self.steps > sys.float_info.max:  # horizon / steps needs a float
            raise InvalidParameterError("steps must be at most the largest float")


@dataclass(frozen=True)
class EarningsReport:
    """Per-step arbitrage profits and the two-leg decomposition of the total."""

    step_profits: tuple
    total_w: float
    payoff_term: float
    path_term: float


@lru_cache(maxsize=1)  # every path of a run shares one time grid
def _times(dt: float, steps: int) -> tuple:
    return tuple([i * dt for i in range(steps + 1)])


def gbm_path(params: GbmParams) -> PricePath:
    """Sample one path; identical seeds give identical paths.

    Raises NumericalError when a step takes the price out of the positive
    float range (to inf, or to 0 by underflow).
    """
    dt = params.horizon / params.steps
    if not dt > 0.0:
        raise InvalidParameterError(f"time step {params.horizon} / {params.steps} underflows to 0")
    vol = params.sigma * math.sqrt(dt)
    drift = -0.5 * params.sigma * params.sigma * dt
    exp = math.exp
    moves = [exp(vol * z + drift) for z in SplitMix64(params.seed).normals(params.steps)]
    prices = list(accumulate(moves, operator.mul, initial=params.p_start))
    # Moves are exp(...) >= 0, so a price that reached inf, 0 or nan stays
    # out of range: a path that left the range ends outside it.
    if not 0.0 < prices[-1] < math.inf:
        step = next(i for i, p in enumerate(prices) if not 0.0 < p < math.inf)
        raise NumericalError(
            f"price path left the float range at step {step} of {params.steps}: "
            f"{prices[step - 1]!r} became {prices[step]!r}")
    # dt > 0 and the range check above stand in for PricePath's own checks.
    path = object.__new__(PricePath)
    path.__dict__.update(times=_times(dt, params.steps), prices=tuple(prices))
    return path


def run_arbitrage(profile: ReplicationProfile, path: PricePath) -> EarningsReport:
    """Arbitrage the pool along the path and report earnings.

    A path that leaves [alpha, beta] is clamped into it first (p > inf is
    False): outside the interval the payoff extends constant and the
    portfolio is static, so a step out of the interval is booked at its edge,
    not at the market.  The pool after each step holds (f(P_i), g(P_i)), so
    one sweep of f and g over the prices gives every step profit

        P_i * (g(P_{i-1}) - g(P_i)) + f(P_{i-1}) - f(P_i),

    every path-leg term g(P_{i-1}) * (P_i - P_{i-1}) and V = f + p * g at the
    ends, bit for bit as arbitrage_to_price and portfolio_value compute them.
    """
    alpha, beta = profile.interval.alpha, profile.interval.beta
    lo, hi = min(path.prices), max(path.prices)
    prices = (path.prices if alpha <= lo <= hi <= beta
              else [alpha if p < alpha else beta if p > beta else p for p in path.prices])
    lo, hi = min(max(lo, alpha), beta), min(max(hi, alpha), beta)  # the clamped ends
    r1, r2 = profile._portfolios(prices, lo, hi)
    after = prices[1:]
    profits = [p * (g0 - g1) + f0 - f1
               for p, f0, f1, g0, g1 in zip(after, r1, r1[1:], r2, r2[1:])]
    legs = [g0 * (p - p0) for p0, p, g0 in zip(prices, after, r2)]

    payoff_term = (r1[0] + prices[0] * r2[0]) - (r1[-1] + prices[-1] * r2[-1])  # prices > 0
    try:
        total_w, path_term = math.fsum(profits), math.fsum(legs)
    except (OverflowError, ValueError):  # a partial sum past the float range, or inf - inf
        total_w = path_term = math.nan
    if not all(map(math.isfinite, (total_w, payoff_term, path_term))):
        raise NumericalError(
            f"the earnings along the path from {prices[0]!r} leave the float range")
    return EarningsReport(
        step_profits=tuple(profits),
        total_w=total_w,
        payoff_term=payoff_term,
        path_term=path_term,
    )


def monte_carlo_reports(profile: ReplicationProfile, params: GbmParams, n_paths: int):
    """An iterator of one earnings report per independent path (seed + i for
    path i), each computed as it is read: wrap it in list() to keep them all.

    A standard error needs two paths; n_paths >= 2 is checked at the call.
    """
    if n_paths < 2:
        raise InvalidParameterError(f"n_paths must be >= 2, got {n_paths}")
    return (run_arbitrage(profile, gbm_path(replace(params, seed=params.seed + i)))
            for i in range(n_paths))


def earnings_mean_stderr(totals) -> tuple:
    """Mean and standard error of per-path total earnings (two or more)."""
    n = len(totals)
    if n < 2:
        raise InvalidParameterError(f"a standard error needs two or more totals, got {n}")
    mean = math.fsum(totals) / n
    try:
        var = math.fsum((w - mean) ** 2 for w in totals) / (n - 1)
    except OverflowError:
        raise NumericalError(
            f"the variance of the path earnings overflows the float range "
            f"(mean {mean!r})") from None
    return mean, math.sqrt(var / n)


def monte_carlo_earnings(profile: ReplicationProfile, params: GbmParams, n_paths: int):
    """Mean and standard error of total earnings over independent paths.

    Reproducible from the base seed.  Returns (mean, standard error,
    per-path totals).
    """
    totals = [r.total_w for r in monte_carlo_reports(profile, params, n_paths)]
    mean, stderr = earnings_mean_stderr(totals)
    return mean, stderr, totals
