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
from dataclasses import dataclass, replace

from .cfmm import arbitrage_to_price, pool_init
from .errors import InvalidParameterError
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
        for a, b in zip(self.times, self.times[1:]):
            if not a < b:
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


@dataclass(frozen=True)
class EarningsReport:
    """Per-step arbitrage profits and the two-leg decomposition of the total."""

    step_profits: tuple
    total_w: float
    payoff_term: float
    path_term: float


def gbm_path(params: GbmParams) -> PricePath:
    """Sample one path; identical seeds give identical paths."""
    rng = SplitMix64(params.seed)
    dt = params.horizon / params.steps
    vol = params.sigma * math.sqrt(dt)
    drift = -0.5 * params.sigma * params.sigma * dt
    prices = [params.p_start]
    p = params.p_start
    for _ in range(params.steps):
        p *= math.exp(vol * rng.normal() + drift)
        prices.append(p)
    times = tuple(i * dt for i in range(params.steps + 1))
    return PricePath(times, tuple(prices))


def run_arbitrage(profile: ReplicationProfile, path: PricePath) -> EarningsReport:
    """Arbitrage the pool along the path and report earnings.

    Prices are clamped into [alpha, beta] first: outside the interval the
    payoff extends constant, the portfolio is static, and no profit moves.
    g runs once per price, when the pool is minted: the reserve held into
    a step, r2 = g(P_{i-1}), also gives that step's path-leg term.
    """
    clamped = [profile.interval.clamp(p) for p in path.prices]
    pool = pool_init(profile, clamped[0])
    profits = []
    legs = []
    for p in clamped[1:]:
        legs.append(pool.r2 * (p - pool.price))
        pool, step = arbitrage_to_price(pool, p)
        profits.append(step.profit)

    payoff_term = profile.portfolio_value(clamped[0]) - profile.portfolio_value(clamped[-1])
    return EarningsReport(
        step_profits=tuple(profits),
        total_w=math.fsum(profits),
        payoff_term=payoff_term,
        path_term=math.fsum(legs),
    )


def monte_carlo_reports(profile: ReplicationProfile, params: GbmParams, n_paths: int):
    """One earnings report per independent path; path i uses seed + i.

    A Monte Carlo estimate needs at least two paths for its standard error.
    """
    if n_paths < 2:
        raise InvalidParameterError(f"n_paths must be >= 2, got {n_paths}")
    reports = []
    for i in range(n_paths):
        path = gbm_path(replace(params, seed=params.seed + i))
        reports.append(run_arbitrage(profile, path))
    return reports


def earnings_mean_stderr(totals) -> tuple:
    """Mean and standard error of per-path total earnings (two or more)."""
    n = len(totals)
    mean = math.fsum(totals) / n
    var = math.fsum((w - mean) ** 2 for w in totals) / (n - 1)
    return mean, math.sqrt(var / n)


def monte_carlo_earnings(profile: ReplicationProfile, params: GbmParams, n_paths: int):
    """Mean and standard error of total earnings over independent paths.

    Reproducible from the base seed.  Returns (mean, standard error,
    per-path totals).
    """
    totals = [r.total_w for r in monte_carlo_reports(profile, params, n_paths)]
    mean, stderr = earnings_mean_stderr(totals)
    return mean, stderr, totals
