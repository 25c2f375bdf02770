"""Trading functions and a fee-free pool over a replication profile.

The trading function over reserves (r1 numeraire, r2 risky) is

    psi(r1, r2) = r1 + p* r2 - V(p*),   p* = g_inverse(r2),

the closed form of  inf over p in [alpha, beta] of (r1 + p r2 - V(p)).
Its zero level set is exactly the liquidity-provider curve
{(f(p), g(p))}, psi is nondecreasing in both reserves, and concave.  The
infimum itself is also evaluated directly (grid plus golden-section) as a
numerical cross-check oracle for the closed path.  The oracle's price grid
and V on it depend only on the grid's ends and size, never on the reserves,
so each TradingFunction memoises them per grid; V is evaluated directly, as
f from the segments plus p g(p) in portfolio_value's operation order, so the
oracle stays independent of the closed path.  A call scans only the grid
blocks that an exact bound (rounding is monotone) cannot rule out.

Pools are immutable values: operations return new states.  Trades are
accepted exactly when they do not decrease the invariant level (fee-free
semantics), and arbitrage jumps straight to the optimal allocation
(f(p_ext), g(p_ext)), which maximizes the arbitrageur's one-shot profit.
Both use only f and g; a minted pool's level is zero, derived on demand.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field

from .errors import (
    InvalidParameterError,
    InvalidReservesError,
    NumericalError,
    UnboundedTradingFunctionError,
)
from .replication import ReplicationProfile, infinite_cost_error

_TRADE_TOL = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_BLOCK = 16  # grid points per block of the infimum oracle's first-minimum scan


@dataclass(frozen=True)
class TradingFunction:
    """The pool invariant induced by a replication profile."""

    profile: ReplicationProfile
    # (lo, top, grid_points) -> (grid prices, V at each, block bounds or None
    # if the Vs' sum is not finite), filled by trading_function_infimum.  A
    # write that races another thread only stores the same values again.
    _grids: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _first_minimum(r1: float, r2: float, candidates: list, v_grid: list, blocks) -> tuple:
    """(index, value) of the grid's first minimum (see trading_function_infimum)."""
    def objective(pairs) -> list:
        return [r1 + (0.0 if p == 0.0 else p * r2) - v for p, v in pairs]

    runs = [(0, candidates, v_grid)]  # the plain scan
    if blocks is not None and math.isfinite(r1) and math.isfinite(r2):
        bounds = objective(blocks)
        k = bounds.index(min(bounds)) * _BLOCK
        cap = min(objective(zip(candidates[k:k + _BLOCK], v_grid[k:k + _BLOCK])))
        kept = [i * _BLOCK for i, b in enumerate(bounds) if b <= cap]
        if 4 * len(kept) <= len(bounds):
            runs = [(i, candidates[i:i + _BLOCK], v_grid[i:i + _BLOCK]) for i in kept]
    best = None
    for lo, prices, vs in runs:
        values = objective(zip(prices, vs))
        least = min(values)
        if best is None or least < best[1]:  # a tie keeps the earlier point
            best = lo + values.index(least), least
    return best


def _check_reserves(tf: TradingFunction, r1: float, r2: float):
    if r1 < 0.0 or r2 < 0.0 or math.isnan(r1) or math.isnan(r2):
        raise InvalidReservesError(f"reserves must be nonnegative, got ({r1}, {r2})")
    # The admissible risky reserve is [g(beta), g(alpha)] = [0, g(alpha)].
    if not r2 <= tf.profile.g_alpha:
        raise InvalidReservesError(
            f"risky reserve {r2} outside the valid range [0.0, {tf.profile.g_alpha}]")
    # With no risky reserve the minimizing price runs to beta; the level is
    # -inf exactly when the portfolio value is unbounded there.
    if (r2 == 0.0 and not tf.profile.interval.bounded
            and math.isinf(tf.profile.payoff.limit_at_infinity())):
        raise UnboundedTradingFunctionError(
            "trading function is -inf at zero risky reserve: "
            "the portfolio value is unbounded on this interval")


def trading_function_eval(tf: TradingFunction, r1: float, r2: float) -> float:
    """psi(r1, r2) through g_inverse and the portfolio value."""
    _check_reserves(tf, r1, r2)
    p_star = tf.profile.g_inverse_value(r2)
    if p_star == math.inf and r2 > 0.0:  # the true p* is finite: inf is overflow
        raise NumericalError(f"price at risky reserve {r2!r} overflows the float range")
    # At r2 = 0, p* r2 = 0 by the 0 * inf convention and V(inf) is V's limit.
    value = 0.0 if p_star == 0.0 or r2 == 0.0 else p_star * r2
    return r1 + value - tf.profile.portfolio_value(p_star)


def trading_function_infimum(
    tf: TradingFunction,
    r1: float,
    r2: float,
    grid_points: int = 512,
) -> float:
    """inf over prices of r1 + p*r2 - V(p), evaluated directly.

    Log-spaced grid over the interval (cut where r2 - g(p) turns positive
    when beta is unbounded; when alpha is 0, its floor walks down while
    g(floor) < r2), then golden-section refinement on the bracketing cell.
    Used as the independent oracle for trading_function_eval.  The grid, V
    on it and each block of _BLOCK points' lowest price and highest V are
    memoised on tf, keyed by the grid's ends and size.  V is f from the
    segments plus p*g(p), with g from profile.g at every grid point, in
    portfolio_value's operation order, never from a closed form.

    Its first minimum comes from a pruned scan: rounding is monotone and
    r2 >= 0, so no point of a block is below r1 + pmin*r2 - vmax.  The block
    with the lowest bound caps the answer; then only blocks with a bound at
    most the cap are scanned, in index order.  All points are scanned when a
    V, r1 or r2 is not finite, or when over a quarter of the blocks survive.
    """
    if grid_points < 16:
        raise InvalidParameterError(f"grid_points must be >= 16, got {grid_points}")
    _check_reserves(tf, r1, r2)
    profile = tf.profile
    alpha, beta = profile.interval.alpha, profile.interval.beta

    if profile.interval.bounded:
        top = beta
    else:
        # Past g_inverse(r2) the integrand r2 - g(p) is positive and the
        # objective only climbs; stop a little beyond the sign change.
        top = max(alpha, max(profile.payoff.breakpoints, default=0.0), 1.0)
        if r2 > 0.0:
            while profile.g(top) >= r2:
                if top > sys.float_info.max / 4:
                    raise NumericalError(
                        f"infimum bracket reached {top!r} with g still >= risky reserve {r2!r}")
                top *= 2.0
            top *= 2.0
        else:
            top *= 4.0

    lo = alpha if alpha > 0.0 else min(
        top * 1e-9, min(profile.payoff.breakpoints, default=top) * 1e-3)
    while alpha == 0.0 and r2 > 0.0 and lo > sys.float_info.min and profile.g(lo) < r2:
        lo = max(lo * 1e-3, sys.float_info.min)
    f_values, bps, g = profile.payoff._values, profile.payoff.breakpoints, profile.g
    grid = tf._grids.get((lo, top, grid_points))
    if grid is None:
        candidates = [alpha] if alpha < lo else []
        # The ends are lo and top exactly: exp(log(x)) can miss x by an ulp.
        span = math.log(top) - math.log(lo)
        candidates += [lo] + [math.exp(math.log(lo) + span * i / (grid_points - 1))
                              for i in range(1, grid_points - 1)] + [top]
        # portfolio_value at each price, inline: f, then g, at every price.
        v_grid = [f + (0.0 if p == 0.0 else p * gp) for p in candidates
                  for f, gp in [(f_values[bisect_left(bps, p)](p), g(p))]]
        blocks = [(min(candidates[i:i + _BLOCK]), max(v_grid[i:i + _BLOCK]))
                  for i in range(0, len(v_grid), _BLOCK)]
        grid = tf._grids[lo, top, grid_points] = (
            candidates, v_grid, blocks if math.isfinite(sum(v_grid)) else None)
    candidates = grid[0]
    best, best_value = _first_minimum(r1, r2, *grid)

    # Golden-section on the bracketing cell, in log-price (the objective is
    # unimodal: its slope r2 - g(p) changes sign at most once), with V in
    # portfolio_value's operation order, as on the grid.
    def objective(p: float) -> float:
        v = f_values[bisect_left(bps, p)](p) + (0.0 if p == 0.0 else p * g(p))
        return r1 + (0.0 if p == 0.0 else p * r2) - v

    left = candidates[max(best - 1, 0)]
    right = candidates[min(best + 1, len(candidates) - 1)]
    if left <= 0.0:
        left = min(right * 1e-6, candidates[1])
    a, b = math.log(left), math.log(right)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(math.exp(x1)), objective(math.exp(x2))
    while b - a > 1e-12:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(math.exp(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(math.exp(x2))

    refined = min(best_value, f1, f2)
    if not profile.interval.bounded and r2 == 0.0:
        # The objective decreases toward r1 - lim V; no finite grid attains it.
        refined = min(refined, r1 - profile.payoff.limit_at_infinity())
    return refined


# ---------------------------------------------------------------------------
# Pool state machine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoolState:
    """Fee-free pool reserves bound to a trading function.

    price records where the reserves were last minted; spot_price recomputes
    it from the risky reserve through g_inverse.  invariant_level is psi of
    the reserves, derived on demand; the arbitrage loop never needs it.
    """

    tf: TradingFunction
    r1: float
    r2: float
    price: float

    @property
    def invariant_level(self) -> float:
        """psi(r1, r2) of these reserves."""
        return trading_function_eval(self.tf, self.r1, self.r2)


@dataclass(frozen=True)
class ArbStepProfit:
    """One arbitrage realignment: profit in numeraire, and the price move."""

    profit: float
    from_price: float
    to_price: float


def _mint(tf: TradingFunction, p: float) -> PoolState:
    """The replicating allocation (f(p), g(p)) at price p: portfolios((p,))'s
    bits and errors, without its list layer."""
    profile = tf.profile
    profile.interval.check(p)
    payoff = profile.payoff
    r1, r2 = payoff._values[bisect_left(payoff.breakpoints, p)](p), profile.g(p)
    if r2 == math.inf:
        raise infinite_cost_error(p)
    return PoolState(tf, r1, r2, p)


def pool_init(profile: ReplicationProfile, p: float) -> PoolState:
    """Mint a pool at external price p with the replicating allocation."""
    return _mint(TradingFunction(profile), p)


def validate_trade(pool: PoolState, d1: float, d2: float) -> bool:
    """Accept a reserve change iff it does not lower the invariant level."""
    new_r1 = pool.r1 + d1
    new_r2 = pool.r2 + d2
    level = trading_function_eval(pool.tf, new_r1, new_r2)
    current = pool.invariant_level
    return level >= current - _TRADE_TOL * max(1.0, abs(current))


def arbitrage_to_price(pool: PoolState, p_ext: float):
    """Realign the pool to the external price; returns (new pool, profit).

    The arbitrageur swaps the pool to (f(p_ext), g(p_ext)) and pockets

        profit = p_ext * (r2 - g(p_ext)) + r1 - f(p_ext),

    which is nonnegative because the current allocation was optimal for the
    old price and feasible for the new one.  Prices outside the interval
    raise DomainError; clamp them first.
    """
    new_pool = _mint(pool.tf, p_ext)
    profit = p_ext * (pool.r2 - new_pool.r2) + pool.r1 - new_pool.r1
    return new_pool, ArbStepProfit(profit, pool.price, p_ext)


def spot_price(pool: PoolState) -> float:
    """Price implied by the risky reserve: g_inverse(r2).

    On flat stretches of g this is the rightmost consistent price; for a
    fully-drained risky side on an unbounded interval it is math.inf.
    """
    return pool.tf.profile.g_inverse_value(pool.r2)
