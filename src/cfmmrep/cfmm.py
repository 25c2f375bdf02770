"""Trading functions and a fee-free pool over a replication profile.

The trading function over reserves (r1 numeraire, r2 risky) is

    psi(r1, r2) = r1 + p* r2 - V(p*),   p* = g_inverse(r2),

the closed form of  inf over p in [alpha, beta] of (r1 + p r2 - V(p)).
Its zero level set is exactly the liquidity-provider curve
{(f(p), g(p))}, psi is nondecreasing in both reserves, and concave.  The
infimum itself is also evaluated directly, as a numerical cross-check oracle
for the closed path: the objective r1 + p r2 - V(p) is convex with slope
r2 - g(p), because g is nonincreasing, so its minimum lies where g crosses
r2, which replication.crossing brackets by bisection.  The oracle reads g
only through profile.g, never through g_inverse, so it stays independent
of the closed path.

Pools are immutable values: operations return new states.  Trades are
accepted exactly when they do not decrease the invariant level (fee-free
semantics), and arbitrage jumps straight to the optimal allocation
(f(p_ext), g(p_ext)), which maximizes the arbitrageur's one-shot profit.
Both use only f and g; a minted pool's level is zero, derived on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InvalidReservesError,
    NumericalError,
    UnboundedTradingFunctionError,
)
from .replication import ReplicationProfile, crossing, portfolio_at

_TRADE_TOL = 1e-12


@dataclass(frozen=True)
class TradingFunction:
    """The pool invariant induced by a replication profile."""

    profile: ReplicationProfile


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


def trading_function_infimum(tf: TradingFunction, r1: float, r2: float) -> float:
    """inf over prices of r1 + p*r2 - V(p), evaluated directly.

    The objective h(p) = r1 + p*r2 - V(p) is convex, with slope r2 - g(p),
    since g is nonincreasing, so its minimum lies where g crosses r2: the
    answer is the least of h at alpha and at the ends a and b of
    replication.crossing, a few ulps apart.  V is profile.portfolio_value,
    and g is read only through profile.g: the oracle never reads g_inverse,
    so it stays independent of trading_function_eval.
    """
    _check_reserves(tf, r1, r2)
    profile = tf.profile
    if r2 == 0.0 and not profile.interval.bounded:
        # The objective decreases toward r1 - lim V; no finite price attains it.
        return r1 - profile.payoff.limit_at_infinity()
    a, b = crossing(profile, r2)

    def objective(p: float) -> float:
        return r1 + (0.0 if p == 0.0 else p * r2) - profile.portfolio_value(p)

    return min(objective(profile.interval.alpha), objective(a), objective(b))


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


def pool_init(profile: ReplicationProfile, p: float) -> PoolState:
    """Mint a pool at external price p with the replicating allocation."""
    return PoolState(TradingFunction(profile), *portfolio_at(profile, p), p)


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
    new_pool = PoolState(pool.tf, *portfolio_at(pool.tf.profile, p_ext), p_ext)
    profit = p_ext * (pool.r2 - new_pool.r2) + pool.r1 - new_pool.r1
    return new_pool, ArbStepProfit(profit, pool.price, p_ext)


def spot_price(pool: PoolState) -> float:
    """Price implied by the risky reserve: g_inverse(r2).

    On flat stretches of g this is the rightmost consistent price; for a
    fully-drained risky side on an unbounded interval it is math.inf.
    """
    return pool.tf.profile.g_inverse_value(pool.r2)
