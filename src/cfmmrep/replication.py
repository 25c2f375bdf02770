"""Replication cost, portfolio value, and the generalized inverse.

For a monotone payoff f on [alpha, beta], the risky-asset requirement at
price p is

    g(p) = integral of f'(q)/q from p to beta, plus sum of jump/q over
           jump locations q in [p, beta)

and the portfolio (f(p), g(p)) is worth V(p) = f(p) + p*g(p).  g is
nonincreasing and nonnegative, V is nondecreasing and concave.  The
generalized inverse g_inverse(x) is the rightmost price where g is still
at least x (alpha when there is none, beta when every price qualifies).

Every payoff has one exact route: g sums its segment forms' exact costs
and its jump terms, and g_inverse solves on the crossing segment with that
form's inverse cost (payoffs.piecewise_exact_forms), on any interval.
ReplicationProfile takes that route and no other; oracle.NumericProfile,
on quadrature and crossing's bisection, is the oracle the tests hold it against.
"""

from __future__ import annotations

import enum
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, InfiniteReplicationCostError, InvalidParameterError, NumericalError
from .payoffs import PayoffSpec, piecewise_exact_forms
from .quadrature import adaptive_simpson, integrate_from_zero

_GROWTH_CUTOFFS = (1e2, 1e3, 1e4, 1e5)


# ---------------------------------------------------------------------------
# Replication profile
# ---------------------------------------------------------------------------

class ReplicationProfile:
    """g / V / g_inverse evaluators for a payoff on its own interval.

    g and g_inverse take the exact route of every payoff (see
    piecewise_exact_forms), and psi is r1 + p* r2 - V(p*) through them (see
    cfmm.trading_function_eval).  The numeric oracle, oracle.NumericProfile,
    replaces _build_routes, g and _solve_inverse.  Nothing on it changes
    after construction, so it is safe to share across threads.
    """

    # psi has one route; the benchmark's tracer (bench/spans.py) still reads
    # this name to label psi calls, so it stays, always None.
    psi_closed_form = None

    def __init__(self, payoff: PayoffSpec):
        self.payoff = payoff
        self.interval = payoff.interval
        if payoff.cost_diverges():
            raise InfiniteReplicationCostError(
                "payoff grows at least linearly up to an unbounded price: the required "
                "risky reserve diverges; cap the payoff (finite p1) or bound the interval")
        self._build_routes()
        self.g_alpha = self.g(self.interval.alpha)
        self.v_alpha = self.portfolio_value(self.interval.alpha)

    def _build_routes(self):
        # _g_values is (lo, top, list kernel) of g, else None (see ExactForms).
        self.g_closed_form, self.g_inverse_closed_form, self._g_values = (
            piecewise_exact_forms(self.payoff))

    # -- evaluators ---------------------------------------------------------

    def g(self, p: float) -> float:
        if not p >= 0.0:  # NaN fails too
            raise DomainError(f"price must be >= 0, got {p}")
        try:
            return self.g_closed_form(p)
        except OverflowError:  # a power cost's p**e past the float range
            raise infinite_cost_error(p) from None

    def portfolio_value(self, p: float) -> float:
        """V(p) = f(p) + p * g(p); its limit at p = +inf.  f rejects a
        negative or NaN price before g runs; at p = 0 it is f(0), g unread."""
        if p == math.inf:
            return self.payoff.limit_at_infinity()
        return self.payoff.value(p) + (0.0 if p == 0.0 else p * self.g(p))

    def portfolios(self, prices) -> tuple:
        """The replicating holdings at each price: lists (f(p)), (g(p)).

        Each price must lie in the interval.  f is PayoffSpec.values: one list
        kernel when all prices share a payoff segment, else per price;
        g runs as its list kernel, with g's bits, on prices strictly inside
        a one-piece g's piece or on finite prices of a table's g, else once
        per price.  An infinite g raises infinite_cost_error(p).
        """
        if not prices:
            return [], []
        interval = self.interval
        lo, hi = min(prices), max(prices)
        # Past alpha <= lo, only a NaN (which min and max can skip) makes the sum NaN.
        if not interval.alpha <= lo <= hi <= interval.beta or math.isnan(sum(prices)):
            for p in (lo, hi, math.nan):
                interval.check(p)
        return self._portfolios(prices, lo, hi)

    def _portfolios(self, prices, lo: float, hi: float) -> tuple:
        g, piece = self.g, self._g_values  # prices lie in the interval, lowest lo, highest hi
        r1 = self.payoff.values(prices, lo, hi)
        try:
            r2 = (piece[2](prices) if piece is not None and piece[0] < lo and hi < piece[1]
                  else [g(p) for p in prices])
        except OverflowError:  # from the list kernel: g names the price
            r2 = [g(p) for p in prices]
        if math.inf in r2:
            raise infinite_cost_error(prices[r2.index(math.inf)])
        return r1, r2

    def g_inverse_value(self, r2: float) -> float:
        if r2 < 0.0 or math.isnan(r2):
            raise InvalidParameterError(f"risky reserve must be >= 0, got {r2}")
        if r2 == 0.0:
            return self.interval.beta
        if r2 > self.g_alpha:
            return self.interval.alpha
        return self._solve_inverse(r2)

    def _solve_inverse(self, r2: float) -> float:
        p = self.g_inverse_closed_form(r2)
        return min(max(p, self.interval.alpha), self.interval.beta)

# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def infinite_cost_error(p: float) -> Exception:
    """What an infinite g at price p raises: no pool can hold it at 0, and
    above 0 g is finite by construction, so inf there is overflow."""
    if p > 0.0:
        return NumericalError(f"replication cost at price {p} overflows the float range")
    return InfiniteReplicationCostError(f"replication cost is infinite at price {p}")


def replication_cost(profile: ReplicationProfile, p: float) -> float:
    """Risky asset required at price p."""
    profile.interval.check(p)
    return profile.g(p)


def portfolio_at(profile: ReplicationProfile, p: float):
    """(numeraire, risky) holdings (f(p), g(p)) at price p, with the bits and
    errors of profile.portfolios((p,)): an infinite g raises infinite_cost_error."""
    profile.interval.check(p)
    r1, r2 = profile.payoff.value(p), profile.g(p)
    if r2 == math.inf:
        raise infinite_cost_error(p)
    return r1, r2


def portfolio_value(profile: ReplicationProfile, p: float) -> float:
    """V(p) = f(p) + p * g(p)."""
    profile.interval.check(p)
    return profile.portfolio_value(p)


def portfolio_value_integral(profile: ReplicationProfile, p):
    """V(p) through the integral identity V(alpha) + integral of g.

    Cross-check path for portfolio_value; the two must agree to the default
    quadrature tolerance.  Given an ascending sequence of prices for p, it
    integrates g once, up to the highest, and returns the list of V at each:
    cells are cut at the breakpoints and at the prices, and added left to
    right to one running total.  Raises NumericalError, naming the first
    price that needs it, when a cell does not converge.
    """
    single = isinstance(p, (int, float))
    prices = [p] if single else list(p)
    # A NaN fails <= against its neighbour, and against inf when it is last.
    if not single and not all(a <= b for a, b in zip(prices, prices[1:] + [math.inf])):
        raise InvalidParameterError("prices must be ascending and not NaN")
    if not prices:
        return []
    top = prices[-1]
    profile.interval.check(prices[0])
    profile.interval.check(top)
    if math.isinf(top):
        raise DomainError("integral form needs a finite price")
    alpha, g, given = profile.interval.alpha, profile.g, set(prices)
    # g ~ q**(e - 1) near 0 below exponent 1, and ~ -log q at exactly 1:
    # a cell from 0 softens both (any positive exponent tames the log);
    # above 1, or where f is flat at 0, g is finite there.
    e = profile.payoff.segments[0].form.growth_exponent()
    s = 1.0 - e if 0.0 < e < 1.0 else 0.5 if e == 1.0 else 0.0
    total, at, a = profile.v_alpha, {}, alpha
    for b in sorted(given.union(q for q in profile.payoff.breakpoints if alpha < q < top)):
        if b > a:
            # The cell takes g's right limit at its left end: a jump at a is not the cell's.
            right = math.nextafter(a, math.inf)
            cell = (integrate_from_zero(g, b, singular_exponent=s) if a == 0.0 and s > 0.0
                    else adaptive_simpson(lambda q: g(right if q == a else q), a, b))
            total += cell.checked(f"integral of g up to price {prices[bisect_left(prices, b)]}")
            a = b
        at[b] = total
    return at[p] if single else [at[q] for q in prices]


def crossing(profile: ReplicationProfile, r2: float) -> tuple:
    """The prices a <= b, a few ulps apart, where g falls below r2, for
    0 <= r2 <= g(alpha) (r2 > 0 when beta is inf): one bisection in
    log-price on g(p) >= r2, through profile.g only, until sqrt(a)*sqrt(b)
    is no longer strictly between a and b.  The bracket's top is beta or
    doubles from max(alpha, breakpoints, 1) while g >= r2, raising
    NumericalError past a quarter of the largest float; from alpha = 0 its
    floor walks down to the least normal float, where g may stay below r2."""
    alpha, beta = profile.interval.alpha, profile.interval.beta
    bps, g = profile.payoff.breakpoints, profile.g
    if profile.interval.bounded:
        top = beta
    else:
        top = max(alpha, max(bps, default=0.0), 1.0)
        while g(top) >= r2:
            if top > sys.float_info.max / 4:
                raise NumericalError(
                    f"infimum bracket reached {top!r} with g still >= risky reserve {r2!r}")
            top *= 2.0
    lo = alpha if alpha > 0.0 else min(top * 1e-9, min(bps, default=top) * 1e-3)
    while alpha == 0.0 and r2 > 0.0 and lo > sys.float_info.min and g(lo) < r2:
        lo = max(lo * 1e-3, sys.float_info.min)

    a, b = lo, top
    mid = math.sqrt(a) * math.sqrt(b)
    while a < mid < b:
        if g(mid) >= r2:
            a = mid
        else:
            b = mid
        mid = math.sqrt(a) * math.sqrt(b)
    return a, b


def g_inverse(profile: ReplicationProfile, r2: float) -> float:
    """Rightmost price whose risky requirement is still at least r2.

    Returns alpha when no price qualifies and beta (possibly math.inf) when
    every price does, matching the supremum convention.
    """
    return profile.g_inverse_value(r2)


# ---------------------------------------------------------------------------
# Growth classification
# ---------------------------------------------------------------------------

class GrowthClass(enum.Enum):
    FINITE = "finite"
    INFINITE = "infinite"


@dataclass(frozen=True)
class GrowthAnalysis:
    classification: GrowthClass
    evidence: tuple
    asymptotic_exponent: Optional[float]


def growth_classification(spec: PayoffSpec) -> GrowthAnalysis:
    """Whether the replication cost is finite on the spec's interval.

    The class is PayoffSpec.cost_diverges: infinite exactly when f grows at
    least linearly up to an unbounded beta.  On an unbounded interval the
    evidence is the exact g at max(alpha, last breakpoint, 1) truncated at four
    cutoffs a decade apart: a linear tail adds its slope times log(10) per
    decade, a sublinear one settles.
    """
    cls = GrowthClass.INFINITE if spec.cost_diverges() else GrowthClass.FINITE
    if spec.interval.bounded:
        return GrowthAnalysis(cls, (), None)

    base = max(spec.interval.alpha, max(spec.breakpoints, default=0.0), 1.0)
    cutoffs = [c for c in _GROWTH_CUTOFFS if c > base * 4.0]
    while len(cutoffs) < len(_GROWTH_CUTOFFS):
        cutoffs.append((cutoffs[-1] if cutoffs else base * 4.0) * 10.0)
    evidence = tuple(
        (c, piecewise_exact_forms(spec.with_bounds(0.0, c)).g(base))
        for c in cutoffs)
    return GrowthAnalysis(cls, evidence, spec.tail_growth_exponent())
