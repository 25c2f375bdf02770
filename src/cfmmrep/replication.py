"""Replication cost, portfolio value, and the generalized inverse.

For a monotone payoff f on [alpha, beta], the risky-asset requirement at
price p is

    g(p) = integral of f'(q)/q from p to beta, plus sum of jump/q over
           jump locations q in [p, beta)

and the portfolio (f(p), g(p)) is worth V(p) = f(p) + p*g(p).  g is
nonincreasing and nonnegative, V is nondecreasing and concave.  The
generalized inverse g_inverse(x) is the rightmost price where g is still
at least x (alpha when there is none, beta when every price qualifies).

Each payoff has one exact route: catalog payoffs use their family's closed
forms on any interval (shifted by g(beta) when cut below the family's cap),
and piecewise-linear payoffs use the exact segment sums and their exact
inverse.  Only other hand-built payoffs, and profiles built with
use_closed_forms=False, evaluate g by adaptive quadrature and g_inverse by
geometric bisection; that numeric route is the oracle the tests hold the
exact routes against.  Unbounded price intervals are folded to (0, 1/p]
with the substitution u = 1/q before integrating.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from .errors import (
    DomainError,
    InfiniteReplicationCostError,
    InvalidParameterError,
    NumericalError,
)
from .payoffs import (
    ConstantForm,
    LogForm,
    PayoffSpec,
    PriceInterval,
    catalog_closed_forms,
    payoff_price_anchors,
    piecewise_exact_forms,
)
from .quadrature import (
    DEFAULT_OPTIONS,
    QuadratureOptions,
    QuadratureResult,
    adaptive_simpson,
    integrate_from_zero,
)

_INVERSION_REL_TOL = 1e-12
_GROWTH_CUTOFFS = (1e2, 1e3, 1e4, 1e5)


def _converged(result: QuadratureResult, what: str) -> float:
    """The value of a quadrature result, or NumericalError if it fell short."""
    if not result.converged:
        raise NumericalError(
            f"{what} did not converge (error estimate {result.error:.3g})",
            error=result.error)
    return result.value


def _segment_integrand(spec: PayoffSpec, lo: float, hi: float):
    """f'(q)/q on a cell known to sit inside one segment.

    The q = 0 endpoint is evaluated only from a smooth start, whose
    integrand vanishes there; 0 is that limit.
    """
    mid = lo + 0.5 * (hi - lo)
    form = spec._segment_at(mid).form

    def fn(q: float) -> float:
        if q <= 0.0:
            return 0.0
        return form.slope(q) / q

    return fn


def _tail_integrand(spec: PayoffSpec):
    """The u = 1/q image of f'(q)/q on the last segment: h(u) = f'(1/u)/u."""
    form = spec.segments[-1].form
    # q * f'(q) at q -> inf: 1 for logarithmic tails, 0 for every other
    # integrable tail (power tails are softened before reaching u = 0).
    limit = 1.0 if isinstance(form, LogForm) else 0.0

    def h(u: float) -> float:
        if u <= 0.0:
            return limit
        q = 1.0 / u
        return form.slope(q) * q

    return h


def quadrature_replication_cost(
    spec: PayoffSpec,
    interval: PriceInterval,
    p: float,
    opts: QuadratureOptions = DEFAULT_OPTIONS,
) -> float:
    """g(p) by adaptive quadrature, split at breakpoints, jumps added exactly.

    Cells are also split at the forms' characteristic prices so that a
    narrow feature never hides inside a cell much wider than itself.  On an
    unbounded interval the spec's cost must not diverge (ReplicationProfile
    checks).  Raises NumericalError when a cell's quadrature does not converge.
    """
    beta = interval.beta
    if math.isinf(p):
        return 0.0
    what = f"quadrature of g at price {p}"

    total = sum(size / q for q, size in spec.jumps if p <= q < beta)
    anchors = sorted(set(spec.breakpoints) | set(payoff_price_anchors(spec)))

    if p == 0.0:
        form = spec.segments[0].form
        cuts = [a for a in anchors if a < beta]
        first = cuts[0] if cuts else (beta if interval.bounded else 1.0)
        origin = form.growth_exponent()
        if origin > 0.0:
            # f ~ p**origin near zero: the integrand behaves like
            # q**(origin - 2), integrable only above exponent 1.  From
            # exponent 2 up it is bounded but not smooth at 0 (a nonzero
            # limit at exactly 2, an infinite slope below 3), which the
            # adaptive rule cannot resolve.  Exponent 1/3 asks for u = v**3,
            # the mildest softening, under which it vanishes smoothly at 0.
            if origin <= 1.0:
                return math.inf
            fn = _segment_integrand(spec, 0.0, first)
            total += _converged(integrate_from_zero(
                fn, first, singular_exponent=max(2.0 - origin, 1.0 / 3.0), opts=opts),
                what)
        elif not isinstance(form, ConstantForm):
            # Smooth start with a vanishing integrand limit (e.g. the
            # lognormal-model payoff): integrate plainly from zero.
            fn = _segment_integrand(spec, 0.0, first)
            total += _converged(integrate_from_zero(
                fn, first, singular_exponent=0.0, opts=opts), what)
        p = first

    finite_top = beta if interval.bounded else max(p, max(anchors, default=p))
    cells = [p] + [a for a in anchors if p < a < finite_top] + [finite_top]
    for lo, hi in zip(cells, cells[1:]):
        if hi > lo:
            r = adaptive_simpson(_segment_integrand(spec, lo, hi), lo, hi, opts)
            total += _converged(r, what)

    if not interval.bounded:
        r = integrate_from_zero(_tail_integrand(spec), 1.0 / finite_top,
                                singular_exponent=spec.tail_growth_exponent(), opts=opts)
        total += _converged(r, what)
    return total


# ---------------------------------------------------------------------------
# Replication profile
# ---------------------------------------------------------------------------

class ReplicationProfile:
    """g / V / g_inverse evaluators for a payoff on its own interval.

    The exact route is chosen from the payoff: a catalog family's closed
    forms (see catalog_closed_forms), else the exact piecewise-linear forms
    when every segment below beta is linear or constant, else quadrature g
    with bisection g_inverse.  use_closed_forms=False forces the numeric
    route, with opts as its quadrature options: the oracle the tests compare
    against, and the only switch between routes.  The profile is immutable
    after construction and safe to share across threads.
    """

    def __init__(
        self,
        payoff: PayoffSpec,
        *,
        opts: QuadratureOptions = DEFAULT_OPTIONS,
        use_closed_forms: bool = True,
    ):
        self.payoff = payoff
        self.interval = payoff.interval
        self.opts = opts

        if payoff.cost_diverges():
            raise InfiniteReplicationCostError(
                "payoff grows at least linearly on an unbounded interval; "
                "sublinear growth is required for a finite replication cost")

        forms = None
        if use_closed_forms and payoff.catalog is not None:
            forms = catalog_closed_forms(payoff.catalog, self.interval.beta)
        if use_closed_forms and forms is None:
            forms = piecewise_exact_forms(payoff)
        self.g_closed_form = forms.g if forms else None
        self.g_inverse_closed_form = forms.g_inverse if forms else None
        self.psi_closed_form = forms.psi if forms else None

        self.g_alpha = self.g(self.interval.alpha)
        self.v_alpha = self.portfolio_value(self.interval.alpha)

    # -- evaluators ---------------------------------------------------------

    def g(self, p: float) -> float:
        if self.g_closed_form is not None:
            return self.g_closed_form(p)
        return quadrature_replication_cost(self.payoff, self.interval, p, self.opts)

    def portfolio_value(self, p: float) -> float:
        """V(p) = f(p) + p * g(p); its limit at p = +inf.  f rejects a
        negative or NaN price before g runs."""
        if p == math.inf:
            return self.payoff.limit_at_infinity()
        f = self.payoff.value(p)
        g = self.g(p)
        return f + (0.0 if p == 0.0 else p * g)  # 0 * inf -> 0 at the left edge

    def portfolios(self, prices) -> tuple:
        """The replicating holdings at each price: lists (f(p)), (g(p)).

        Each price must lie in the interval.  f runs as one list kernel when
        all prices share a payoff segment, g once per price.  An infinite g at
        price 0 raises InfiniteReplicationCostError, as no pool can hold it;
        above 0, g is finite by construction: inf is overflow, a NumericalError.
        """
        if not prices:
            return [], []
        interval, payoff = self.interval, self.payoff
        lo, hi = min(prices), max(prices)
        # Past alpha <= lo, only a NaN (which min and max can skip) makes the sum NaN.
        if not interval.alpha <= lo <= hi <= interval.beta or math.isnan(sum(prices)):
            for p in (lo, hi, math.nan):
                interval.check(p)
        k = bisect_left(payoff.breakpoints, lo)
        r1 = (payoff.segments[k].form.values(prices) if k == bisect_left(payoff.breakpoints, hi)
              else [payoff.value(p) for p in prices])
        r2 = [self.g(p) for p in prices]
        if math.inf in r2:
            p = prices[r2.index(math.inf)]
            if p > 0.0:
                raise NumericalError(
                    f"replication cost at price {p} overflows the float range")
            raise InfiniteReplicationCostError(f"replication cost is infinite at price {p}")
        return r1, r2

    def g_inverse_value(self, r2: float) -> float:
        if r2 < 0.0 or math.isnan(r2):
            raise InvalidParameterError(f"risky reserve must be >= 0, got {r2}")
        if r2 == 0.0:
            return self.interval.beta
        if r2 > self.g_alpha:
            return self.interval.alpha
        if self.g_inverse_closed_form is not None:
            p = self.g_inverse_closed_form(r2)
            if math.isinf(p):
                return self.interval.beta
            return min(max(p, self.interval.alpha), self.interval.beta)
        return self._bisect_inverse(r2)

    def _bisect_inverse(self, r2: float) -> float:
        """Rightmost price with g >= r2, for 0 < r2 <= g(alpha), by bisection.

        The bracket starts at alpha (or, from alpha = 0, descends by halving
        from the first breakpoint) and at beta (or, when unbounded, expands
        by doubling).  Geometric bisection then returns the last point that
        actually evaluated on the >= side, so the supremum convention
        survives a jump of g exactly at the boundary.
        """
        alpha, beta = self.interval.alpha, self.interval.beta
        if self.interval.bounded and self.g(beta) >= r2:
            return beta
        lo = alpha
        if lo == 0.0:
            lo = min(self.payoff.breakpoints + (beta, 1.0))
            while self.g(lo) < r2:
                lo *= 0.5
                if lo < 1e-300:  # can be exact: when r2 == g(0), no p > 0 has g >= r2
                    return 0.0
        if self.interval.bounded:
            hi = beta
        else:
            hi = lo * 2.0
            while self.g(hi) >= r2:
                lo, hi = hi, hi * 2.0
                if hi > 1e300:
                    raise NumericalError(
                        f"g_inverse bracket passed 1e300 with g still >= risky reserve {r2!r}")
        while hi - lo > _INVERSION_REL_TOL * lo:
            mid = math.sqrt(lo * hi)
            if mid <= lo or mid >= hi:
                break
            if self.g(mid) >= r2:
                lo = mid
            else:
                hi = mid
        return lo


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def replication_cost(profile: ReplicationProfile, p: float) -> float:
    """Risky asset required at price p."""
    profile.interval.check(p)
    return profile.g(p)


def portfolio_at(profile: ReplicationProfile, p: float):
    """(numeraire, risky) holdings at price p."""
    profile.interval.check(p)
    return profile.payoff.value(p), profile.g(p)


def portfolio_value(profile: ReplicationProfile, p: float) -> float:
    """V(p) = f(p) + p * g(p)."""
    profile.interval.check(p)
    return profile.portfolio_value(p)


def portfolio_value_integral(
    profile: ReplicationProfile,
    p: float,
    opts: Optional[QuadratureOptions] = None,
) -> float:
    """V(p) through the integral identity V(alpha) + integral of g.

    Cross-check path for portfolio_value; the two must agree to quadrature
    tolerance.  Raises NumericalError when a cell does not converge.
    """
    profile.interval.check(p)
    if math.isinf(p):
        raise DomainError("integral form needs a finite price")
    opts = opts or profile.opts
    alpha = profile.interval.alpha
    total = profile.v_alpha
    if p == alpha:
        return total

    what = f"integral of g up to price {p}"
    lo = alpha
    if alpha == 0.0:
        origin = profile.payoff.origin_growth_exponent()
        if origin is not None:
            cuts = profile.payoff.breakpoints
            first = min(cuts[0] if cuts else p, p)
            # g ~ q**(origin - 1) near 0 below exponent 1, and ~ -log q at
            # exactly 1: soften both (any positive exponent tames the log);
            # above 1, g is finite at 0.
            s = 1.0 - origin if origin < 1.0 else 0.5 if origin == 1.0 else 0.0
            r = integrate_from_zero(profile.g, first, singular_exponent=s, opts=opts)
            total += _converged(r, what)
            lo = first

    cells = [lo] + [b for b in profile.payoff.breakpoints if lo < b < p] + [p]
    for a, b in zip(cells, cells[1:]):
        if b > a:
            total += _converged(adaptive_simpson(profile.g, a, b, opts), what)
    return total


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
    evidence is g at max(alpha, last breakpoint, 1) truncated at four
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
        (c, quadrature_replication_cost(spec, PriceInterval(0.0, c), base))
        for c in cutoffs)
    return GrowthAnalysis(cls, evidence, spec.tail_growth_exponent())
