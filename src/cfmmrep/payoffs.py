"""Monotone payoff functions and the built-in payoff catalog.

A payoff maps the risky asset's price p (in units of the numeraire) to a
nonnegative, nondecreasing amount of numeraire f(p).  Payoffs are stored
as contiguous segments covering [0, inf), each with a typed form that can
report its value and slope, plus an explicit list of upward jumps.  At a
jump the payoff takes its lower value (lower semicontinuous), so the jump
mass is carried separately and stays visible to the integration code.

Every payoff's g and g_inverse are exact: each segment form knows its
replication cost over a piece of its segment and that cost's inverse, and
piecewise_exact_forms sums them with the jumps.  Six catalog families are
each defined once, by their Family record in FAMILIES.  Everything else is
expressed as a monotone piecewise-linear table or built by hand from
segments.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Union

from .errors import (
    DomainError,
    BreakpointDerivativeError,
    InvalidParameterError,
    MonotonicityError,
    NumericalError,
    PayoffParseError,
)
from .normal import _SQRT2, norm_cdf, norm_inv, norm_pdf


# ---------------------------------------------------------------------------
# Price interval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriceInterval:
    """Replication interval [alpha, beta]; beta = math.inf means unbounded.

    The infinite beta is a marker only: integration code substitutes it away
    and never feeds it into arithmetic.
    """

    alpha: float = 0.0
    beta: float = math.inf

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise InvalidParameterError(f"alpha must be finite and >= 0, got {self.alpha}")
        if math.isnan(self.beta) or self.beta < self.alpha:
            raise InvalidParameterError(
                f"interval needs 0 <= alpha <= beta, got [{self.alpha}, {self.beta}]")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.beta)

    def contains(self, p: float) -> bool:
        return self.alpha <= p <= self.beta

    def check(self, p: float):
        """Raise DomainError unless alpha <= p <= beta (NaN fails too)."""
        if not self.contains(p):
            raise DomainError(
                f"price {p} outside replication interval [{self.alpha}, {self.beta}]")


# ---------------------------------------------------------------------------
# Segment forms
# ---------------------------------------------------------------------------

# Besides f and f', a form reports direction(), a number with the sign of f'
# on its segment, and, where f rises, piece(lo, top, whole): g's term of a piece
# of the segment as one closure, the cost (integral of f'(q)/q) from p up to top,
# whole (by default the cost from lo) at and below lo, 0 from top on, paired
# with its list kernel, the closure's middle expression over prices that all
# lie strictly between lo and top; and cost_inverse(y, hi), the price below hi
# from which the cost up to hi is y.

@dataclass(frozen=True, slots=True)
class ConstantForm:
    c: float

    def value(self, p: float) -> float:
        return self.c

    def values(self, prices) -> list:
        return [self.c] * len(prices)

    def slope(self, p: float) -> float:
        return 0.0

    def direction(self) -> float:
        return 0.0

    def growth_exponent(self) -> float:
        return 0.0

    def limit_at_infinity(self) -> float:
        return self.c

    def price_anchors(self) -> tuple:
        return ()


@dataclass(frozen=True, slots=True)
class LinearForm:
    """f(p) = y0 + slope * (p - x0) on its segment."""

    x0: float
    y0: float
    m: float

    def value(self, p: float) -> float:
        return self.y0 + self.m * (p - self.x0)

    def values(self, prices) -> list:
        y0, m, x0 = self.y0, self.m, self.x0
        return [y0 + m * (p - x0) for p in prices]

    def slope(self, p: float) -> float:
        return self.m

    def direction(self) -> float:
        return self.m

    def piece(self, lo: float, top: float, whole: Optional[float] = None):
        m, log = self.m, math.log
        if lo > 0.0 and top / lo < math.inf:  # then top / p is finite for every p > lo
            whole = m * log(top / lo) if whole is None else whole
            return (lambda p: whole if p <= lo else m * log(top / p) if p < top else 0.0,
                    lambda prices: [m * log(top / p) for p in prices])

        def cost(p: float) -> float:  # where top / p overflows, log(top) - log(p)
            r = top / p
            return m * (log(r) if r < math.inf else log(top) - log(p))

        whole = cost(lo) if whole is None else whole
        return (lambda p: whole if p <= lo else cost(p) if p < top else 0.0,
                lambda prices: [cost(p) for p in prices])

    def cost_inverse(self, y: float, hi: float) -> float:
        shrink = math.exp(y / -self.m)  # below the normal doubles hi * shrink loses digits
        return hi * shrink if shrink >= 2.0**-1022 else math.exp(math.log(hi) - y / self.m)

    def growth_exponent(self) -> float:
        return 1.0 if self.m > 0.0 else 0.0

    def limit_at_infinity(self) -> float:
        return math.inf if self.m > 0.0 else self.y0

    def price_anchors(self) -> tuple:
        return ()


@dataclass(frozen=True, slots=True)
class PowerForm:
    """f(p) = scale * p**exponent + offset."""

    scale: float
    exponent: float
    offset: float = 0.0

    def value(self, p: float) -> float:
        return self.scale * p**self.exponent + self.offset

    def values(self, prices) -> list:
        a, e, c = self.scale, self.exponent, self.offset
        return [a * p**e + c for p in prices]

    def slope(self, p: float) -> float:
        if p == 0.0:
            return 0.0 if self.exponent >= 1.0 else math.inf
        return self.scale * self.exponent * p ** (self.exponent - 1.0)

    def direction(self) -> float:
        return self.scale * self.exponent

    def piece(self, lo: float, top: float, whole: Optional[float] = None):
        a, e = self.exponent, self.exponent - 1.0
        if e == 0.0:  # the linear cost, not a division by a - 1
            return LinearForm(0.0, 0.0, self.scale).piece(lo, top, whole)
        coef, top_pow = self.scale * a / e, top**e  # the cost is c*a/(a - 1) * (top**e - p**e)
        whole = coef * (top_pow - lo**e) if whole is None else whole
        return (lambda p: whole if p <= lo else coef * (top_pow - p**e) if p < top else 0.0,
                lambda prices: [coef * (top_pow - p**e) for p in prices])

    def cost_inverse(self, y: float, hi: float) -> float:
        a = self.exponent
        if a == 1.0:
            return LinearForm(0.0, 0.0, self.scale).cost_inverse(y, hi)
        base = hi ** (a - 1.0) + (1.0 - a) / (self.scale * a) * y
        try:  # below a tiny cost the price lies past the float range
            return max(base, 0.0) ** (1.0 / (a - 1.0))
        except (ZeroDivisionError, OverflowError):
            return math.inf

    def growth_exponent(self) -> float:
        return self.exponent if self.scale > 0.0 else 0.0

    def limit_at_infinity(self) -> float:
        return math.inf if self.scale > 0.0 else self.offset

    def price_anchors(self) -> tuple:
        return ()


@dataclass(frozen=True, slots=True)
class LogForm:
    """f(p) = log(p / p0)."""

    p0: float

    def __post_init__(self):
        _require(0.0 < self.p0 < math.inf, f"log form needs 0 < p0 < inf, got p0={self.p0}")

    def value(self, p: float) -> float:
        r = p / self.p0
        # Past the float range p / p0 is inf where its log is not.
        return math.log(r) if r < math.inf else math.log(p) - math.log(self.p0)

    def values(self, prices) -> list:
        log, p0 = math.log, self.p0
        out = [log(p / p0) for p in prices]
        if sum(out) == math.inf:  # some p / p0 overflowed; no log is -inf
            return [self.value(p) for p in prices]
        return out

    def slope(self, p: float) -> float:
        return 1.0 / p

    def direction(self) -> float:
        return 1.0

    def piece(self, lo: float, top: float, whole: Optional[float] = None):
        inv_top = 1.0 / top
        whole = 1.0 / lo - inv_top if whole is None else whole
        return (lambda p: whole if p <= lo else 1.0 / p - inv_top if p < top else 0.0,
                lambda prices: [1.0 / p - inv_top for p in prices])

    def cost_inverse(self, y: float, hi: float) -> float:
        return 1.0 / (y + 1.0 / hi)

    def growth_exponent(self) -> float:
        # Slower than any positive power, fast enough for finite replication.
        return 0.0

    def limit_at_infinity(self) -> float:
        return math.inf

    def price_anchors(self) -> tuple:
        return (self.p0,)


@dataclass(frozen=True, slots=True)
class NormalCdfForm:
    """f(p) = N(d(p)) with d(p) = (log(p/strike) - tau*sigma^2/2) / (sigma*sqrt(tau))."""

    strike: float
    sigma: float
    tau: float
    _vol: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vol = self.sigma * math.sqrt(self.tau) if self.tau >= 0.0 else math.nan
        _require(0.0 < self.strike < math.inf and 0.0 < vol < math.inf,
                 f"{self!r} needs 0 < strike < inf and 0 < sigma*sqrt(tau) < inf")
        object.__setattr__(self, "_vol", vol)

    def d(self, p: float) -> float:
        if p <= 0.0:
            return -math.inf
        k, vol = self.strike, self._vol  # where p / k underflows to 0, log(p) - log(k)
        return ((math.log(p / k) if p / k else math.log(p) - math.log(k)) - 0.5 * vol * vol) / vol

    def value(self, p: float) -> float:  # N(-inf) is 0
        return norm_cdf(self.d(p))

    def values(self, prices) -> list:
        d = self.d
        return [norm_cdf(d(p)) for p in prices]

    def slope(self, p: float) -> float:
        if p <= 0.0:
            return 0.0
        density = norm_pdf(self.d(p))  # 0 too where p * vol underflows to 0
        return density / (p * self._vol) if density else 0.0

    def direction(self) -> float:
        return 1.0

    def _survival(self, p: float) -> float:
        # Phi(-(d + vol)) rather than 1 - Phi(d + vol): no cancellation in the
        # deep tail.  The cost from p to top is the drop of this over strike.
        if not 0.0 < p < math.inf:
            return 1.0 if p <= 0.0 else 0.0
        return norm_cdf(-(self.d(p) + self._vol))

    def piece(self, lo: float, top: float, whole: Optional[float] = None):
        k, vol, log, tail = self.strike, self._vol, math.log, self._survival(top)
        whole = (self._survival(lo) - tail) / k if whole is None else whole
        half_v2, erfc, root2, log_k = 0.5 * vol * vol, math.erfc, _SQRT2, log(k)
        # Below, _survival(p) written out for lo < p < top, norm_cdf(-x) as
        # 0.5 * erfc(x / root2): the same operations, as -(-x) is x.
        return (lambda p: whole if p <= lo else (0.5 * erfc((
                    ((log(p / k) if p / k else log(p) - log_k) - half_v2) / vol + vol) / root2)
                    - tail) / k if p < top else 0.0,
                lambda prices: [(0.5 * erfc((((log(p / k) if p / k else log(p) - log_k)
                                              - half_v2) / vol + vol) / root2) - tail) / k
                                for p in prices])

    def cost_inverse(self, y: float, hi: float) -> float:
        vol, s = self._vol, self.strike * y + self._survival(hi)  # s: the survival mass
        # Below 1/2 the quantile of s keeps every digit that 1 - s would cancel;
        # from 1/2 up, 1 - s is exact.
        x = -norm_inv(s) if s < 0.5 else norm_inv(max(1.0 - s, 0.0))
        return self.strike * math.exp(vol * x - 0.5 * vol * vol)

    def growth_exponent(self) -> float:
        return 0.0

    def limit_at_infinity(self) -> float:
        return 1.0

    def price_anchors(self) -> tuple:
        # Characteristic prices bracketing where f'(q)/q and its 1/q image
        # concentrate; integration pre-splits here so narrow bumps cannot
        # hide inside a wide cell.
        v2 = self._vol * self._vol
        return (self.strike * math.exp(-1.5 * v2),
                self.strike,
                self.strike * math.exp(0.5 * v2))


SegmentForm = Union[ConstantForm, LinearForm, PowerForm, LogForm, NormalCdfForm]


@dataclass(frozen=True)
class Segment:
    lo: float
    hi: float  # math.inf for the last segment
    form: SegmentForm


# ---------------------------------------------------------------------------
# Catalog parameter variants
# ---------------------------------------------------------------------------

def _require(cond: bool, message: str):
    if not cond:
        raise InvalidParameterError(message)


@dataclass(frozen=True)
class CashOrNothing:
    """Pays 1 above the threshold p0, 0 at or below it."""

    p0: float

    def __post_init__(self):
        _require(self.p0 > 0.0 and math.isfinite(self.p0),
                 f"cash_or_nothing requires p0 > 0, got p0={self.p0}")


@dataclass(frozen=True)
class CappedCall:
    """Pays p - p0 between p0 and p1, capped at p1 - p0."""

    p0: float
    p1: float

    def __post_init__(self):
        _require(0.0 < self.p0 <= self.p1,
                 f"capped_call requires 0 < p0 <= p1, got p0={self.p0}, p1={self.p1}")


@dataclass(frozen=True)
class BlackScholesBinary:
    """Binary call priced under a lognormal model with maturity tau."""

    strike: float
    sigma: float
    tau: float

    def __post_init__(self):
        _require(self.strike >= 0.0 and math.isfinite(self.strike),
                 f"black_scholes_binary requires strike >= 0, got {self.strike}")
        _require(self.sigma >= 0.0, f"black_scholes_binary requires sigma >= 0, got {self.sigma}")
        _require(self.tau > 0.0, f"black_scholes_binary requires tau > 0, got {self.tau}")
        _require(math.isfinite(self.sigma * math.sqrt(self.tau)),
                 f"black_scholes_binary needs finite sigma*sqrt(tau), got {self.sigma}, {self.tau}")

    def is_step(self) -> bool:
        """Zero volatility sigma * sqrt(tau), by underflow too: a step at the strike."""
        return self.sigma * math.sqrt(self.tau) == 0.0


@dataclass(frozen=True)
class Logarithmic:
    """Pays log(p / p0) above p0."""

    p0: float

    def __post_init__(self):
        _require(self.p0 > 0.0 and math.isfinite(self.p0),
                 f"logarithmic requires p0 > 0, got p0={self.p0}")


@dataclass(frozen=True)
class CappedPower:
    """Pays p**a - p0**a between p0 and p1, capped above p1.

    The exponent is named `a`; a=1 recovers the capped call.
    """

    p0: float
    p1: float
    a: float

    def __post_init__(self):
        _require(self.a > 0.0, f"capped_power requires exponent a > 0, got a={self.a}")
        _require(0.0 <= self.p0 <= self.p1,
                 f"capped_power requires 0 <= p0 <= p1, got p0={self.p0}, p1={self.p1}")


@dataclass(frozen=True)
class ConstantProportion:
    """Holds a fixed share of portfolio value in each asset: f(p) = c * p**w."""

    w: float
    c: float

    def __post_init__(self):
        _require(0.0 < self.w < 1.0, f"constant_proportion requires 0 < w < 1, got w={self.w}")
        _require(self.c >= 0.0 and math.isfinite(self.c),
                 f"constant_proportion requires c >= 0, got c={self.c}")


CatalogParams = Union[CashOrNothing, CappedCall, BlackScholesBinary,
                      Logarithmic, CappedPower, ConstantProportion]

# ---------------------------------------------------------------------------
# Payoff specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PayoffSpec:
    """A monotone payoff plus its replication interval.

    segments cover [0, inf) contiguously, each with positive width, so every
    breakpoint is a positive price; jumps list (location, size) pairs at
    segment boundaries, whose sizes must sum to f's step there.  Immutable
    after construction, safe to evaluate concurrently.
    """

    segments: tuple
    jumps: tuple
    interval: PriceInterval
    catalog: Optional[CatalogParams] = field(default=None, init=False)  # set by make_catalog_payoff
    # Interior segment boundaries (kinks and jump locations), ascending,
    # and each segment's bound form.value; derived from segments.
    breakpoints: tuple = field(init=False, repr=False, compare=False)
    _values: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.segments:
            raise InvalidParameterError("payoff needs at least one segment")
        if self.segments[0].lo != 0.0 or not math.isinf(self.segments[-1].hi):
            raise InvalidParameterError("segments must cover [0, inf)")
        for s in self.segments:
            if not s.lo < s.hi:
                raise InvalidParameterError(f"segment [{s.lo}, {s.hi}] has no width")
            if not s.form.direction() >= 0.0:
                raise MonotonicityError(f"{s.form!r} decreases on [{s.lo}, {s.hi}]")
        bounds = tuple(s.hi for s in self.segments[:-1])
        if bounds != tuple(s.lo for s in self.segments[1:]):
            raise InvalidParameterError("segments must be contiguous")
        object.__setattr__(self, "breakpoints", bounds)
        object.__setattr__(self, "_values", tuple(s.form.value for s in self.segments))
        try:
            start = self.segments[0].form.value(0.0)
        except (ValueError, ZeroDivisionError):  # log(0) or 0**-e: f falls to -inf at 0
            start = -math.inf
        if not start >= 0.0:
            raise MonotonicityError(f"payoff value {start} at price 0 is negative")
        listed = dict.fromkeys(bounds, 0.0)
        for q, size in self.jumps:
            if not size >= 0.0:  # NaN fails too
                raise InvalidParameterError(f"jump size at {q} must be >= 0")
            if q not in listed:
                raise InvalidParameterError(f"jump location {q} is not a breakpoint")
            listed[q] += size
        for (q, size), below, above in zip(listed.items(), self.segments, self.segments[1:]):
            a, b = below.form.value(q), above.form.value(q)
            if abs(b - a - size) > 1e-12 * max(1.0, abs(a), abs(b)):
                raise InvalidParameterError(f"f steps by {b - a!r} at {q}; jumps list {size!r}")

    def with_bounds(self, alpha: Optional[float] = None,
                    beta: Optional[float] = None) -> PayoffSpec:
        """The same payoff on a new interval, keeping each bound not given.
        An interval never changes f: the copy keeps every checked field as is."""
        if alpha is None and beta is None:
            return self
        spec = object.__new__(PayoffSpec)
        spec.__dict__.update(self.__dict__, interval=PriceInterval(
            self.interval.alpha if alpha is None else alpha,
            self.interval.beta if beta is None else beta))
        return spec

    def _segment_at(self, p: float) -> Segment:
        # bisect_left sends a boundary point to the lower segment, which is
        # exactly the lower-semicontinuous convention at jumps.
        return self.segments[bisect_left(self.breakpoints, p)]

    def value(self, p: float) -> float:
        """Payoff at price p, ignoring the replication interval."""
        if not p >= 0.0:  # NaN fails too
            raise DomainError(f"price must be >= 0, got {p}")
        return self._values[bisect_left(self.breakpoints, p)](p)

    def values(self, prices, lo: float, hi: float) -> list:
        """f at each of prices, lowest lo and highest hi, all at least 0: one
        list kernel when all share a segment, else each price's segment form."""
        bps, values = self.breakpoints, self._values
        k = bisect_left(bps, lo)
        if k == bisect_left(bps, hi):
            return self.segments[k].form.values(prices)
        return [values[bisect_left(bps, p)](p) for p in prices]

    def slope(self, p: float) -> float:
        return self._segment_at(p).form.slope(p)

    def limit_at_infinity(self) -> float:
        """lim f(p) as p grows; math.inf when the payoff is unbounded."""
        return self.segments[-1].form.limit_at_infinity()

    def tail_growth_exponent(self) -> float:
        """Power growth of f at large prices (0 covers bounded and log tails)."""
        return self.segments[-1].form.growth_exponent()

    def cost_diverges(self) -> bool:
        """Whether g is infinite at every price: f grows at least linearly
        up to an unbounded beta.  Sublinear growth keeps the cost finite."""
        return not self.interval.bounded and self.tail_growth_exponent() >= 1.0

    def origin_growth_exponent(self) -> Optional[float]:
        """Exponent e with f ~ p**e near 0, or None when f is flat there."""
        first = self.segments[0].form
        e = first.growth_exponent()
        return e if e > 0.0 else None


def eval_payoff(spec: PayoffSpec, p: float) -> float:
    """f(p).  At a jump the lower value is returned."""
    spec.interval.check(p)
    return spec.value(p)


def eval_payoff_derivative(spec: PayoffSpec, p: float) -> float:
    """f'(p) away from breakpoints."""
    if not spec.interval.alpha < p < spec.interval.beta:
        raise DomainError(f"price {p} is not interior to the replication interval")
    if p in spec.breakpoints:
        raise BreakpointDerivativeError(
            f"derivative undefined at breakpoint {p}; split integrals there")
    return spec.slope(p)


def payoff_breakpoints(spec: PayoffSpec) -> list:
    """Sorted interior kink/jump locations (every jump location included)."""
    return list(spec.breakpoints)


# ---------------------------------------------------------------------------
# The exact replication route
# ---------------------------------------------------------------------------

class ExactForms(NamedTuple):
    g: Callable[[float], float]
    g_inverse: Callable[[float], float]
    # (lo, top, g's list kernel for prices strictly between): a one-piece g's
    # piece bounds, a table's -inf and inf; None where g is one jump's term.
    g_values: Optional[tuple]


def piecewise_exact_forms(spec: PayoffSpec) -> ExactForms:
    """Exact g and g_inverse of any payoff, from its segment forms' costs.

    A rising segment with top t (its hi, or beta) adds its form's piece
    term to g(p), the cost from max(p, lo) up to t, and a jump at q in
    [p, beta) adds size / q.  Every term that does not depend on p is
    computed here, once: each rising segment's piece closure with its whole
    term (infinite from lo = 0 where f rises like p**e, e <= 1) and each
    jump's size / q, with their tails.  A call to g then costs two bisects
    (segments, jumps) and one piece call: it adds the term of the segment
    holding p, then the whole terms above it, then the jump terms from p up,
    in ascending price order, so every payoff sums in one fixed order.  With
    one rising segment and no jump below beta, or one jump and no rising
    segment, g is that one term's closure, called without a bisect; the
    piece's list kernel, with its lo and top, is then g_values.  Any other
    g, a table's, has a list kernel, g_values between -inf and inf: g's
    body in one loop over the prices, the same bits with no call per price.

    g_inverse bisects the segment-top values for the first segment whose
    top falls below x and solves on it with the form's cost_inverse; a
    crossing inside a jump or on a flat segment lands on the segment's low
    end, the rightmost price.
    """
    beta = spec.interval.beta
    below = [s for s in spec.segments if s.lo < beta]
    lows = [s.lo for s in below]
    tops = [min(s.hi, beta) for s in below]
    forms = [s.form for s in below]
    parts = [form.piece(lo, top, math.inf if lo == 0.0 and 0.0 < form.growth_exponent() <= 1.0
                        else None) if form.direction() > 0.0 else (None, None)
             for lo, top, form in zip(lows, tops, forms)]
    whole = [0.0 if piece is None else piece(lo) for lo, (piece, _) in zip(lows, parts)]
    pieces = [(top, piece, term, (lo, top, values)) for lo, top, (piece, values), term
              in zip(lows, tops, parts, whole) if term > 0.0]
    jumps = sorted(((q, size) for q, size in spec.jumps if q < beta), key=lambda j: j[0])

    g_values = None
    if len(pieces) == 1 and not jumps:
        _, g, _, g_values = pieces[0]
    elif len(jumps) == 1 and not pieces:
        (q, size), = jumps
        term = size / q

        def g(p: float) -> float:
            return term if p <= q else 0.0
    else:
        piece_tops = [top for top, *_ in pieces]
        jump_locs = [q for q, _ in jumps]
        whole_tails, jump_tails = ([tuple(terms[k:]) for k in range(len(terms) + 1)]
                                   for terms in ([term for _, _, term, _ in pieces],
                                                 [size / q for q, size in jumps]))

        def g(p: float) -> float:
            # Segments whose top is at or below p add nothing; the one
            # holding p adds its partial term, every one above it its whole.
            k = bisect_right(piece_tops, p)
            total = 0.0
            if k < len(pieces):
                total += pieces[k][1](p)
                for term in whole_tails[k + 1]:
                    total += term
            # An explicit loop, not sum(): sum() compensates rounding on
            # Python >= 3.12, which would change the bits between versions.
            for term in jump_tails[bisect_left(jump_locs, p)]:
                total += term
            return total

        def values(prices) -> list:
            # g's body, in one loop over the prices.
            out = []
            for p in prices:
                k = bisect_right(piece_tops, p)
                total = 0.0
                if k < len(pieces):
                    total += pieces[k][1](p)
                    for term in whole_tails[k + 1]:
                        total += term
                for term in jump_tails[bisect_left(jump_locs, p)]:
                    total += term
                out.append(total)
            return out

        g_values = (-math.inf, math.inf, values)

    neg_top_g = [-g(t) for t in tops]  # nondecreasing

    def g_inverse(x: float) -> float:
        k = bisect_right(neg_top_g, -x)  # tops with g >= x; the last top's g is 0
        y = neg_top_g[k] + x  # the cost segment k owes below its top
        if y > whole[k]:  # a jump at its low end, or a flat segment
            return lows[k]
        return max(lows[k], forms[k].cost_inverse(y, tops[k]))

    return ExactForms(g, g_inverse, g_values)


# ---------------------------------------------------------------------------
# Catalog segments
# ---------------------------------------------------------------------------

def _whole(form: SegmentForm):
    return (Segment(0.0, math.inf, form),), ()


def _step_segments(threshold: float, low: float, high: float):
    segs = (Segment(0.0, threshold, ConstantForm(low)),
            Segment(threshold, math.inf, ConstantForm(high)))
    return segs, ((threshold, high - low),)


def _capped_segments(p0: float, p1: float, form: SegmentForm):
    """Zero below p0, form on [p0, p1], and form(p1) above a finite p1."""
    if p0 == p1:
        return _whole(ConstantForm(0.0))
    segs = [Segment(0.0, p0, ConstantForm(0.0))] if p0 > 0.0 else []
    segs.append(Segment(p0, p1, form))
    if math.isfinite(p1):
        segs.append(Segment(p1, math.inf, ConstantForm(form.value(p1))))
    return tuple(segs), ()


# ---------------------------------------------------------------------------
# The catalog registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One catalog family: everything the package knows about it.

    keys lists (key, field) pairs accepted in payoff documents and --param;
    the first key naming a field is the canonical one serialization writes.
    help is (parameters, validity, closed forms) as `cfmmrep catalog` prints
    it.  segments builds the payoff from the params; its g, g_inverse and
    trading function come from the segment forms' costs, like any payoff's.
    earnings, when given, is the expected arbitrage earnings E[W] along a
    driftless GBM path as a function of (sigma, horizon).
    """

    params: type
    name: str
    keys: tuple
    help: tuple
    segments: Callable
    earnings: Optional[Callable[[float, float], float]] = None


FAMILIES = (
    Family(
        CashOrNothing, "cash_or_nothing", (("p0", "p0"),),
        ("p0", "pays 1 above p0, 0 at or below; needs p0 > 0",
         "g, g_inverse, trading function (linear market maker)"),
        segments=lambda c: _step_segments(c.p0, 0.0, 1.0)),
    Family(
        CappedCall, "capped_call", (("p0", "p0"), ("p1", "p1")),
        ("p0, p1", "pays p - p0 between p0 and p1, capped; needs 0 < p0 <= p1 < inf",
         "g, g_inverse, trading function"),
        segments=lambda c: _capped_segments(c.p0, c.p1, LinearForm(c.p0, 0.0, 1.0))),
    Family(
        BlackScholesBinary, "black_scholes_binary",
        (("K", "strike"), ("strike", "strike"), ("sigma", "sigma"), ("tau", "tau")),
        ("K, sigma, tau",
         "binary call under a lognormal model; needs K >= 0, sigma >= 0, tau > 0",
         "g, g_inverse, trading function (via the normal CDF)"),
        segments=lambda b: (
            _whole(ConstantForm(1.0)) if b.strike == 0.0
            else _step_segments(b.strike, 0.0, 1.0) if b.is_step()
            else _whole(NormalCdfForm(b.strike, b.sigma, b.tau)))),
    Family(
        Logarithmic, "logarithmic", (("p0", "p0"),),
        ("p0", "pays log(p/p0) above p0; needs p0 > 0", "g, g_inverse, trading function"),
        segments=lambda lg: _capped_segments(lg.p0, math.inf, LogForm(lg.p0)),
        earnings=lambda sigma, horizon: 0.5 * sigma * sigma * horizon),
    Family(
        CappedPower, "capped_power", (("p0", "p0"), ("p1", "p1"), ("a", "a")),
        ("p0, p1, a",
         "pays p**a - p0**a between p0 and p1, capped; needs 0 <= p0 <= p1, a > 0; "
         "p1 must be finite when a >= 1 or the replication cost diverges",
         "g, g_inverse, trading function"),
        segments=lambda c: _capped_segments(c.p0, c.p1, PowerForm(1.0, c.a, -c.p0**c.a))),
    Family(
        ConstantProportion, "constant_proportion", (("w", "w"), ("C", "c"), ("c", "c")),
        ("w, C", "holds fixed value shares: f(p) = C * p**w; needs 0 < w < 1, C >= 0",
         "g, g_inverse, trading function (constant product/mean form)"),
        segments=lambda cp: _whole(ConstantForm(0.0) if cp.c == 0.0
                                   else PowerForm(cp.c, cp.w, 0.0))),
)

_BY_PARAMS = {fam.params: fam for fam in FAMILIES}
_BY_NAME = {fam.name: fam for fam in FAMILIES}


def family(params: CatalogParams) -> Family:
    try:
        return _BY_PARAMS[type(params)]
    except KeyError:
        raise InvalidParameterError(f"unknown catalog params {params!r}") from None


def natural_interval(params: CatalogParams) -> PriceInterval:
    """The interval each family is quoted on: [0, p1] for the families
    capped at p1, [0, inf) otherwise."""
    return PriceInterval(0.0, getattr(params, "p1", math.inf))


def make_catalog_payoff(params: CatalogParams) -> PayoffSpec:
    """The catalog payoff on its natural interval, the one spec naming its family.
    A payoff whose replication cost diverges builds; ReplicationProfile rejects it."""
    try:
        segments, jumps = family(params).segments(params)
    except OverflowError:
        raise NumericalError(
            f"{params}: the payoff overflows the float range") from None
    spec = PayoffSpec(segments=segments, jumps=jumps, interval=natural_interval(params))
    object.__setattr__(spec, "catalog", params)
    return spec


def constant_product_level(params: ConstantProportion) -> float:
    """Level k with r1**(1-w) * r2**w == k on the constant-proportion curve."""
    return params.c * (params.w / (1.0 - params.w)) ** params.w


# ---------------------------------------------------------------------------
# Piecewise-linear payoffs
# ---------------------------------------------------------------------------

def make_piecewise_payoff(points, jumps=()) -> PayoffSpec:
    """Monotone piecewise-linear payoff from (price, value) points.

    Between consecutive points the payoff interpolates linearly; it is
    constant below the first and above the last.  A jump at a point price
    lifts the function immediately above that price by the jump size.  The
    interval is the table's price range ([p, inf) for one point p).
    A jump outside [alpha, beta) keeps its step in f and adds nothing to g.
    """
    pts = [(float(p), float(v)) for p, v in points]
    if not pts:
        raise InvalidParameterError("piecewise payoff needs at least one point")
    for (pa, _), (pb, _) in zip(pts, pts[1:]):
        if not pa < pb:
            raise InvalidParameterError("piecewise point prices must be strictly increasing")
    if pts[0][0] < 0.0:
        raise InvalidParameterError("piecewise point prices must be >= 0")

    jump_map = {}
    for q, size in jumps:
        q, size = float(q), float(size)
        if not size >= 0.0:  # NaN fails too
            raise InvalidParameterError(f"jump size at {q} must be >= 0")
        if size > 0.0 or all(q != p for p, _ in pts):  # PayoffSpec rejects q off the table
            jump_map[q] = jump_map.get(q, 0.0) + size

    segs = []
    if pts[0][0] > 0.0:
        segs.append(Segment(0.0, pts[0][0], ConstantForm(pts[0][1])))
    for (pa, va), (pb, vb) in zip(pts, pts[1:]):
        start = va + jump_map.get(pa, 0.0)
        segs.append(Segment(pa, pb, LinearForm(pa, start, (vb - start) / (pb - pa))))
    top = pts[-1][1] + jump_map.get(pts[-1][0], 0.0)
    segs.append(Segment(pts[-1][0], math.inf, ConstantForm(top)))

    lo, hi = pts[0][0], pts[-1][0]
    return PayoffSpec(segments=tuple(segs), jumps=tuple(sorted(jump_map.items())),
                      interval=PriceInterval(lo, hi if hi > lo else math.inf))


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def _parse_number(value, what: str) -> float:
    if value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PayoffParseError(f"{what} must be a number or \"inf\", got {value!r}")
    return float(value)


def _pairs(rows, what: str):
    if not isinstance(rows, list):
        raise PayoffParseError(f'"{what}" must be a list of [price, value] pairs')
    for row in rows:
        if not isinstance(row, (list, tuple)) or len(row) != 2:
            raise PayoffParseError(f'every "{what}" entry must be a pair, got {row!r}')
    return rows


def catalog_params_from_mapping(name: str, raw: dict) -> CatalogParams:
    """Build catalog params from string-keyed values (JSON or CLI)."""
    if name not in _BY_NAME:
        known = ", ".join(sorted(_BY_NAME))
        raise PayoffParseError(f"unknown catalog payoff {name!r}; known: {known}")
    fam = _BY_NAME[name]
    aliases = dict(fam.keys)
    kwargs = {}
    for key, value in raw.items():
        if key not in aliases:
            raise PayoffParseError(f"unknown parameter {key!r} for catalog payoff {name!r}")
        field = aliases[key]
        if field in kwargs:
            raise PayoffParseError(f"parameter {field!r} given twice for {name!r}")
        kwargs[field] = _parse_number(value, f"parameter {key!r}")
    try:
        return fam.params(**kwargs)
    except TypeError:
        needed = ", ".join(sorted(set(aliases.values())))
        raise PayoffParseError(f"catalog payoff {name!r} needs parameters: {needed}") from None


def parse_payoff_document(doc: dict) -> PayoffSpec:
    """Build a payoff from an already-decoded JSON document: the payoff on
    its own default interval, then the document's bounds through with_bounds."""
    if not isinstance(doc, dict):
        raise PayoffParseError("payoff document must be a JSON object")
    bounds = {key: _parse_number(doc[key], key) for key in ("alpha", "beta") if key in doc}

    if "catalog" in doc:
        raw = {k: v for k, v in doc.items() if k not in ("catalog", "alpha", "beta")}
        spec = make_catalog_payoff(catalog_params_from_mapping(doc["catalog"], raw))
    elif "piecewise" in doc:
        body = doc["piecewise"]
        if not isinstance(body, dict) or "points" not in body:
            raise PayoffParseError('"piecewise" must be an object with a "points" list')
        extra = set(doc) - {"piecewise", "alpha", "beta"}
        if extra:
            raise PayoffParseError(f"unexpected top-level keys: {sorted(extra)}")
        points = [(_parse_number(p, "point price"), _parse_number(v, "point value"))
                  for p, v in _pairs(body["points"], "points")]
        jumps = [(_parse_number(q, "jump location"), _parse_number(s, "jump size"))
                 for q, s in _pairs(body.get("jumps", []), "jumps")]
        if not points:
            raise PayoffParseError("piecewise payoff needs at least one point")
        spec = make_piecewise_payoff(points, jumps)
    else:
        raise PayoffParseError('payoff document needs a "catalog" or "piecewise" key')
    return spec.with_bounds(**bounds)


def parse_payoff_file(text: str) -> PayoffSpec:
    """Parse a payoff JSON document; see the README for the format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PayoffParseError(exc.msg, line=exc.lineno) from None
    return parse_payoff_document(doc)


def serialize_payoff(spec: PayoffSpec) -> str:
    """The payoff's JSON document (round-trips with parse); InvalidParameterError if none."""
    def num(x):
        return "inf" if math.isinf(x) else x

    if spec.catalog is not None:
        fam = family(spec.catalog)
        doc = {"catalog": fam.name}
        canonical = {}
        for key, field in fam.keys:
            canonical.setdefault(field, key)
        for field, key in canonical.items():
            doc[key] = num(getattr(spec.catalog, field))
        doc["alpha"] = num(spec.interval.alpha)
        doc["beta"] = num(spec.interval.beta)
        return json.dumps(doc)

    for s in spec.segments:  # a table is linear between its points, flat past the last
        if (not isinstance(s.form, (ConstantForm, LinearForm))
                or s.hi == math.inf and s.form.slope(s.lo) > 0.0):
            raise InvalidParameterError(f"{s.form!r} on [{s.lo}, {s.hi}] has no table form")
    prices = [s.lo for s in spec.segments[1:]]
    if not isinstance(spec.segments[0].form, ConstantForm):
        prices = [spec.segments[0].lo] + prices
    if not prices:
        prices = [0.0]
    points = [[p, spec.value(p)] for p in prices]
    doc = {"piecewise": {"points": points, "jumps": [[q, s] for q, s in spec.jumps]},
           "alpha": num(spec.interval.alpha), "beta": num(spec.interval.beta)}
    return json.dumps(doc)
