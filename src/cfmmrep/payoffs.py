"""Monotone payoff functions and the built-in payoff catalog.

A payoff maps the risky asset's price p (in units of the numeraire) to a
nonnegative, nondecreasing amount of numeraire f(p).  Payoffs are stored
as contiguous segments covering [0, inf), each with a typed form that can
report its value and slope, plus an explicit list of upward jumps.  At a
jump the payoff takes its lower value (lower semicontinuous), so the jump
mass is carried separately and stays visible to the integration code.

Six catalog families ship with closed forms for the replication quantities;
each is defined once, by its Family record in FAMILIES.  Everything else is
expressed as a monotone piecewise-linear table, whose g and g_inverse are
also exact.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from .errors import (
    DomainError,
    BreakpointDerivativeError,
    InfiniteReplicationCostError,
    InvalidParameterError,
    MonotonicityError,
    NumericalError,
    PayoffParseError,
)
from .normal import norm_cdf, norm_inv, norm_pdf


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

@dataclass(frozen=True, slots=True)
class ConstantForm:
    c: float

    def value(self, p: float) -> float:
        return self.c

    def values(self, prices) -> list:
        return [self.c] * len(prices)

    def slope(self, p: float) -> float:
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

    def value(self, p: float) -> float:
        return math.log(p / self.p0)

    def values(self, prices) -> list:
        log, p0 = math.log, self.p0
        return [log(p / p0) for p in prices]

    def slope(self, p: float) -> float:
        return 1.0 / p

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
        object.__setattr__(self, "_vol", self.sigma * math.sqrt(self.tau))

    def d(self, p: float) -> float:
        if p <= 0.0:
            return -math.inf
        return (math.log(p / self.strike) - 0.5 * self._vol * self._vol) / self._vol

    def value(self, p: float) -> float:
        return norm_cdf(self.d(p))

    def values(self, prices) -> list:
        d = self.d
        return [norm_cdf(d(p)) for p in prices]

    def slope(self, p: float) -> float:
        if p <= 0.0:
            return 0.0
        return norm_pdf(self.d(p)) / (p * self._vol)

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
    breakpoint is a positive price; jumps list (location, size) pairs with
    positive sizes at segment boundaries.  Immutable after construction,
    safe to evaluate concurrently.
    """

    segments: tuple
    jumps: tuple
    interval: PriceInterval
    catalog: Optional[CatalogParams] = None
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
        bounds = tuple(s.hi for s in self.segments[:-1])
        if bounds != tuple(s.lo for s in self.segments[1:]):
            raise InvalidParameterError("segments must be contiguous")
        object.__setattr__(self, "breakpoints", bounds)
        object.__setattr__(self, "_values", tuple(s.form.value for s in self.segments))
        locs = set(bounds)
        for q, size in self.jumps:
            if size < 0.0:
                raise InvalidParameterError(f"jump size at {q} must be >= 0")
            if q not in locs:
                raise InvalidParameterError(f"jump location {q} is not a breakpoint")

    def _segment_at(self, p: float) -> Segment:
        # bisect_left sends a boundary point to the lower segment, which is
        # exactly the lower-semicontinuous convention at jumps.
        return self.segments[bisect_left(self.breakpoints, p)]

    def value(self, p: float) -> float:
        """Payoff at price p, ignoring the replication interval."""
        if not p >= 0.0:  # NaN fails too
            raise DomainError(f"price must be >= 0, got {p}")
        return self._values[bisect_left(self.breakpoints, p)](p)

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
    if not (spec.interval.alpha < p < spec.interval.beta) or p <= 0.0:
        raise DomainError(f"price {p} is not interior to the replication interval")
    if p in spec.breakpoints:
        raise BreakpointDerivativeError(
            f"derivative undefined at breakpoint {p}; split integrals there")
    return spec.slope(p)


def payoff_breakpoints(spec: PayoffSpec) -> list:
    """Sorted interior kink/jump locations (every jump location included)."""
    return list(spec.breakpoints)


def payoff_price_anchors(spec: PayoffSpec) -> list:
    """Positive characteristic prices of the payoff's smooth forms."""
    out = set()
    for seg in spec.segments:
        for a in seg.form.price_anchors():
            if a > 0.0 and math.isfinite(a):
                out.add(a)
    return sorted(out)


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
# Closed forms for the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogClosedForms:
    """Exact formulas for the replication quantities on one interval.

    g maps price to required risky amount, g_inverse maps a risky reserve in
    (0, g(alpha)] back to the rightmost matching price, psi is the trading
    function over (numeraire, risky) reserves, or None where the generic
    r1 + p* r2 - V(p*) is the exact form.
    """

    g: Callable[[float], float]
    g_inverse: Callable[[float], float]
    psi: Optional[Callable[[float, float], float]]


def _cash_or_nothing_forms(p0: float) -> CatalogClosedForms:
    def g(p):
        return 1.0 / p0 if p <= p0 else 0.0

    def g_inv(x):
        return p0 if x > 0.0 else math.inf

    def psi(r1, r2):
        return r1 + p0 * r2 - 1.0

    return CatalogClosedForms(g, g_inv, psi)


def _capped_call_forms(p0: float, p1: float) -> CatalogClosedForms:
    # From p0 = 0 the payoff rises linearly from the origin: g(0) = inf.
    g_max = math.log(p1 / p0) if p0 > 0.0 else math.inf

    def g(p):
        if p <= p0:
            return g_max
        if p <= p1:
            return math.log(p1 / p)
        return 0.0

    def g_inv(x):
        return p1 * math.exp(-x)

    def psi(r1, r2):
        return r1 + p0 - p1 * math.exp(-r2)

    return CatalogClosedForms(g, g_inv, psi)


def _bs_binary_forms(strike: float, sigma: float, tau: float) -> CatalogClosedForms:
    vol = sigma * math.sqrt(tau)

    def d(p):
        if p <= 0.0:
            return -math.inf
        if vol == 0.0:
            return math.inf if p > strike else -math.inf
        return (math.log(p / strike) - 0.5 * vol * vol) / vol

    def g(p):
        # Survival form Phi(-x) rather than 1 - Phi(x): no cancellation in
        # the deep tail.
        return norm_cdf(-(d(p) + vol)) / strike

    def g_inv(x):
        return strike * math.exp(vol * norm_inv(1.0 - strike * x) - 0.5 * vol * vol)

    def psi(r1, r2):
        return r1 - norm_cdf(norm_inv(1.0 - strike * r2) - vol)

    return CatalogClosedForms(g, g_inv, psi)


def _logarithmic_forms(p0: float) -> CatalogClosedForms:
    def g(p):
        return 1.0 / p0 if p < p0 else 1.0 / p

    def g_inv(x):
        return 1.0 / x if x > 0.0 else math.inf

    def psi(r1, r2):
        return r1 + math.log(p0 * r2)

    return CatalogClosedForms(g, g_inv, psi)


def _capped_power_forms(p0: float, p1: float, a: float) -> CatalogClosedForms:
    if a == 1.0:
        return _capped_call_forms(p0, p1)
    coef = a / (a - 1.0)
    p1_pow = p1 ** (a - 1.0) if math.isfinite(p1) else (0.0 if a < 1.0 else math.inf)

    def g(p):
        if p < p0:
            p = p0
        if p >= p1:
            return 0.0
        if p == 0.0 and a < 1.0:
            return math.inf  # p0 = 0 with a sublinear start: divergent at 0
        return coef * (p1_pow - p ** (a - 1.0))

    def g_inv(x):
        base = p1_pow + (1.0 - a) / a * x
        if a < 1.0:
            if base <= 0.0:
                return math.inf  # x = 0 on an uncapped sublinear tail
            return base ** (1.0 / (a - 1.0))
        # a > 1: the exponent is positive, so the base hitting 0 means the
        # price hit 0; clamp float noise below it.
        return max(base, 0.0) ** (1.0 / (a - 1.0))

    def psi(r1, r2):
        base = p1_pow + (1.0 - a) / a * r2
        if a > 1.0:
            base = max(base, 0.0)
        return r1 + p0**a - base ** (a / (a - 1.0))

    return CatalogClosedForms(g, g_inv, psi)


def _constant_proportion_forms(w: float, c: float) -> CatalogClosedForms:
    coef = c * w / (1.0 - w)

    def g(p):
        if p == 0.0:
            return math.inf
        return coef * p ** (w - 1.0)

    def g_inv(x):
        if x <= 0.0:
            return math.inf
        return ((1.0 - w) * x / (w * c)) ** (-1.0 / (1.0 - w))

    def psi(r1, r2):
        return r1 - c * ((1.0 - w) * r2 / (w * c)) ** (-w / (1.0 - w))

    return CatalogClosedForms(g, g_inv, psi)


# ---------------------------------------------------------------------------
# The catalog registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    """One catalog family: everything the package knows about it.

    keys lists (key, field) pairs accepted in payoff documents and --param;
    the first key naming a field is the canonical one serialization writes.
    help is (parameters, validity, closed forms) as `cfmmrep catalog` prints
    it.  segments and closed_forms build the payoff and its formulas from
    the params (closed_forms returns None for flat, degenerate parameters).
    capped families are capped at p1: their natural interval is [0, p1], and
    lowering p1 to beta >= p0 leaves the payoff on [0, beta] unchanged.
    earnings, when given, is the expected arbitrage earnings E[W] along a
    driftless GBM path as a function of (sigma, horizon).
    """

    params: type
    name: str
    keys: tuple
    help: tuple
    segments: Callable
    closed_forms: Callable
    capped: bool = False
    earnings: Optional[Callable[[float, float], float]] = None


FAMILIES = (
    Family(
        CashOrNothing, "cash_or_nothing", (("p0", "p0"),),
        ("p0", "pays 1 above p0, 0 at or below; needs p0 > 0",
         "g, g_inverse, trading function (linear market maker)"),
        segments=lambda c: _step_segments(c.p0, 0.0, 1.0),
        closed_forms=lambda c: _cash_or_nothing_forms(c.p0)),
    Family(
        CappedCall, "capped_call", (("p0", "p0"), ("p1", "p1")),
        ("p0, p1", "pays p - p0 between p0 and p1, capped; needs 0 < p0 <= p1 < inf",
         "g, g_inverse, trading function"),
        segments=lambda c: _capped_segments(c.p0, c.p1, LinearForm(c.p0, 0.0, 1.0)),
        closed_forms=lambda c: None if c.p0 == c.p1 else _capped_call_forms(c.p0, c.p1),
        capped=True),
    Family(
        BlackScholesBinary, "black_scholes_binary",
        (("K", "strike"), ("strike", "strike"), ("sigma", "sigma"), ("tau", "tau")),
        ("K, sigma, tau",
         "binary call under a lognormal model; needs K >= 0, sigma >= 0, tau > 0",
         "g, g_inverse, trading function (via the normal CDF)"),
        segments=lambda b: (
            _whole(ConstantForm(1.0)) if b.strike == 0.0
            else _step_segments(b.strike, 0.0, 1.0) if b.sigma == 0.0
            else _whole(NormalCdfForm(b.strike, b.sigma, b.tau))),
        closed_forms=lambda b: (
            None if b.strike == 0.0
            else _cash_or_nothing_forms(b.strike) if b.sigma == 0.0
            else _bs_binary_forms(b.strike, b.sigma, b.tau))),
    Family(
        Logarithmic, "logarithmic", (("p0", "p0"),),
        ("p0", "pays log(p/p0) above p0; needs p0 > 0", "g, g_inverse, trading function"),
        segments=lambda lg: _capped_segments(lg.p0, math.inf, LogForm(lg.p0)),
        closed_forms=lambda lg: _logarithmic_forms(lg.p0),
        earnings=lambda sigma, horizon: 0.5 * sigma * sigma * horizon),
    Family(
        CappedPower, "capped_power", (("p0", "p0"), ("p1", "p1"), ("a", "a")),
        ("p0, p1, a",
         "pays p**a - p0**a between p0 and p1, capped; needs 0 <= p0 <= p1, a > 0; "
         "p1 must be finite when a >= 1 or the replication cost diverges",
         "g, g_inverse, trading function"),
        segments=lambda c: _capped_segments(c.p0, c.p1, PowerForm(1.0, c.a, -c.p0**c.a)),
        closed_forms=lambda c: None if c.p0 == c.p1 else _capped_power_forms(c.p0, c.p1, c.a),
        capped=True),
    Family(
        ConstantProportion, "constant_proportion", (("w", "w"), ("C", "c"), ("c", "c")),
        ("w, C", "holds fixed value shares: f(p) = C * p**w; needs 0 < w < 1, C >= 0",
         "g, g_inverse, trading function (constant product/mean form)"),
        segments=lambda cp: _whole(ConstantForm(0.0) if cp.c == 0.0
                                   else PowerForm(cp.c, cp.w, 0.0)),
        closed_forms=lambda cp: None if cp.c == 0.0 else _constant_proportion_forms(cp.w, cp.c)),
)

_BY_PARAMS = {fam.params: fam for fam in FAMILIES}
_BY_NAME = {fam.name: fam for fam in FAMILIES}


def family(params: CatalogParams) -> Family:
    try:
        return _BY_PARAMS[type(params)]
    except KeyError:
        raise InvalidParameterError(f"unknown catalog params {params!r}") from None


def natural_interval(params: CatalogParams) -> PriceInterval:
    """The interval each family is quoted on: [0, p1] for capped payoffs,
    [0, inf) otherwise."""
    return PriceInterval(0.0, params.p1 if family(params).capped else math.inf)


def make_catalog_payoff(
    params: CatalogParams,
    interval: Optional[PriceInterval] = None,
    *,
    allow_infinite_cost: bool = False,
) -> PayoffSpec:
    """Build a catalog payoff on the given (or natural) interval.

    Raises InfiniteReplicationCostError for configurations whose risky-asset
    requirement diverges (a linear or superlinear tail on an unbounded
    interval), unless allow_infinite_cost is set, which is useful only for
    growth classification.
    """
    if interval is None:
        interval = natural_interval(params)
    try:
        segments, jumps = family(params).segments(params)
    except OverflowError:
        raise NumericalError(
            f"{params}: the payoff overflows the float range") from None
    spec = PayoffSpec(segments=segments, jumps=jumps, interval=interval, catalog=params)
    if spec.cost_diverges() and not allow_infinite_cost:
        raise InfiniteReplicationCostError(
            "payoff grows at least linearly up to an unbounded price: the required "
            "risky reserve diverges; cap the payoff (finite p1) or bound the interval")
    return spec


def catalog_closed_forms(params: CatalogParams,
                         beta: float = math.inf) -> Optional[CatalogClosedForms]:
    """Closed forms of a catalog family on an interval ending at beta.

    Returns None for degenerate (flat) parameters.  The family's own forms
    hold wherever g(beta) = 0, that is when the interval reaches the price
    where the payoff stops moving.  Cutting a family short of that is
    exactly a shift by g(beta):

        g(p) - g(beta),   g_inverse(x + g(beta)),   psi(r1, r2 + g(beta)).

    Where g(beta) is infinite (a linear tail, p1 = inf), the family capped
    at beta is the same payoff on [0, beta] and its own forms apply.
    """
    fam = family(params)
    forms = fam.closed_forms(params)
    if forms is None or math.isinf(beta):
        return forms
    shift = forms.g(beta)
    if shift == 0.0:
        return forms
    if math.isinf(shift):  # a linear tail, or the zero-width interval [0, 0]
        if not fam.capped:
            return None
        return catalog_closed_forms(replace(params, p1=max(beta, params.p0)))
    g, g_inverse, psi = forms.g, forms.g_inverse, forms.psi
    return CatalogClosedForms(
        lambda p: g(p) - shift if p < beta else 0.0,
        lambda x: g_inverse(x + shift),
        lambda r1, r2: psi(r1, r2 + shift))


def constant_product_level(params: ConstantProportion) -> float:
    """Level k with r1**(1-w) * r2**w == k on the constant-proportion curve."""
    return params.c * (params.w / (1.0 - params.w)) ** params.w


# ---------------------------------------------------------------------------
# Piecewise-linear payoffs
# ---------------------------------------------------------------------------

def make_piecewise_payoff(points, jumps=(), interval=None) -> PayoffSpec:
    """Monotone piecewise-linear payoff from (price, value) points.

    Between consecutive points the payoff interpolates linearly; it is
    constant below the first and above the last.  A jump at a point price
    lifts the function immediately above that price by the jump size.  The
    default interval is the table's price range.
    """
    pts = [(float(p), float(v)) for p, v in points]
    if not pts:
        raise InvalidParameterError("piecewise payoff needs at least one point")
    for (pa, _), (pb, _) in zip(pts, pts[1:]):
        if not pa < pb:
            raise InvalidParameterError("piecewise point prices must be strictly increasing")
    if pts[0][0] < 0.0:
        raise InvalidParameterError("piecewise point prices must be >= 0")
    if pts[0][1] < 0.0:
        raise MonotonicityError(f"payoff value {pts[0][1]} at {pts[0][0]} is negative")

    jump_map = {}
    for q, size in jumps:
        q, size = float(q), float(size)
        if size < 0.0:
            raise InvalidParameterError(f"jump size at {q} must be >= 0")
        if all(q != p for p, _ in pts):
            raise InvalidParameterError(f"jump location {q} must be one of the table prices")
        if size > 0.0:
            jump_map[q] = jump_map.get(q, 0.0) + size

    segs = []
    if pts[0][0] > 0.0:
        segs.append(Segment(0.0, pts[0][0], ConstantForm(pts[0][1])))
    for (pa, va), (pb, vb) in zip(pts, pts[1:]):
        start = va + jump_map.get(pa, 0.0)
        if vb < start:
            raise MonotonicityError(
                f"payoff decreases from {start} at {pa} to {vb} at {pb}")
        segs.append(Segment(pa, pb, LinearForm(pa, start, (vb - start) / (pb - pa))))
    top = pts[-1][1] + jump_map.get(pts[-1][0], 0.0)
    segs.append(Segment(pts[-1][0], math.inf, ConstantForm(top)))

    if interval is None:
        lo, hi = pts[0][0], pts[-1][0]
        interval = PriceInterval(lo, hi if hi > lo else math.inf)
    for q in jump_map:
        if not (interval.alpha <= q < interval.beta):
            raise InvalidParameterError(
                f"jump at {q} lies outside [alpha, beta) = [{interval.alpha}, {interval.beta})")
    jump_list = tuple(sorted(jump_map.items()))
    return PayoffSpec(segments=tuple(segs), jumps=jump_list, interval=interval)


def piecewise_exact_forms(spec: PayoffSpec) -> Optional[CatalogClosedForms]:
    """Exact g and g_inverse when every segment below beta is linear or constant.

    Each linear segment of slope s on [lo, hi] contributes
    s * log(min(hi, beta) / max(p, lo)) to g(p), and each jump at q in
    [p, beta) contributes size / q.  So on a segment with top t (its hi, or
    beta) g(p) = g(t) + s * log(t / p), where g(t) already holds a jump at
    t.  g_inverse bisects the segment-top values for the first segment whose
    top falls below x and solves on it with one exp; a crossing inside a
    jump or on a flat segment lands on the segment's low end, the rightmost
    price.  psi is None: r1 + p* r2 - V(p*) with this p* is already exact.

    Every term that does not depend on p is computed here, once: each
    sloped segment's whole term s * log(t / lo) (infinite from lo = 0,
    where f rises linearly from the origin) and each jump's size / q.  A
    call to g then costs two bisects (segments, jumps) and one log: it adds
    the term of the segment holding p, then the whole terms above it, then
    the jump terms from p up, in ascending price order, so every table sums
    in one fixed order.

    Returns None when a segment below beta has any other form.
    """
    beta = spec.interval.beta
    below = [s for s in spec.segments if s.lo < beta]
    if not all(isinstance(s.form, (ConstantForm, LinearForm)) for s in below):
        return None
    lows = [s.lo for s in below]
    tops = [min(s.hi, beta) for s in below]
    slopes = [s.form.slope(s.lo) for s in below]
    pieces = [piece for piece in zip(lows, tops, slopes) if piece[2] > 0.0]
    piece_tops = [top for _, top, _ in pieces]
    whole = [slope * math.log(top / lo) if lo > 0.0 else math.inf
             for lo, top, slope in pieces]
    jumps = sorted(((q, size) for q, size in spec.jumps if q < beta), key=lambda j: j[0])
    jump_locs = [q for q, _ in jumps]
    jump_terms = [size / q for q, size in jumps]

    def g(p: float) -> float:
        # Segments whose top is at or below p add nothing; the one holding
        # p adds its partial term, and every segment above it its whole term.
        k = bisect_right(piece_tops, p)
        total = 0.0
        if k < len(pieces):
            lo, top, slope = pieces[k]
            total += slope * math.log(top / p) if p > lo else whole[k]
            for term in whole[k + 1:]:
                total += term
        # An explicit loop, not sum(): sum() compensates rounding on
        # Python >= 3.12, which would change the bits between versions.
        for term in jump_terms[bisect_left(jump_locs, p):]:
            total += term
        return total

    neg_top_g = [-g(t) for t in tops]  # nondecreasing

    def g_inverse(x: float) -> float:
        k = bisect_right(neg_top_g, -x)  # segments whose top still has g >= x
        if k == len(below):
            return tops[-1]
        if slopes[k] > 0.0:
            return max(lows[k], tops[k] * math.exp((neg_top_g[k] + x) / -slopes[k]))
        return lows[k]

    return CatalogClosedForms(g, g_inverse, None)


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
    """Build a payoff from an already-decoded JSON document."""
    if not isinstance(doc, dict):
        raise PayoffParseError("payoff document must be a JSON object")
    has_alpha = "alpha" in doc
    has_beta = "beta" in doc
    alpha = _parse_number(doc["alpha"], "alpha") if has_alpha else None
    beta = _parse_number(doc["beta"], "beta") if has_beta else None

    if "catalog" in doc:
        name = doc["catalog"]
        raw = {k: v for k, v in doc.items() if k not in ("catalog", "alpha", "beta")}
        params = catalog_params_from_mapping(name, raw)
        base = natural_interval(params)
        interval = PriceInterval(alpha if has_alpha else base.alpha,
                                 beta if has_beta else base.beta)
        return make_catalog_payoff(params, interval)

    if "piecewise" in doc:
        body = doc["piecewise"]
        if not isinstance(body, dict) or "points" not in body:
            raise PayoffParseError('"piecewise" must be an object with a "points" list')
        extra = set(doc) - {"piecewise", "alpha", "beta"}
        if extra:
            raise PayoffParseError(f"unexpected top-level keys: {sorted(extra)}")
        points = [(_parse_number(p, "point price"), _parse_number(v, "point value"))
                  for p, v in _pairs(body.get("points", []), "points")]
        jumps = [(_parse_number(q, "jump location"), _parse_number(s, "jump size"))
                 for q, s in _pairs(body.get("jumps", []), "jumps")]
        interval = None
        if has_alpha or has_beta:
            if not points:
                raise PayoffParseError("piecewise payoff needs at least one point")
            interval = PriceInterval(alpha if has_alpha else points[0][0],
                                     beta if has_beta else points[-1][0])
        return make_piecewise_payoff(points, jumps, interval)

    raise PayoffParseError('payoff document needs a "catalog" or "piecewise" key')


def parse_payoff_file(text: str) -> PayoffSpec:
    """Parse a payoff JSON document; see the README for the format."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PayoffParseError(exc.msg, line=exc.lineno) from None
    return parse_payoff_document(doc)


def serialize_payoff(spec: PayoffSpec) -> str:
    """Render a payoff back to its JSON document (round-trips with parse)."""
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

    prices = [s.lo for s in spec.segments[1:]]
    if not isinstance(spec.segments[0].form, ConstantForm):
        prices = [spec.segments[0].lo] + prices
    if not prices:
        prices = [0.0]
    points = [[p, spec.value(p)] for p in prices]
    doc = {"piecewise": {"points": points, "jumps": [[q, s] for q, s in spec.jumps]},
           "alpha": num(spec.interval.alpha), "beta": num(spec.interval.beta)}
    return json.dumps(doc)
