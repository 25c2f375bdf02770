"""The numeric oracle: g by adaptive quadrature, g_inverse by bisection.

NumericProfile answers everything a ReplicationProfile answers, without
the exact route: g(p) integrates f'(q)/q from p to beta with the jump
terms added exactly, and g_inverse bisects on that g.  It shares no code
with the exact route's costs, so the tests hold that route against it.
Unbounded price intervals are folded to (0, 1/p] with the substitution
u = 1/q before integrating.
"""

from __future__ import annotations

import math

from .errors import NumericalError
from .payoffs import ConstantForm, LogForm, PayoffSpec
from .quadrature import DEFAULT_OPTIONS, QuadratureOptions, adaptive_simpson, integrate_from_zero
from .replication import ReplicationProfile


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
    p: float,
    opts: QuadratureOptions = DEFAULT_OPTIONS,
) -> float:
    """g(p) by adaptive quadrature, split at breakpoints, jumps added exactly.

    Cells are also split at the forms' positive, finite price_anchors so
    that a narrow feature never hides inside a cell much wider than itself.
    On an unbounded interval the spec's cost must not diverge (NumericProfile
    checks).  Raises NumericalError when a cell's quadrature does not converge.
    """
    interval = spec.interval
    beta = interval.beta
    if math.isinf(p):
        return 0.0
    what = f"quadrature of g at price {p}"

    total = sum(size / q for q, size in spec.jumps if p <= q < beta)
    anchors = sorted(set(spec.breakpoints) | {a for seg in spec.segments
                                              for a in seg.form.price_anchors()
                                              if 0.0 < a < math.inf})

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
            total += integrate_from_zero(
                fn, first, singular_exponent=max(2.0 - origin, 1.0 / 3.0), opts=opts).checked(what)
        elif not isinstance(form, ConstantForm):
            # Smooth start with a vanishing integrand limit (e.g. the
            # lognormal-model payoff): integrate plainly from zero.
            fn = _segment_integrand(spec, 0.0, first)
            total += integrate_from_zero(
                fn, first, singular_exponent=0.0, opts=opts).checked(what)
        p = first

    finite_top = beta if interval.bounded else max(p, max(anchors, default=p))
    cells = [p] + [a for a in anchors if p < a < finite_top] + [finite_top]
    for lo, hi in zip(cells, cells[1:]):
        if hi > lo:
            r = adaptive_simpson(_segment_integrand(spec, lo, hi), lo, hi, opts)
            total += r.checked(what)

    if not interval.bounded:
        r = integrate_from_zero(_tail_integrand(spec), 1.0 / finite_top,
                                singular_exponent=spec.tail_growth_exponent(), opts=opts)
        total += r.checked(what)
    return total


class NumericProfile(ReplicationProfile):
    """A replication profile on quadrature g and bisection g_inverse.

    The independent oracle for ReplicationProfile's exact route, with opts
    as its quadrature options.  It builds no exact route: psi is
    r1 + p* r2 - V(p*) on its g and g_inverse.  V, the portfolios and the
    reserve checks are ReplicationProfile's own.
    """

    _g_values = g_closed_form = g_inverse_closed_form = None

    def __init__(self, payoff: PayoffSpec, *, opts: QuadratureOptions = DEFAULT_OPTIONS):
        self.opts = opts
        super().__init__(payoff)

    def _build_routes(self):
        """Nothing to build: the closed forms stay the class's None."""

    def g(self, p: float) -> float:
        return quadrature_replication_cost(self.payoff, p, self.opts)

    def _solve_inverse(self, r2: float) -> float:
        """Rightmost price with g >= r2, for 0 < r2 <= g(alpha), by bisection.

        The bracket starts at alpha (or, from alpha = 0, descends by halving
        from the first breakpoint) and at beta (or, when unbounded, expands
        by doubling).  Geometric bisection then returns the last point that
        actually evaluated on the >= side, so the supremum convention
        survives a jump of g exactly at the boundary.
        """
        alpha, beta = self.interval.alpha, self.interval.beta
        lo = alpha
        if lo == 0.0:
            lo = min(self.payoff.breakpoints + (beta, 1.0))
            while self.g(lo) < r2:
                if r2 == self.g_alpha:  # the first form rises: g(p) < g(0) for all p > 0
                    return 0.0
                lo *= 0.5
        if self.interval.bounded:
            hi = beta
        else:
            hi = lo * 2.0
            while hi and self.g(hi) >= r2:  # a walk that reached lo = 0 answers 0
                lo, hi = hi, hi * 2.0
                if hi > 1e300:
                    raise NumericalError(
                        f"g_inverse bracket passed 1e300 with g still >= risky reserve {r2!r}")
        while hi - lo > 1e-12 * lo:  # relative width
            mid = math.sqrt(lo * hi)
            if mid <= lo or mid >= hi:
                break
            if self.g(mid) >= r2:
                lo = mid
            else:
                hi = mid
        return lo
