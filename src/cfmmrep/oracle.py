"""The numeric oracle: g by adaptive quadrature, g_inverse by bisection.

NumericProfile answers everything a ReplicationProfile answers, without
the exact route: g(p) integrates f'(q)/q from p to beta with the jump
terms added exactly, and g_inverse bisects on that g with
replication.crossing, the psi infimum oracle's bisection.  It shares no code
with the exact route's costs, so the tests hold that route against it.
Unbounded price intervals are folded to (0, 1/p] with the substitution
u = 1/q before integrating.
"""

from __future__ import annotations

import math
import sys

from .payoffs import ConstantForm, LogForm, PayoffSpec
from .quadrature import DEFAULT_OPTIONS, QuadratureOptions, adaptive_simpson, integrate_from_zero
from .replication import ReplicationProfile, crossing


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
    """The u = 1/q image of f'(q)/q on the last segment: h(u) = f'(1/u)/u.

    At u = 0, and where 1/u overflows on a tail of growth exponent 0, h is its
    exact limit q * f'(q): 1 for log tails, 0 for constant and normal-CDF ones.
    A power tail, softened before u = 0, is nan there, so its quadrature raises.
    """
    form = spec.segments[-1].form
    limit = 1.0 if isinstance(form, LogForm) else 0.0
    flat = form.growth_exponent() == 0.0

    def h(u: float) -> float:
        if u <= 0.0:
            return limit
        q = 1.0 / u
        return limit if q == math.inf and flat else form.slope(q) * q

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
        """Rightmost price with g >= r2, for 0 < r2 <= g(alpha): the low end
        of replication.crossing, or alpha where g is below r2 even there."""
        alpha = self.interval.alpha
        # g(first breakpoint or 1) < g(0): only 0 holds g(0), and the floor
        # walk toward it would fail in quadrature near price 1e-16.
        if r2 == self.g_alpha and alpha == 0.0 and self.g(
                min(self.payoff.breakpoints + (self.interval.beta, 1.0))) < r2:
            return 0.0
        a, _ = crossing(self, r2)
        # Only a floor at or under the least normal float can hold g < r2.
        return alpha if a <= sys.float_info.min and self.g(a) < r2 else a
