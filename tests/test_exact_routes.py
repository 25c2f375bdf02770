"""Every catalog and piecewise-linear payoff evaluates on an exact route.

Quadrature and bisection are the oracle the exact routes are held against.
With them patched to raise, g, g_inverse, V and psi still evaluate for the
six catalog families on their natural intervals and on cut ones, and for
piecewise tables with jumps; against a use_closed_forms=False profile they
agree to 1e-9.
"""

import contextlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmmrep import (
    BlackScholesBinary,
    CappedCall,
    CappedPower,
    CashOrNothing,
    ConstantProportion,
    Logarithmic,
    PriceInterval,
    ReplicationProfile,
    TradingFunction,
    make_catalog_payoff,
    trading_function_eval,
)
from cfmmrep import quadrature, replication
from cfmmrep.payoffs import (
    ConstantForm,
    PayoffSpec,
    PowerForm,
    Segment,
    make_piecewise_payoff,
    piecewise_exact_forms,
)
from cfmmrep.quadrature import QuadratureOptions
from test_properties import random_piecewise_payoff

# (params, lowest beta drawn, highest beta drawn); the highest sits at or
# below the family's cap, so every draw cuts the family short.
CUT_FAMILIES = [
    (CashOrNothing(2.0), 0.1, 2.0),
    (CappedCall(1.0, 4.0), 0.5, 4.0),
    (BlackScholesBinary(1.0, 0.2, 1.0), 0.3, 20.0),
    (Logarithmic(1.0), 0.5, 100.0),
    (CappedPower(1.0, 4.0, 2.0), 0.5, 4.0),
    (ConstantProportion(0.5, 1.0), 0.1, 100.0),
    (CappedCall(1.0, math.inf), 0.5, 10.0),
    (CappedPower(1.0, math.inf, 2.0), 0.5, 10.0),
    (CappedPower(0.0, math.inf, 0.5), 0.5, 10.0),
]

NATURAL = [make_catalog_payoff(params) for params, _, _ in CUT_FAMILIES[:6]] + [
    # Degenerate parameters: flat payoffs on the piecewise-linear route.
    make_catalog_payoff(CappedCall(2.0, 2.0)),
    make_catalog_payoff(ConstantProportion(0.5, 0.0)),
    make_catalog_payoff(BlackScholesBinary(0.0, 0.2, 1.0)),
]


# The oracle's own error has to sit well below the 1e-9 it is held to.
ORACLE = QuadratureOptions(rel_tol=1e-11, abs_tol=1e-300)


def _forbidden(*args, **kwargs):
    raise AssertionError("the numeric route ran")


@contextlib.contextmanager
def numeric_route_forbidden():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replication, "adaptive_simpson", _forbidden)
        mp.setattr(replication, "integrate_from_zero", _forbidden)
        mp.setattr(quadrature, "adaptive_simpson", _forbidden)
        mp.setattr(replication.ReplicationProfile, "_bisect_inverse", _forbidden)
        yield


def _sample_prices(profile, rng, n):
    lo = max(profile.interval.alpha, 1e-2)
    hi = profile.interval.beta if profile.interval.bounded else 200.0
    return [math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(n)]


def _evaluate(profile, rng, n=6):
    """(p, g, V, r2, g_inverse, r1, psi) at sampled prices and reserves."""
    tf = TradingFunction(profile)
    rows = []
    for p in _sample_prices(profile, rng, n):
        g = profile.g(p)
        top = profile.g_alpha if math.isfinite(profile.g_alpha) else g
        r2 = g if rng.random() < 0.5 else rng.uniform(0.0, top)
        r1 = profile.payoff.value(p) + rng.uniform(0.0, 1.0)
        psi = trading_function_eval(tf, r1, r2) if r2 > 0.0 else None
        rows.append((p, g, profile.portfolio_value(p), r2,
                     profile.g_inverse_value(r2), r1, psi))
    return rows


def _assert_matches_oracle(spec, seed):
    with numeric_route_forbidden():
        exact = ReplicationProfile(spec)
        rows = _evaluate(exact, random.Random(seed))
    oracle = ReplicationProfile(spec, opts=ORACLE, use_closed_forms=False)
    tf = TradingFunction(oracle)
    for p, g, v, r2, p_star, r1, psi in rows:
        assert g == pytest.approx(oracle.g(p), rel=1e-9, abs=1e-12), p
        assert v == pytest.approx(oracle.portfolio_value(p), rel=1e-9, abs=1e-12), p
        # Where g is flat the price is ill-posed; g at the two prices is not.
        oracle_p = oracle.g_inverse_value(r2)
        if math.isinf(p_star) or math.isinf(oracle_p):
            assert p_star == oracle_p
        else:
            assert (p_star == pytest.approx(oracle_p, rel=1e-9) or exact.g(p_star)
                    == pytest.approx(exact.g(oracle_p), rel=1e-9, abs=1e-12)), r2
            assert exact.g(p_star) >= r2 - 1e-12
        if psi is not None:
            # The two routes' g(alpha) may differ in the last bits.
            oracle_psi = trading_function_eval(tf, r1, min(r2, oracle.g_alpha))
            assert psi == pytest.approx(oracle_psi, rel=1e-9, abs=1e-12), (r1, r2)


@pytest.mark.parametrize("spec", NATURAL, ids=lambda s: repr(s.catalog).replace(" ", ""))
def test_natural_intervals_use_exact_routes(spec):
    with numeric_route_forbidden():
        profile = ReplicationProfile(spec)
        assert profile.g_closed_form is not None
        assert profile.g_inverse_closed_form is not None
        _evaluate(profile, random.Random(1))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=st.sampled_from(range(len(CUT_FAMILIES))),
       cut=st.floats(0.0, 1.0), start=st.floats(0.0, 0.9),
       seed=st.integers(0, 2**32 - 1))
def test_cut_catalog_matches_oracle(case, cut, start, seed):
    params, lo, hi = CUT_FAMILIES[case]
    beta = lo * (hi / lo) ** cut
    alpha = 0.0 if start < 0.3 else beta * start
    spec = make_catalog_payoff(params, PriceInterval(alpha, beta))
    _assert_matches_oracle(spec, seed)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_piecewise_tables_match_oracle(seed):
    _assert_matches_oracle(random_piecewise_payoff(random.Random(seed)), seed)


def test_hand_built_nonlinear_segment_uses_quadrature():
    # A table-like payoff (no catalog entry) whose second segment is a power:
    # g(4) = integral of 0.5 q**-1.5 over [4, 9] = 1/2 - 1/3.
    spec = PayoffSpec(
        segments=(Segment(0.0, 1.0, ConstantForm(0.0)),
                  Segment(1.0, math.inf, PowerForm(1.0, 0.5, -1.0))),
        jumps=(), interval=PriceInterval(0.0, 9.0))
    profile = ReplicationProfile(spec)
    assert profile.g_closed_form is None
    assert profile.g(4.0) == pytest.approx(1.0 / 6.0, rel=1e-9)


# ---------------------------------------------------------------------------
# The table g: precomputed terms, the same bits as the plain segment loop
# ---------------------------------------------------------------------------

def _loop_g(spec):
    """The reference: every segment's term rebuilt on each call, in order."""
    beta = spec.interval.beta
    pieces = [(s.lo, min(s.hi, beta), s.form.slope(s.lo))
              for s in spec.segments if s.lo < beta and s.form.slope(s.lo) > 0.0]

    def g(p):
        total = 0.0
        for lo, top, slope in pieces:
            bottom = max(p, lo)
            if top > bottom:
                total += slope * math.log(top / bottom)
        for q, size in spec.jumps:
            if p <= q < beta:
                total += size / q
        return total

    return g


def _random_table(rng):
    """A table with flat stretches, some jumps, often a start at price 0
    (f rising linearly from the origin), alpha > 0, or beta cut inside a
    segment."""
    prices = [0.0] if rng.random() < 0.4 else [rng.uniform(0.05, 1.0)]
    for _ in range(rng.randint(1, 7)):
        prices.append(prices[-1] + rng.uniform(0.1, 2.0))
    values, jumps, v = [], [], rng.uniform(0.0, 0.5) if prices[0] > 0.0 else 0.0
    for i, price in enumerate(prices):
        values.append(v)
        if 0 < i < len(prices) - 1 and rng.random() < 0.4:
            jumps.append((price, rng.uniform(0.01, 1.0)))
            v += jumps[-1][1]
        v += rng.choice((0.0, rng.uniform(0.0, 2.0)))
    k = rng.randrange(len(prices) - 1)
    alpha = prices[0]
    if rng.random() < 0.5:
        alpha = rng.uniform(prices[0], prices[1])
    beta = prices[-1]
    if rng.random() < 0.5:
        beta = rng.uniform(max(prices[k], alpha), prices[k + 1])
    elif rng.random() < 0.3:
        beta = math.inf
    jumps = [(q, size) for q, size in jumps if alpha <= q < beta]
    return make_piecewise_payoff(list(zip(prices, values)), jumps,
                                 PriceInterval(alpha, beta))


def test_table_g_has_the_loops_bits():
    rng = random.Random(515)
    zero_starts = 0
    for _ in range(300):
        spec = _random_table(rng)
        g, reference = piecewise_exact_forms(spec).g, _loop_g(spec)
        alpha, beta = spec.interval.alpha, spec.interval.beta
        prices = {alpha, beta} | set(spec.breakpoints) | {q for q, _ in spec.jumps}
        for seg in spec.segments:
            hi = min(seg.hi, beta if math.isfinite(beta) else seg.lo + 10.0)
            if seg.lo < hi:
                prices |= {seg.lo + (hi - seg.lo) * t for t in (1e-9, 0.25, 0.5, 0.9)}
                prices.add(rng.uniform(seg.lo, hi))
        for p in sorted(prices):
            if p == 0.0 and spec.segments[0].form.slope(0.0) > 0.0:
                zero_starts += 1
                assert g(p) == math.inf  # the loop divides by zero here
                continue
            assert g(p) == reference(p), (spec, p)
    assert zero_starts > 20
