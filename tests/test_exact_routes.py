"""Every payoff evaluates on one exact route.

Quadrature and bisection are the oracle the exact route is held against.
With them patched to raise, g, g_inverse, V and psi still evaluate for the
six catalog families on their natural intervals and on cut ones, for
piecewise tables with jumps, and for hand-built specs of each segment form;
against a NumericProfile they agree to 1e-9.  The route
keeps the bits of the per-family formulas it replaced and of the table
loop, both kept here as references.  Every family's psi is the paper's
construction r1 + p* r2 - V(p*), and its own trading function, kept here
too, is the reference that construction is held to.
"""

import ast
import contextlib
import hashlib
import inspect
import math
import random
import struct
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmmrep import (
    BlackScholesBinary,
    CappedCall,
    CappedPower,
    CashOrNothing,
    ConstantProportion,
    InfiniteReplicationCostError,
    Logarithmic,
    NumericProfile,
    PriceInterval,
    ReplicationProfile,
    TradingFunction,
    constant_product_level,
    make_catalog_payoff,
    trading_function_eval,
)
from cfmmrep import oracle, payoffs, quadrature, replication
from cfmmrep.normal import norm_cdf, norm_inv
from cfmmrep.payoffs import (
    ConstantForm,
    LinearForm,
    LogForm,
    NormalCdfForm,
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
        mp.setattr(oracle, "adaptive_simpson", _forbidden)
        mp.setattr(oracle, "integrate_from_zero", _forbidden)
        mp.setattr(oracle, "quadrature_replication_cost", _forbidden)
        mp.setattr(oracle.NumericProfile, "_solve_inverse", _forbidden)
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
    oracle = NumericProfile(spec, opts=ORACLE)
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
    spec = make_catalog_payoff(params).with_bounds(alpha, beta)
    _assert_matches_oracle(spec, seed)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_piecewise_tables_match_oracle(seed):
    _assert_matches_oracle(random_piecewise_payoff(random.Random(seed)), seed)


# ---------------------------------------------------------------------------
# Hand-built specs: every segment form on the exact route
# ---------------------------------------------------------------------------

INF = math.inf

# (name, segments, jumps, the top of the last rise or inf, a cut inside a rise)
HAND_BUILT = [
    ("constant", (Segment(0.0, 1.0, ConstantForm(0.0)), Segment(1.0, 2.0, ConstantForm(0.5)),
                  Segment(2.0, INF, ConstantForm(1.5))), ((1.0, 0.5), (2.0, 1.0)), 3.0, 1.5),
    ("linear", (Segment(0.0, 1.0, LinearForm(0.0, 0.0, 1.0)),
                Segment(1.0, 3.0, LinearForm(1.0, 1.25, 0.5)),
                Segment(3.0, INF, ConstantForm(2.25))), ((1.0, 0.25),), 3.0, 2.0),
    ("power_sqrt_from_0", (Segment(0.0, 4.0, PowerForm(1.0, 0.5)),
                           Segment(4.0, INF, ConstantForm(2.0))), (), 4.0, 2.5),
    ("power_2_5_from_0", (Segment(0.0, 2.0, PowerForm(0.5, 2.5, 0.1)),
                          Segment(2.0, INF, ConstantForm(0.5 * 2.0**2.5 + 0.1))), (), 2.0, 1.5),
    ("power_1", (Segment(0.0, 1.0, ConstantForm(0.0)), Segment(1.0, 3.0, PowerForm(2.0, 1.0, -2.0)),
                 Segment(3.0, INF, ConstantForm(4.0))), (), 3.0, 2.0),
    ("power_sqrt_tail", (Segment(0.0, 1.0, ConstantForm(0.0)),
                         Segment(1.0, INF, PowerForm(1.0, 0.5, -1.0))), (), INF, 9.0),
    ("power_rising_negative_exponent", (Segment(0.0, 1.0, ConstantForm(0.0)),
                                        Segment(1.0, INF, PowerForm(-1.0, -1.0, 1.0))),
     (), INF, 4.0),
    ("log", (Segment(0.0, 1.0, ConstantForm(0.0)), Segment(1.0, INF, LogForm(1.0))), (), INF, 5.0),
    ("normal_cdf", (Segment(0.0, INF, NormalCdfForm(1.0, 0.3, 1.0)),), (), INF, 2.0),
]


def _hand_built(case, interval):
    return PayoffSpec(case[1], case[2], interval)


@pytest.mark.parametrize("case", HAND_BUILT, ids=[case[0] for case in HAND_BUILT])
@pytest.mark.parametrize("where", ["uncut", "cut", "uncut_from_alpha", "cut_from_alpha"])
def test_hand_built_forms_match_oracle(case, where):
    top, cut = case[3], case[4]
    beta = cut if where.startswith("cut") else top
    alpha = 0.4 if where.endswith("alpha") else 0.0
    spec = _hand_built(case, PriceInterval(alpha, beta))
    _assert_matches_oracle(spec, seed=len(case[0]) + len(where))


@pytest.mark.parametrize("exponent", [0.5, 0.9, 1.0])
def test_rise_from_zero_is_infinite_without_division_error(exponent):
    spec = PayoffSpec((Segment(0.0, 4.0, PowerForm(1.0, exponent)),
                       Segment(4.0, INF, ConstantForm(4.0**exponent))), (), PriceInterval(0.0, 4.0))
    with numeric_route_forbidden():
        profile = ReplicationProfile(spec)
        assert profile.g(0.0) == profile.g_alpha == INF
        assert profile.g_inverse_value(1e300) == 0.0
    oracle = NumericProfile(spec)
    assert oracle.g_alpha == INF
    assert profile.g(0.5) == pytest.approx(oracle.g(0.5), rel=1e-9)


def test_power_exponent_one_has_the_capped_calls_bits():
    rng = random.Random(29)
    for _ in range(20):
        p0 = rng.uniform(0.1, 3.0)
        p1 = p0 * rng.uniform(1.1, 10.0)
        call = ReplicationProfile(make_catalog_payoff(CappedCall(p0, p1)))
        power = ReplicationProfile(PayoffSpec(
            (Segment(0.0, p0, ConstantForm(0.0)), Segment(p0, p1, PowerForm(1.0, 1.0, -p0)),
             Segment(p1, INF, ConstantForm(p1 - p0))), (), PriceInterval(0.0, p1)))
        for p in [0.0, p0, p1] + [rng.uniform(0.0, 1.2 * p1) for _ in range(30)]:
            assert power.g(p) == call.g(p), p
            x = call.g(p)
            if 0.0 < x:
                assert power.g_inverse_value(x) == call.g_inverse_value(x), x


def test_hand_built_nonlinear_segment_is_exact():
    # A table-like payoff (no catalog entry) whose second segment is a power:
    # g(4) = integral of 0.5 q**-1.5 over [4, 9] = 1/2 - 1/3.
    spec = PayoffSpec(
        segments=(Segment(0.0, 1.0, ConstantForm(0.0)),
                  Segment(1.0, math.inf, PowerForm(1.0, 0.5, -1.0))),
        jumps=(), interval=PriceInterval(0.0, 9.0))
    with numeric_route_forbidden():
        profile = ReplicationProfile(spec)
        assert profile.g_closed_form is not None
        assert profile.g(4.0) == pytest.approx(1.0 / 6.0, rel=1e-9)


def _rising_table(pieces, tail):
    """Contiguous segments (lo, hi, form) from 0, then tail from the last hi,
    with the jumps their values step by."""
    segs = [Segment(lo, hi, form) for lo, hi, form in pieces]
    segs.append(Segment(segs[-1].hi, INF, tail))
    jumps = tuple((b.lo, b.form.value(b.lo) - a.form.value(b.lo))
                  for a, b in zip(segs, segs[1:]) if b.form.value(b.lo) > a.form.value(b.lo))
    return tuple(segs), jumps


# (name, segments, jumps, intervals): every cost form on its own (one g
# term), from price 0 and from above it, and all four in one table, each on
# an interval that reaches its top and on ones cut inside a rise.
COST_FORM_SPECS = [
    ("linear", *_rising_table([(0.0, 1.0, ConstantForm(0.0)), (1.0, 3.0, LinearForm(1.0, 0.0, 1.0))],
                              ConstantForm(2.0)), [(0.0, INF), (0.0, 2.0), (0.5, 1.5)]),
    ("linear_from_0", *_rising_table([(0.0, 2.0, LinearForm(0.0, 0.0, 0.75))], ConstantForm(1.5)),
     [(0.0, 2.0), (0.0, 1.25)]),
    ("power", *_rising_table([(0.0, 1.0, ConstantForm(0.0)), (1.0, 4.0, PowerForm(0.5, 2.5, -0.5))],
                             ConstantForm(15.5)), [(0.0, INF), (0.0, 2.5)]),
    ("power_from_0", *_rising_table([(0.0, 2.0, PowerForm(0.5, 2.5, 0.1))],
                                    ConstantForm(0.5 * 2.0**2.5 + 0.1)), [(0.0, 2.0), (0.0, 1.5)]),
    ("power_sqrt_from_0", *_rising_table([(0.0, 4.0, PowerForm(1.0, 0.5))], ConstantForm(2.0)),
     [(0.0, 4.0), (0.0, 2.5)]),
    ("power_1", *_rising_table([(0.0, 1.0, ConstantForm(0.0)), (1.0, 3.0, PowerForm(2.0, 1.0, -2.0))],
                               ConstantForm(4.0)), [(0.0, INF), (0.0, 2.0)]),
    ("power_tail", *_rising_table([(0.0, 1.0, ConstantForm(0.0))], PowerForm(-1.0, -1.0, 1.0)),
     [(0.0, INF), (0.0, 4.0)]),
    ("log", *_rising_table([(0.0, 1e-3, ConstantForm(0.0))], LogForm(1e-3)),
     [(0.0, INF), (0.0, 5.0), (0.2, 50.0)]),
    ("normal_cdf", (Segment(0.0, INF, NormalCdfForm(1.0, 0.3, 1.0)),), (),
     [(0.0, INF), (0.0, 2.0), (0.4, 0.9)]),
    ("normal_cdf_narrow", (Segment(0.0, INF, NormalCdfForm(2.0, 0.01, 0.5)),), (),
     [(0.0, INF), (0.0, 2.0)]),
    ("table", *_rising_table([(0.0, 2.0, NormalCdfForm(1.0, 0.3, 1.0)),
                              (2.0, 4.0, LogForm(0.5)),
                              (4.0, 8.0, LinearForm(4.0, 2.2, 0.3)),
                              (8.0, 16.0, PowerForm(1.0, 0.5, 1.0))], ConstantForm(5.5)),
     [(0.0, INF), (0.0, 6.0), (0.4, 10.0), (0.0, 2.0)]),
    ("table_from_0", *_rising_table([(0.0, 1.0, LinearForm(0.0, 0.0, 0.5)),
                                     (1.0, 3.0, PowerForm(0.25, 0.5, 0.5)),
                                     (3.0, 9.0, LogForm(1.0))], ConstantForm(3.0)),
     [(0.0, INF), (0.0, 5.0)]),
    ("jump", *_rising_table([(0.0, 1.5, ConstantForm(0.0))], ConstantForm(1.0)),
     [(0.0, INF), (0.0, 1.0)]),
]

# sha256 of every g and g_inverse value below, little-endian doubles.
COST_FORM_BITS = "0ed97dfa9816f8e62c2039b5bf573b7f6670da8f7d2f9b3b54b10a759421283b"


def test_cost_forms_keep_their_bits():
    digest, values = hashlib.sha256(), 0
    grid = [10.0 ** (k / 40.0) for k in range(-200, 121)]
    for name, segments, jumps, intervals in COST_FORM_SPECS:
        for alpha, beta in intervals:
            with numeric_route_forbidden():
                profile = ReplicationProfile(PayoffSpec(segments, jumps, PriceInterval(alpha, beta)))
            prices = [0.0, alpha, beta, *(s.lo for s in segments), *grid]
            gs = [profile.g(p) for p in prices]
            reserves = [x for x in gs if 0.0 < x <= profile.g_alpha]
            reserves += [profile.g_alpha * t for t in (1e-9, 0.1, 0.5, 0.999) if profile.g_alpha < INF]
            out = gs + [profile.g_inverse_value(x) for x in reserves]
            digest.update(struct.pack(f"<{len(out)}d", *out))
            values += len(out)
    assert values > 10_000
    assert digest.hexdigest() == COST_FORM_BITS


# sha256 of every segment form's value, then its values list, on the prices
# above, little-endian doubles; a price whose value raises is left out of both.
FORM_VALUE_BITS = "639549abdc979f917218d4453645edc0b0b42d490d09d1e16783bbfb2bc94969"


def test_form_values_keep_their_bits():
    digest, values = hashlib.sha256(), 0
    grid = [10.0 ** (k / 40.0) for k in range(-200, 121)]
    for name, segments, jumps, intervals in COST_FORM_SPECS:
        for alpha, beta in intervals:
            prices = [0.0, alpha, beta, *(s.lo for s in segments), *grid]
            for form in (s.form for s in segments):
                kept, out = [], []
                for p in prices:
                    try:
                        out.append(form.value(p))
                    except (ValueError, ZeroDivisionError):  # log(0), 0**-e
                        continue
                    kept.append(p)
                listed = form.values(kept)
                assert [x.hex() for x in listed] == [x.hex() for x in out], (name, form)
                out += listed
                digest.update(struct.pack(f"<{len(out)}d", *out))
                values += len(out)
    assert values > 30_000
    assert digest.hexdigest() == FORM_VALUE_BITS


# The specs above whose g is one form's term: one rising segment, no jump.
ONE_TERM = [spec for spec in COST_FORM_SPECS if spec[0] not in ("table", "table_from_0", "jump")]


def _one_term_lists(rng, piece_lo, top, alpha):
    """Price lists a path can sweep: strictly inside the rising piece, and
    ones touching its low end or its top."""
    a = max(piece_lo, alpha)
    b = top if top < INF else max(a, 1.0) * 100.0
    log_a = math.log(a) if a > 0.0 else math.log(b) - 12.0
    inside = [p for p in (math.exp(rng.uniform(log_a, math.log(b))) for _ in range(80)) if a < p < b]
    lists = [inside, [a, *inside], [*inside, b], [a, b], [b, a, *inside]]
    if alpha < a:
        lists.append([alpha, *inside])
    if top < INF:
        lists.append([top])
    return lists


@pytest.mark.parametrize("case", ONE_TERM, ids=[case[0] for case in ONE_TERM])
def test_one_term_portfolios_have_gs_bits(case):
    # A list sweep gives each price g(p)'s very bits, the sign of zero
    # included, inside the one rising piece, at its ends and past them.
    name, segments, jumps, intervals = case
    rise, = [s for s in segments if s.form.direction() > 0.0]
    cut = rise.lo + 0.5 * (rise.hi - rise.lo) if rise.hi < INF else 2.0 * (rise.lo or 1.0)
    alpha = rise.lo + 0.25 * (rise.hi - rise.lo) if rise.hi < INF else 1.5 * rise.lo or 0.4
    rng = random.Random(name)
    for lo, hi in sorted({*intervals, (0.0, INF), (0.0, cut), (alpha, INF), (alpha, cut)}):
        with numeric_route_forbidden():
            profile = ReplicationProfile(PayoffSpec(segments, jumps, PriceInterval(lo, hi)))
            for prices in _one_term_lists(rng, rise.lo, min(rise.hi, hi), lo):
                want = [profile.g(p).hex() for p in prices]
                if INF.hex() in want:  # g(0) = inf below a rise like p**e, e <= 1
                    with pytest.raises(InfiniteReplicationCostError):
                        profile.portfolios(prices)
                    continue
                got = [x.hex() for x in profile.portfolios(prices)[1]]
                assert got == want, (lo, hi, prices)


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
    return make_piecewise_payoff(list(zip(prices, values)), jumps).with_bounds(alpha, beta)


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


def test_table_g_sums_without_sum_or_fsum():
    # sum() compensates rounding from Python 3.12 on and fsum rounds once,
    # so either would make the table g's bits, or its kernel's, differ from
    # the left-to-right loop between the Python versions CI runs.
    tree = ast.parse(textwrap.dedent(inspect.getsource(payoffs.piecewise_exact_forms)))
    nested = [node for node in ast.walk(tree.body[0])
              if isinstance(node, ast.FunctionDef) and node.name in ("g", "values")]
    assert {node.name for node in nested} == {"g", "values"}
    for function in nested:
        called = {getattr(node.func, "id", getattr(node.func, "attr", None))
                  for node in ast.walk(function) if isinstance(node, ast.Call)}
        assert not called & {"sum", "fsum"}, (function.name, called)


def _bench_table(rng):
    """The benchmark's kind of table: 8 points, 4 on each side of price 1,
    and 2 jumps, on the table's price range."""
    lo, hi = rng.uniform(0.1, 0.2), rng.uniform(6.0, 10.0)
    prices = ([lo] + sorted(_log_uniform(rng, lo, 1.0) for _ in range(3))
              + sorted(_log_uniform(rng, 1.0, hi) for _ in range(3)) + [hi])
    jumps = {rng.randrange(1, 4): rng.uniform(0.05, 0.3),
             rng.randrange(4, 7): rng.uniform(0.05, 0.3)}
    values = [rng.uniform(0.0, 0.2)]
    for i in range(7):
        values.append(values[-1] + jumps.get(i, 0.0) + rng.uniform(0.02, 0.5))
    return make_piecewise_payoff(list(zip(prices, values)),
                                 [(prices[i], size) for i, size in sorted(jumps.items())])


def _bench_table_cuts(rng, spec):
    """The table uncut, from 0 to inf, with alpha inside its first piece,
    and with beta cut inside a piece and at each jump (a jump at beta adds
    nothing to g)."""
    bps, (q1, _), (q2, _) = spec.breakpoints, *spec.jumps
    alpha, beta = spec.interval.alpha, spec.interval.beta
    k = rng.randrange(1, len(bps) - 1)  # above the first piece, where alpha is cut
    inside = rng.uniform(bps[k], bps[k + 1])
    cut_alpha = rng.uniform(alpha, bps[1])
    intervals = [(alpha, beta), (0.0, INF), (cut_alpha, beta), (alpha, inside),
                 (cut_alpha, inside), (alpha, q1), (alpha, q2)]
    return [spec.with_bounds(lo, hi) for lo, hi in intervals]


def test_table_portfolios_have_gs_bits():
    # A list sweep on a table gives each price g(p)'s very bits: at every
    # breakpoint, jump location, piece top and interval end, and at seeded
    # prices, in sorted, shuffled and path-like orders.
    rng = random.Random(1717)
    for _ in range(40):
        table = _bench_table(rng)
        for spec in _bench_table_cuts(rng, table):
            with numeric_route_forbidden():
                profile = ReplicationProfile(spec)
                alpha, beta = spec.interval.alpha, spec.interval.beta
                top = beta if beta < INF else 2.0 * spec.breakpoints[-1]
                special = {alpha, beta, *spec.breakpoints, *(q for q, _ in spec.jumps),
                           *(min(s.hi, beta) for s in spec.segments)}
                drawn = [rng.uniform(alpha, top) for _ in range(40)]
                prices = sorted(p for p in special | set(drawn) if alpha <= p <= beta)
                shuffled = rng.sample(prices, len(prices))
                walk = [1.0]
                for _ in range(60):
                    walk.append(walk[-1] * math.exp(0.2 * rng.gauss(0.0, 1.0)))
                walk = [min(max(p, alpha), beta) for p in walk]
                for ordered in (prices, shuffled, walk, drawn[:1]):
                    want = [profile.g(p).hex() for p in ordered]
                    got = [x.hex() for x in profile.portfolios(ordered)[1]]
                    assert got == want, (spec, ordered)


# ---------------------------------------------------------------------------
# The catalog g, g_inverse and psi: the per-family formulas
# ---------------------------------------------------------------------------

def _family_forms(params):
    """The reference: each family's own g and g_inverse on its natural
    interval, as they were written before the segment forms' costs."""
    if isinstance(params, CashOrNothing):
        p0 = params.p0
        return (lambda p: 1.0 / p0 if p <= p0 else 0.0), (lambda x: p0)
    if isinstance(params, CappedCall) or isinstance(params, CappedPower) and params.a == 1.0:
        p0, p1 = params.p0, params.p1
        g_max = math.log(p1 / p0) if p0 > 0.0 else math.inf
        return ((lambda p: g_max if p <= p0 else math.log(p1 / p) if p <= p1 else 0.0),
                (lambda x: p1 * math.exp(-x)))
    if isinstance(params, BlackScholesBinary):
        form = NormalCdfForm(params.strike, params.sigma, params.tau)
        k, d, vol = params.strike, form.d, form._vol

        def g_inverse(x):  # below 1/2, 1 - k x cancels: -norm_inv(k x) there
            z = -norm_inv(k * x) if k * x < 0.5 else norm_inv(1.0 - k * x)
            return k * math.exp(vol * z - 0.5 * vol * vol)

        return (lambda p: norm_cdf(-(d(p) + vol)) / k), g_inverse
    if isinstance(params, Logarithmic):
        p0 = params.p0
        return (lambda p: 1.0 / p0 if p < p0 else 1.0 / p), (lambda x: 1.0 / x)
    if isinstance(params, CappedPower):
        p0, p1, a = params.p0, params.p1, params.a
        coef, p1_pow = a / (a - 1.0), p1 ** (a - 1.0)

        def g(p):
            p = max(p, p0)
            if p >= p1:
                return 0.0
            if p == 0.0 and a < 1.0:
                return math.inf
            return coef * (p1_pow - p ** (a - 1.0))

        def g_inverse(x):
            base = p1_pow + (1.0 - a) / a * x
            if a < 1.0:
                return math.inf if base <= 0.0 else base ** (1.0 / (a - 1.0))
            return max(base, 0.0) ** (1.0 / (a - 1.0))

        return g, g_inverse
    w, c = params.w, params.c
    coef = c * w / (1.0 - w)

    def g_inverse(x):
        try:
            return ((1.0 - w) * x / (w * c)) ** (-1.0 / (1.0 - w))
        except (ZeroDivisionError, OverflowError):
            return math.inf

    return (lambda p: math.inf if p == 0.0 else coef * p ** (w - 1.0)), g_inverse


def family_psi(params):
    """The reference: each family's own trading function psi(r1, r2), as the
    package evaluated it before psi had one route.  It holds where the payoff
    rises and the interval reaches the price where it stops (see
    test_payoffs.py's psi_specs)."""
    if isinstance(params, CashOrNothing) or isinstance(params, BlackScholesBinary) and params.is_step():
        k = params.p0 if isinstance(params, CashOrNothing) else params.strike
        return lambda r1, r2: r1 + k * r2 - 1.0
    if isinstance(params, CappedCall) or isinstance(params, CappedPower) and params.a == 1.0:
        p0, p1 = params.p0, params.p1
        return lambda r1, r2: r1 + p0 - p1 * math.exp(-r2)
    if isinstance(params, BlackScholesBinary):  # 1 - k r2 cancels as k r2 falls
        k, vol = params.strike, params.sigma * math.sqrt(params.tau)
        return lambda r1, r2: r1 - norm_cdf(norm_inv(1.0 - k * r2) - vol)
    if isinstance(params, Logarithmic):
        return lambda r1, r2: r1 + math.log(params.p0 * r2)
    if isinstance(params, CappedPower):
        p0, a = params.p0, params.a
        p1_pow = params.p1 ** (a - 1.0)  # 0 from p1 = inf for a < 1
        return lambda r1, r2: r1 + p0**a - max(p1_pow + (1.0 - a) / a * r2, 0.0) ** (a / (a - 1.0))
    w, c = params.w, params.c
    return lambda r1, r2: r1 - c * ((1.0 - w) * r2 / (w * c)) ** (-w / (1.0 - w))


def construction(profile, r1, r2):
    """The paper's psi for r2 > 0: r1 + p* r2 - V(p*) at p* = g_inverse(r2)."""
    p = profile.g_inverse_value(r2)
    return r1 + (0.0 if p == 0.0 else p * r2) - profile.portfolio_value(p)


def assert_psi_is_the_construction(profile, formula, r1, r2) -> float:
    """psi's bits are the construction's, within 1e-13 of the family's formula
    on the scale max(1, |r1|, p* r2); returns that scaled difference."""
    psi = trading_function_eval(TradingFunction(profile), r1, r2)
    assert psi == construction(profile, r1, r2), (profile.payoff, r1, r2)
    scale = max(1.0, abs(r1), profile.g_inverse_value(r2) * r2)
    diff = abs(psi - formula(r1, r2)) / scale
    assert diff <= 1e-13, (profile.payoff, r1, r2, psi, formula(r1, r2))
    return diff


def test_every_family_psi_is_the_construction():
    rng = random.Random(505)
    worst, draws = {}, 0
    for _ in range(40):
        for params in _seeded_families(rng):
            profile = ReplicationProfile(make_catalog_payoff(params))
            formula = family_psi(params)
            bps = profile.payoff.breakpoints
            beta = profile.interval.beta
            hi = beta if math.isfinite(beta) else max(bps + (1.0,)) * 100.0
            prices = [_log_uniform(rng, 1e-3, hi) for _ in range(30)]
            top = profile.g_alpha if math.isfinite(profile.g_alpha) else 50.0
            reserves = [profile.g(p) for p in prices] + [rng.uniform(0.0, top) for _ in range(30)]
            for r2 in reserves:
                if 0.0 < r2 <= profile.g_alpha:
                    r1 = rng.uniform(0.0, 3.0)
                    diff = assert_psi_is_the_construction(profile, formula, r1, r2)
                    name = type(params).__name__
                    worst[name] = max(worst.get(name, 0.0), diff)
                    draws += 1
    print(f"{draws} draws; worst scaled psi - formula:",
          {name: f"{diff:.2g}" for name, diff in sorted(worst.items())})
    assert draws > 15_000 and len(worst) == 6


@pytest.mark.parametrize("c", [1.0, 0.3, 7.0])
def test_constant_proportion_half_is_the_constant_product(c):
    # The paper's worked example: at w = 1/2 the zero level set of psi is
    # r1 r2 = k**2, k the constant-product level, and psi is r1 - k**2 / r2.
    params = ConstantProportion(0.5, c)
    profile = ReplicationProfile(make_catalog_payoff(params))
    k = constant_product_level(params)
    for r2 in (1e-3, 0.1, 0.5, 1.0, 3.0, 40.0):
        assert_psi_is_the_construction(profile, family_psi(params), 1.0, r2)
        r1 = -trading_function_eval(TradingFunction(profile), 0.0, r2)  # psi(r1, r2) = 0
        assert r1 * r2 == pytest.approx(k * k, rel=1e-13), r2


def test_binary_psi_in_the_price_tail():
    # At sigma = 50 every g is about 1e-137, so 1 - K r2 is 1: psi at
    # (f(p) + 0.3, g(p)) was -0.7 where the infimum is 0.3.
    profile = ReplicationProfile(make_catalog_payoff(BlackScholesBinary(1.0, 50.0, 1.0)))
    tf = TradingFunction(profile)
    for p in (1e-3, 0.136, 1.0, 5.0, 100.0):
        assert trading_function_eval(tf, profile.payoff.value(p) + 0.3, profile.g(p)) == 0.3, p


def test_normal_cdf_inverse_keeps_its_digits_in_the_price_tail():
    # Where the survival mass s = K y + survival(top) is tiny, 1 - s cancels:
    # g_inverse(g(p)) was 10.000000011 at p = 10, 19.994 at 20, 24.63 at 25
    # and inf at 40.
    profile = ReplicationProfile(make_catalog_payoff(BlackScholesBinary(1.0, 0.4, 1.0)))
    for p in (10.0, 20.0, 25.0, 40.0):
        assert profile.g_inverse_value(profile.g(p)) == pytest.approx(p, rel=1e-12), p


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _seeded_families(rng):
    p0 = _log_uniform(rng, 0.1, 10.0)
    return [
        CashOrNothing(_log_uniform(rng, 0.1, 10.0)),
        CappedCall(p0, p0 * _log_uniform(rng, 1.01, 20.0)),
        BlackScholesBinary(_log_uniform(rng, 0.1, 10.0), rng.uniform(0.05, 1.5),
                           rng.uniform(0.1, 3.0)),
        Logarithmic(_log_uniform(rng, 1e-6, 10.0)),
        CappedPower(p0, p0 * _log_uniform(rng, 1.01, 20.0), rng.uniform(0.3, 2.0)),
        CappedPower(0.0, _log_uniform(rng, 0.1, 10.0), rng.uniform(0.3, 2.0)),
        CappedPower(p0, p0 * _log_uniform(rng, 1.01, 20.0), 1.0),
        CappedPower(0.0, math.inf, rng.uniform(0.3, 0.95)),
        ConstantProportion(rng.uniform(0.05, 0.95), _log_uniform(rng, 0.1, 10.0)),
    ]


def test_catalog_route_has_the_family_formulas_bits():
    rng = random.Random(404)
    power_inverse = {"draws": 0, "differ": 0, "worst": 0.0}
    for _ in range(40):
        for params in _seeded_families(rng):
            profile = ReplicationProfile(make_catalog_payoff(params))
            g, g_inverse = _family_forms(params)
            alpha, beta = profile.interval.alpha, profile.interval.beta
            bps = profile.payoff.breakpoints
            hi = beta if math.isfinite(beta) else max(bps + (1.0,)) * 100.0
            prices = [0.0, beta, *bps] + [_log_uniform(rng, 1e-3, hi) for _ in range(20)]
            for p in prices:
                assert profile.g(p) == g(p), (params, p)
            top = profile.g_alpha if math.isfinite(profile.g_alpha) else 50.0
            reserves = [profile.g(p) for p in prices] + [rng.uniform(0.0, top) for _ in range(20)]
            for x in reserves:
                if not 0.0 < x <= profile.g_alpha:
                    continue
                new, old = profile.g_inverse_value(x), min(max(g_inverse(x), alpha), beta)
                if isinstance(params, ConstantProportion):
                    # One power inverse serves both power families, in
                    # capped_power's operation order: the base differs in
                    # its last bit, which the exponent 1/(1 - w) scales.
                    power_inverse["draws"] += 1
                    if new != old:
                        power_inverse["differ"] += 1
                        rel = abs(new - old) / old
                        power_inverse["worst"] = max(power_inverse["worst"], rel)
                        assert rel <= 3 * 2.0**-52 / (1.0 - params.w), (params, x)
                elif new != old:
                    # At g(alpha) the formula can land an ulp below the
                    # low end p0 of the rising segment; the route answers
                    # p0 itself, the rightmost price with g >= g(alpha).
                    assert x == profile.g_alpha and new == params.p0, (params, x)
                    assert old == pytest.approx(params.p0, rel=4 * 2.0**-52)
    print("constant_proportion g_inverse: {differ} of {draws} draws differ, "
          "worst relative difference {worst:.2g}".format(**power_inverse))
    assert 0 < power_inverse["differ"] < power_inverse["draws"]
