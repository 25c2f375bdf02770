"""The audit path's oracles keep their bits.

trading_function_infimum is the oracle `verify` and `trading-function
--check-infimum` hold psi against, and portfolio_value_integral the one
they hold V against.  The digests below hash float.hex of each over a
seeded batch of calls: every catalog family on its natural interval and on
a cut one, an 8-point table with two jumps and its NumericProfile, three
seeded batches of reserves, the reserve edges r2 = 0, r2 = g(alpha) and
signed zeros, and a capped call cut below its cap, whose payoff is flat
below p0.
A call that raises contributes its error's name.
"""

import hashlib
import math
import random

import pytest

from cfmmrep import (
    BlackScholesBinary,
    CappedCall,
    CappedPower,
    CashOrNothing,
    ConstantProportion,
    DomainError,
    InfiniteReplicationCostError,
    InvalidParameterError,
    Logarithmic,
    NumericalError,
    NumericProfile,
    PriceInterval,
    QuadratureOptions,
    ReplicationProfile,
    TradingFunction,
    arbitrage_to_price,
    make_catalog_payoff,
    make_piecewise_payoff,
    pool_init,
    portfolio_value_integral,
    trading_function_eval,
    trading_function_infimum,
)
from cfmmrep import replication
from cfmmrep.checks import sample_price_range
from cfmmrep.errors import CfmmRepError
from cfmmrep.quadrature import QuadratureResult, adaptive_simpson

FAMILIES = [CashOrNothing(2.0), CappedCall(1.0, math.e), BlackScholesBinary(1.0, 0.2, 1.0),
            Logarithmic(1.0), CappedPower(1.0, 4.0, 2.0), ConstantProportion(0.5, 1.0)]
CUT = PriceInterval(0.2, 1.8)  # below every family's cap

# Shaped like the benchmark's tables: 8 points, 4 on each side of price 1,
# and two jumps.
TABLE = ([(0.15, 0.09), (0.62, 0.23), (0.69, 0.72), (0.9, 1.02), (1.07, 1.05),
          (2.8, 1.25), (7.5, 1.4), (9.0, 1.86)], [(0.62, 0.21), (1.07, 0.08)])

# The capped call cut below its cap, as the truncated audit runs it.
FLAT = make_catalog_payoff(CappedCall(1.0, 4.0)).with_bounds(0.0, 2.0)


def _profiles():
    """(label, fresh-profile builder, price range to draw from)."""
    cases = []
    for params in FAMILIES:
        for interval in (None, CUT):
            def make(params=params, interval=interval):
                spec = make_catalog_payoff(params)
                return ReplicationProfile(spec if interval is None
                                          else spec.with_bounds(interval.alpha, interval.beta))
            cases.append((f"{params!r} on {interval}", make, sample_price_range(make())))
    table = make_piecewise_payoff(*TABLE)
    cases.append(("table", lambda: ReplicationProfile(table), (0.15, 9.0)))
    cases.append(("numeric table", lambda: NumericProfile(table), (0.15, 9.0)))
    cases.append(("flat capped call", lambda: ReplicationProfile(FLAT), (0.02, 1.0)))
    return cases


def _outcome(call) -> str:
    try:
        return call().hex()
    except CfmmRepError as err:
        return type(err).__name__


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _reserves(rng, profile, lo, hi, prices):
    """Reserves near the curve at seeded prices, then the reserve edges."""
    f, g = profile.payoff.value, profile.g
    pairs = []
    for _ in range(prices):
        p = _log_uniform(rng, lo, hi)
        pairs += [(f(p), g(p)), (f(p) + rng.uniform(0.0, 1.0), g(p))]
    pairs += [(1.0, 0.0), (0.0, 0.0), (-0.0, -0.0), (rng.uniform(0.0, 1.0), profile.g_alpha)]
    return pairs


# sha256 of the lines "label|batch|r1 hex|r2 hex|outcome".
INFIMUM_BITS = "d83c09aba196d0b83195df54b3226363d8fec38a40f332b8e642901cc2db249b"


def test_infimum_keeps_its_bits():
    digest, calls = hashlib.sha256(), 0
    for label, make, (lo, hi) in _profiles():
        profile = make()
        tf = TradingFunction(profile)
        rng = random.Random(label)
        numeric = isinstance(profile, NumericProfile)
        for batch in range(3):
            for r1, r2 in _reserves(rng, profile, lo, hi, 1 if numeric else 3):
                got = _outcome(lambda: trading_function_infimum(tf, r1, r2))
                digest.update(f"{label}|{batch}|{r1.hex()}|{r2.hex()}|{got}\n".encode())
                calls += 1
    assert calls > 400
    assert digest.hexdigest() == INFIMUM_BITS


@pytest.mark.parametrize("spec", [make_catalog_payoff(CashOrNothing(2.0)),
                                  make_piecewise_payoff(*TABLE)], ids=["cash", "table"])
def test_infimum_at_a_jump_is_psi_to_within_rounding(spec):
    # g drops at a payoff jump, so every r2 in the drop has its minimum on
    # the jump's price: the bisection closes on it to a few ulps of psi.
    # The rows are trading-function's at --grid 20 (r1 = 0), then seeded
    # r1 > 0 with r2 drawn inside each jump's drop.
    profile = ReplicationProfile(spec)
    tf = TradingFunction(profile)
    top = profile.g_alpha
    if math.isinf(top):
        top = profile.g(sample_price_range(profile)[0])
    rows = [(0.0, min(top * i / 19, top)) for i in range(20)]
    rng = random.Random(43)
    for q, _ in spec.jumps:
        low, high = profile.g(math.nextafter(q, math.inf)), profile.g(q)
        assert low < high
        rows += [(rng.uniform(0.0, 2.0), rng.uniform(low, high)) for _ in range(10)]
    for r1, r2 in rows:
        psi = trading_function_eval(tf, r1, r2)
        u = 2.0 ** -52 * max(1.0, abs(psi))
        oracle = trading_function_infimum(tf, r1, r2)
        assert psi - 4 * u <= oracle <= psi + 4 * u, (r1, r2, psi, oracle)


# sha256 of the lines "label|p hex|outcome".
INTEGRAL_BITS = "d976b0fc1137273080b603ec61b3a120b4d4e0a633929d49fa5c6491adb21d60"


def test_integral_keeps_its_bits_on_repeated_calls():
    # One profile answers many prices, some of them twice and some on a
    # breakpoint; each answer equals a fresh profile's.
    digest, calls = hashlib.sha256(), 0
    for label, make, (lo, hi) in _profiles():
        if label == "numeric table":  # quadrature over a quadrature g: seconds a call
            continue
        shared = make()
        rng = random.Random(label)
        inside = [b for b in shared.payoff.breakpoints if shared.interval.contains(b)]
        prices = [_log_uniform(rng, lo, hi) for _ in range(6)] + inside[:2]
        prices += prices[:4]
        rng.shuffle(prices)
        for p in prices:
            got = _outcome(lambda: portfolio_value_integral(shared, p))
            assert got == _outcome(lambda: portfolio_value_integral(make(), p)), (label, p)
            digest.update(f"{label}|{p.hex()}|{got}\n".encode())
            calls += 1
    assert calls > 100
    assert digest.hexdigest() == INTEGRAL_BITS


# ---------------------------------------------------------------------------
# The integral check's memo of whole cells
# ---------------------------------------------------------------------------

def test_integral_memo_holds_one_cell_per_segment():
    profile = ReplicationProfile(make_piecewise_payoff(*TABLE))
    rng = random.Random(41)
    prices = [_log_uniform(rng, 0.15, 9.0) for _ in range(1000)]
    assert len(set(prices)) == 1000
    for k, p in enumerate(prices):
        got = portfolio_value_integral(profile, p)
        if k % 50 == 0:
            fresh = ReplicationProfile(profile.payoff)
            assert got.hex() == portfolio_value_integral(fresh, p).hex()
    assert 0 < len(profile._cells) <= len(profile.payoff.segments) + 1


def test_a_cell_that_falls_short_raises_on_every_call(monkeypatch):
    profile = ReplicationProfile(make_piecewise_payoff(*TABLE))
    shallow = QuadratureOptions(max_depth=1)
    monkeypatch.setattr(replication, "adaptive_simpson",
                        lambda f, a, b: adaptive_simpson(f, a, b, shallow))
    for _ in range(3):  # the memo keeps the result, and checks it on each use
        with pytest.raises(NumericalError, match="did not converge"):
            portfolio_value_integral(profile, 5.0)
    kept = profile._cells.values()
    assert kept and not all(r.converged for r in kept)


def test_a_list_call_agrees_with_float_calls():
    # One sweep over 20 sorted prices: its first value is the float call's,
    # bit for bit, every value agrees with the float call at its price, and
    # the memo still holds at most one cell per segment.
    for label, make, (lo, hi) in _profiles():
        if label == "numeric table":  # quadrature over a quadrature g: seconds a call
            continue
        rng = random.Random(label)
        prices = sorted(_log_uniform(rng, lo, hi) for _ in range(20))
        profile, single = make(), make()
        swept = portfolio_value_integral(profile, prices)
        assert len(profile._cells) <= len(profile.payoff.segments) + 1, label
        assert swept[0].hex() == portfolio_value_integral(single, prices[0]).hex(), label
        for p, v in zip(prices, swept):
            want = portfolio_value_integral(single, p)
            assert abs(v - want) <= 1e-9 * max(1.0, abs(want)), (label, p)


def test_a_list_call_checks_its_prices():
    profile = ReplicationProfile(make_piecewise_payoff(*TABLE))  # on [0.15, 9]
    assert portfolio_value_integral(profile, []) == []
    swept = portfolio_value_integral(profile, (1.0, 1.0, 2.0))  # any sequence; ties allowed
    assert swept[:2] == [portfolio_value_integral(profile, 1.0)] * 2
    assert swept[2] == pytest.approx(portfolio_value_integral(profile, 2.0), rel=1e-12)
    for prices in ([2.0, 1.0], [1.0, math.nan], [math.nan], [math.nan, 1.0]):
        with pytest.raises(InvalidParameterError, match="ascending and not NaN"):
            portfolio_value_integral(profile, prices)
    for prices in ([0.1, 1.0], [1.0, 10.0]):
        with pytest.raises(DomainError, match="outside replication interval"):
            portfolio_value_integral(profile, prices)
    unbounded = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
    with pytest.raises(DomainError, match="finite price"):
        portfolio_value_integral(unbounded, [1.0, math.inf])


def test_a_list_call_names_the_first_price_a_short_cell_holds_up(monkeypatch):
    profile = ReplicationProfile(make_piecewise_payoff(*TABLE))
    real = replication.adaptive_simpson
    monkeypatch.setattr(replication, "adaptive_simpson", lambda f, a, b: (
        QuadratureResult(0.0, 1.0, False) if a >= 2.8 else real(f, a, b)))
    with pytest.raises(NumericalError, match=r"up to price 3\.0 did not converge"):
        portfolio_value_integral(profile, [0.5, 2.5, 3.0, 8.0])


# ---------------------------------------------------------------------------
# The one-price pool mint
# ---------------------------------------------------------------------------

def _holdings(call):
    """(r1 hex, r2 hex) of a mint, or its error's name and message."""
    try:
        r1, r2 = call()
        return r1.hex(), r2.hex()
    except CfmmRepError as err:
        return type(err).__name__, str(err)


def _held(pool):
    return pool.r1, pool.r2


def _mint_prices(profile, rng):
    """The interval's ends and their outer neighbours, every breakpoint and
    jump location, signed zeros, NaN, a negative price and seeded prices."""
    alpha, beta = profile.interval.alpha, profile.interval.beta
    lo, hi = sample_price_range(profile)
    return ([alpha, beta, math.nextafter(alpha, -1.0), math.nextafter(beta, math.inf),
             0.0, -0.0, math.nan, -1.0, math.inf, *profile.payoff.breakpoints,
             *(q for q, _ in profile.payoff.jumps)]
            + [_log_uniform(rng, lo, hi) for _ in range(40)])


def test_mints_hold_the_list_methods_bits_and_errors():
    # pool_init and arbitrage_to_price mint (f(p), g(p)) as portfolios((p,))
    # does, bit for bit, and raise what it raises, with its message.
    cases = [(f"{p!r} on {i}", make_catalog_payoff(p) if i is None
              else make_catalog_payoff(p).with_bounds(i.alpha, i.beta))
             for p in FAMILIES for i in (None, CUT)]
    cases.append(("table", make_piecewise_payoff(*TABLE)))
    minted = raised = 0
    for label, payoff in cases:
        profile = ReplicationProfile(payoff)
        rng = random.Random(label)
        start = pool_init(profile, sample_price_range(profile)[0])
        for p in _mint_prices(profile, rng):
            want = _holdings(lambda: tuple(r[0] for r in profile.portfolios((p,))))
            assert _holdings(lambda: _held(pool_init(profile, p))) == want, (label, p)
            assert _holdings(lambda: _held(arbitrage_to_price(start, p)[0])) == want, (label, p)
            if want[0].endswith("Error"):
                raised += 1
            else:
                minted += 1
                assert pool_init(profile, p).price is p
    assert minted > 500 and raised > 50, (minted, raised)


def test_mints_raise_the_cost_errors():
    # An infinite g at price 0 is a cost no pool can hold; above 0 it is
    # overflow past the float range.
    proportion = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
    with pytest.raises(InfiniteReplicationCostError, match="infinite at price 0.0"):
        pool_init(proportion, 0.0)
    with pytest.raises(InfiniteReplicationCostError):
        arbitrage_to_price(pool_init(proportion, 1.0), 0.0)
    huge = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1e300))
                              .with_bounds(0.0, 1e300))
    with pytest.raises(NumericalError, match="overflows the float range"):
        pool_init(huge, 1e-20)
    with pytest.raises(NumericalError, match="overflows the float range"):
        arbitrage_to_price(pool_init(huge, 1.0), 1e-20)
