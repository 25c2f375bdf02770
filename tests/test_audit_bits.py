"""The audit path's oracles keep their bits.

trading_function_infimum is the oracle `verify` and `trading-function
--check-infimum` hold psi against, and portfolio_value_integral the one
they hold V against.  The digests below hash float.hex of each over a
seeded batch of calls: every catalog family on its natural interval and on
a cut one, an 8-point table with two jumps and its NumericProfile, grid
sizes 64, 256 and 512, the reserve edges r2 = 0, r2 = g(alpha) and signed
zeros, and a capped call cut below its cap, whose payoff is flat below p0.
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
    InfiniteReplicationCostError,
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
    trading_function_infimum,
)
from cfmmrep import cfmm, replication
from cfmmrep.checks import sample_price_range
from cfmmrep.errors import CfmmRepError
from cfmmrep.quadrature import adaptive_simpson

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


# sha256 of the lines "label|grid points|r1 hex|r2 hex|outcome".
INFIMUM_BITS = "acbc0cf01111d634312831ef164b58393acb047bf205148adbe6d9d4d8606533"


def test_infimum_keeps_its_bits():
    digest, calls = hashlib.sha256(), 0
    for label, make, (lo, hi) in _profiles():
        profile = make()
        tf = TradingFunction(profile)
        rng = random.Random(label)
        numeric = isinstance(profile, NumericProfile)
        for n in (64, 256, 512):
            for r1, r2 in _reserves(rng, profile, lo, hi, 1 if numeric else 3):
                got = _outcome(lambda: trading_function_infimum(tf, r1, r2, n))
                digest.update(f"{label}|{n}|{r1.hex()}|{r2.hex()}|{got}\n".encode())
                calls += 1
    assert calls > 400
    assert digest.hexdigest() == INFIMUM_BITS


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
# The pruned first-minimum scan against the plain one
# ---------------------------------------------------------------------------

def _plain(r1, r2, candidates, v_grid):
    """The first minimum as a full scan finds it: (index, value)."""
    values = [r1 + (0.0 if p == 0.0 else p * r2) - v for p, v in zip(candidates, v_grid)]
    best = values.index(min(values))
    return best, values[best]


def _blocks(candidates, v_grid):
    """The (lowest price, highest V) of each 16 grid points, as the oracle stores them."""
    return [(min(candidates[i:i + 16]), max(v_grid[i:i + 16])) for i in range(0, len(v_grid), 16)]


def _same(got, want):
    assert (got[0], got[1].hex()) == (want[0], want[1].hex())


class _Reads(list):
    """A list that records its reads: each slice, and "all" for a full pass."""

    def __getitem__(self, key):
        self.read.append(key)
        return list.__getitem__(self, key)

    def __iter__(self):
        self.read.append("all")
        return list.__iter__(self)


def _scan(r1, r2, candidates, v_grid, blocks):
    """The pruned scan's answer, checked against the plain one, and its
    reads of V."""
    v_read = _Reads(v_grid)
    v_read.read = []
    got = cfmm._first_minimum(r1, r2, candidates, v_read, blocks)
    _same(got, _plain(r1, r2, candidates, v_grid))
    return got, v_read.read


def test_pruned_scan_finds_the_plain_first_minimum_on_the_oracle_grids():
    # Every grid the digest's calls build, against every reserve pair of its
    # profile: the index and the bits of the first minimum, and each block's
    # bound below every value in the block.  Most calls prune.
    scans = pruned = 0
    for label, make, (lo, hi) in _profiles():
        profile = make()
        tf = TradingFunction(profile)
        rng = random.Random(label)
        pairs, prices = [], 1 if isinstance(profile, NumericProfile) else 3
        for n in (64, 256, 512):
            for r1, r2 in _reserves(rng, profile, lo, hi, prices):
                _outcome(lambda: trading_function_infimum(tf, r1, r2, n))
                pairs.append((r1, r2))
        for candidates, v_grid, blocks in tf._grids.values():
            assert blocks == _blocks(candidates, v_grid)
            for r1, r2 in pairs:
                _, read = _scan(r1, r2, candidates, v_grid, blocks)
                scans += 1
                pruned += "all" not in read
                values = [r1 + (0.0 if p == 0.0 else p * r2) - v
                          for p, v in zip(candidates, v_grid)]
                for k, (pmin, vmax) in enumerate(blocks):
                    bound = r1 + (0.0 if pmin == 0.0 else pmin * r2) - vmax
                    assert all(bound <= x for x in values[16 * k:16 * k + 16]), (label, k)
    assert scans > 1000 and pruned > scans // 2, (scans, pruned)


def _synthetic(n=257, seed=0):
    rng = random.Random(seed)
    candidates = sorted(rng.uniform(0.0, 10.0) for _ in range(n - 1))
    return [0.0] + candidates, [rng.uniform(0.0, 5.0) for _ in range(n)]


def test_pruned_scan_keeps_the_first_of_a_tie_across_a_block_boundary():
    candidates, v_grid = _synthetic()
    for first, second in ((15, 16), (16, 47), (31, 32), (0, 256)):
        v = list(v_grid)
        v[first] = v[second] = 9.0  # r2 = 0: the highest V is the minimum
        for r1 in (0.0, -0.0, 1.5):
            got = cfmm._first_minimum(r1, 0.0, candidates, v, _blocks(candidates, v))
            assert got[0] == first
            _same(got, _plain(r1, 0.0, candidates, v))
    # Signed zeros tie: the earlier of -0.0 and +0.0 is kept, with its sign.
    v = [-1.0] * len(v_grid)
    v[15], v[16] = 0.0, -0.0
    got = cfmm._first_minimum(-0.0, -0.0, candidates, v, _blocks(candidates, v))
    assert (got[0], got[1].hex()) == (15, (-0.0).hex())
    _same(got, _plain(-0.0, -0.0, candidates, v))
    v[15], v[16] = -0.0, 0.0
    _same(cfmm._first_minimum(-0.0, -0.0, candidates, v, _blocks(candidates, v)),
          _plain(-0.0, -0.0, candidates, v))


def test_pruned_scan_with_overflowing_values():
    # p*r2 overflows to +inf on the upper part of a grid up to 1e300.
    candidates = [0.0] + [10.0 ** (300 * i / 511) for i in range(512)]
    v_grid = [math.log1p(p) for p in candidates]
    for r2 in (1e10, 1e-300, 1e308):
        assert (candidates[-1] * r2 == math.inf) == (r2 > 1e-300)
        for r1 in (0.0, 1e308):
            got = cfmm._first_minimum(r1, r2, candidates, v_grid, _blocks(candidates, v_grid))
            _same(got, _plain(r1, r2, candidates, v_grid))


def test_pruned_scan_falls_back_on_non_finite_input():
    candidates, v_grid = _synthetic(seed=3)
    blocks = _blocks(candidates, v_grid)
    # r1 or r2 not finite: the full scan, and nothing before it.
    for r1, r2, full in ((0.5, 0.5, False), (math.inf, 0.5, True), (0.5, math.inf, True),
                         (math.inf, math.inf, True)):
        assert (_scan(r1, r2, candidates, v_grid, blocks)[1] == ["all"]) == full, (r1, r2)
    # A flat objective: every block survives the cap, so the full scan
    # follows the cap's block.
    flat = [1.0] * len(v_grid)
    assert _scan(0.5, 0.0, candidates, flat, _blocks(candidates, flat)) == (
        (0, -0.5), [slice(0, 16), "all"])
    # A V that is not finite leaves the grid without blocks (see below);
    # the scan then reads every point, a NaN included.
    for bad in (math.inf, -math.inf, math.nan):
        v = list(v_grid)
        v[40] = bad
        _same(cfmm._first_minimum(0.25, 0.5, candidates, v, None),
              _plain(0.25, 0.5, candidates, v))


def test_oracle_stores_no_blocks_for_a_grid_with_a_non_finite_v(monkeypatch):
    profile = ReplicationProfile(make_piecewise_payoff(*TABLE))
    g = profile.g
    monkeypatch.setattr(profile, "g", lambda p: math.inf if 2.0 < p < 2.1 else g(p))
    tf = TradingFunction(profile)
    trading_function_infimum(tf, profile.payoff.value(1.5) + 0.25, profile.g(1.5), 512)
    (candidates, v_grid, blocks), = tf._grids.values()
    assert math.inf in v_grid and blocks is None


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
