"""Trading function, infimum oracle, and the pool state machine."""

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
    InvalidReservesError,
    Logarithmic,
    NumericalError,
    PoolState,
    PriceInterval,
    ReplicationProfile,
    TradingFunction,
    UnboundedTradingFunctionError,
    arbitrage_to_price,
    constant_product_level,
    make_catalog_payoff,
    pool_init,
    spot_price,
    trading_function_eval,
    trading_function_infimum,
    validate_trade,
)
from cfmmrep.payoffs import PayoffSpec, PowerForm, Segment

E = math.e


def profile_suite():
    return [
        (ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0))), 0.1, 50.0),
        (ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E))), 0.05, E),
        (ReplicationProfile(make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0))), 0.05, 20.0),
        (ReplicationProfile(make_catalog_payoff(Logarithmic(1.0))), 0.05, 100.0),
        (ReplicationProfile(make_catalog_payoff(CappedPower(1.0, 4.0, 2.0))), 0.1, 4.0),
        (ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0))), 0.02, 100.0),
    ]


class TestTradingFunctionEval:
    def test_cash_or_nothing_linear_market_maker(self):
        tf = TradingFunction(ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0))))
        assert trading_function_eval(tf, 1.0, 0.5) == pytest.approx(1.0)
        # psi = r1 + p0*r2 - 1 at the drained end too.
        assert trading_function_eval(tf, 1.0, 0.0) == pytest.approx(0.0)

    def test_logarithmic(self):
        tf = TradingFunction(ReplicationProfile(make_catalog_payoff(Logarithmic(1.0))))
        assert trading_function_eval(tf, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_on_the_lp_curve(self):
        for prof, lo, hi in profile_suite():
            tf = TradingFunction(prof)
            p = math.sqrt(lo * hi)
            level = trading_function_eval(tf, prof.payoff.value(p), prof.g(p))
            assert level == pytest.approx(0.0, abs=1e-10), f"{prof.payoff.catalog}"

    def test_invalid_reserves(self):
        tf = TradingFunction(ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E))))
        with pytest.raises(InvalidReservesError):
            trading_function_eval(tf, -0.1, 0.5)
        with pytest.raises(InvalidReservesError):
            trading_function_eval(tf, 1.0, -0.5)
        with pytest.raises(InvalidReservesError):
            trading_function_eval(tf, 1.0, 1.5)  # above g(alpha) = log(p1/p0) = 1

    def test_nan_reserves_rejected_on_both_routes(self):
        tf = TradingFunction(ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E))))
        for r1, r2 in ((math.nan, 0.5), (1.0, math.nan)):
            with pytest.raises(InvalidReservesError):
                trading_function_eval(tf, r1, r2)
            with pytest.raises(InvalidReservesError):
                trading_function_infimum(tf, r1, r2)

    def test_unbounded_signal(self):
        # Unbounded payoff: the infimum at r2 = 0 runs to -infinity.
        for params in (Logarithmic(1.0), ConstantProportion(0.5, 1.0)):
            tf = TradingFunction(ReplicationProfile(make_catalog_payoff(params)))
            with pytest.raises(UnboundedTradingFunctionError) as via_psi:
                trading_function_eval(tf, 1.0, 0.0)
            with pytest.raises(UnboundedTradingFunctionError) as via_oracle:
                trading_function_infimum(tf, 1.0, 0.0)
            assert str(via_psi.value) == str(via_oracle.value)

    def test_overflowed_price_raises(self):
        # psi = 1 - 1/r2 for f = sqrt(p) on [0, inf), where p* = 1/r2**2.
        spec = PayoffSpec(segments=(Segment(0.0, math.inf, PowerForm(1.0, 0.5, 0.0)),),
                          jumps=(), interval=PriceInterval(0.0, math.inf))
        tf = TradingFunction(ReplicationProfile(spec))
        assert trading_function_eval(tf, 1.0, 1e-150) == -1e150
        for r2 in (1e-155, 1e-300):  # p* = 1e310 and 1e600 overflow, not psi
            with pytest.raises(NumericalError, match=f"risky reserve {r2!r} overflows"):
                trading_function_eval(tf, 1.0, r2)

    def test_bounded_payoff_fine_at_zero_reserve(self):
        # Bounded payoffs have a finite limit, so r2 = 0 is a regular point.
        tf = TradingFunction(ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0))))
        assert trading_function_eval(tf, 2.0, 0.0) == pytest.approx(1.0)
        assert trading_function_infimum(tf, 2.0, 0.0) == pytest.approx(1.0, abs=1e-9)


class TestInfimumOracle:
    def test_capped_call_example(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        tf = TradingFunction(prof)
        r2 = prof.g(1.5)
        direct = trading_function_eval(tf, 1.5, r2)
        oracle = trading_function_infimum(tf, 1.5, r2)
        assert direct == pytest.approx(1.0, rel=1e-12)
        assert abs(direct - oracle) <= 1e-6 * max(1.0, abs(direct))

    def test_cash_or_nothing_value(self):
        tf = TradingFunction(ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0))))
        assert trading_function_infimum(tf, 1.0, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_zero_at_lp_allocations(self):
        for prof, lo, hi in profile_suite():
            tf = TradingFunction(prof)
            p = math.sqrt(lo * hi)
            r1, r2 = prof.payoff.value(p), prof.g(p)
            oracle = trading_function_infimum(tf, r1, r2)
            assert abs(oracle) <= 1e-6, f"{prof.payoff.catalog}: {oracle}"

    def test_matches_eval_on_random_reserves(self):
        rng = random.Random(17)
        for prof, lo, hi in profile_suite():
            tf = TradingFunction(prof)
            for _ in range(20):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                r2 = prof.g(p)
                if r2 <= 0.0:
                    continue
                r1 = prof.payoff.value(p) + rng.uniform(0.0, 2.0)
                direct = trading_function_eval(tf, r1, r2)
                oracle = trading_function_infimum(tf, r1, r2)
                assert abs(direct - oracle) <= 1e-6 * max(1.0, abs(direct), abs(oracle)), (
                    f"{prof.payoff.catalog} at p={p}")

    def test_bracket_past_1e300_raises(self):
        # The bracket doubles up to a quarter of the largest float.  At
        # r2 = 1e-301 it closes past 1e300, where a grid cut at 1e300 gave
        # -692.49, and the oracle equals psi; at r2 = 1e-308 it cannot close.
        tf = TradingFunction(ReplicationProfile(make_catalog_payoff(Logarithmic(1.0))))
        psi = trading_function_eval(tf, 0.0, 1e-301)
        assert trading_function_infimum(tf, 0.0, 1e-301) == psi == -693.0781129912077
        assert trading_function_eval(tf, 0.0, 1e-308) == pytest.approx(-709.20, abs=0.01)
        with pytest.raises(NumericalError,
                           match=r"reached 4\.49423283715579e\+307 .* risky reserve 1e-308"):
            trading_function_infimum(tf, 0.0, 1e-308)


class TestPsiShape:
    def test_monotone_in_both_reserves(self):
        rng = random.Random(23)
        for prof, lo, hi in profile_suite():
            tf = TradingFunction(prof)
            for _ in range(50):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                r2 = prof.g(p)
                if r2 <= 0.0:
                    continue
                r1 = prof.payoff.value(p) + rng.uniform(0.0, 1.0)
                base = trading_function_eval(tf, r1, r2)
                assert trading_function_eval(tf, r1 + 0.25, r2) >= base - 1e-12
                r2_up = min(r2 * 1.2, prof.g_alpha if math.isfinite(prof.g_alpha)
                            else r2 * 1.2)
                assert trading_function_eval(tf, r1, r2_up) >= base - 1e-10

    def test_concave_along_segments(self):
        rng = random.Random(29)
        for prof, lo, hi in profile_suite():
            tf = TradingFunction(prof)
            for _ in range(50):
                pa = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                pb = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                a = (prof.payoff.value(pa) + rng.uniform(0.0, 1.0), prof.g(pa))
                b = (prof.payoff.value(pb) + rng.uniform(0.0, 1.0), prof.g(pb))
                if a[1] <= 0.0 or b[1] <= 0.0:
                    continue
                mid = (0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1]))
                va = trading_function_eval(tf, *a)
                vb = trading_function_eval(tf, *b)
                vm = trading_function_eval(tf, *mid)
                assert vm >= 0.5 * (va + vb) - 1e-10, f"{prof.payoff.catalog}"


class TestPool:
    def test_init_examples(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        pool = pool_init(prof, 1.5)
        assert pool.r1 == pytest.approx(0.5)
        assert pool.r2 == pytest.approx(1.0 - math.log(1.5))
        assert pool.invariant_level == pytest.approx(0.0, abs=1e-12)

        cp = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
        pool = pool_init(cp, 4.0)
        assert (pool.r1, pool.r2) == (pytest.approx(2.0), pytest.approx(0.5))

        capped = pool_init(prof, E)
        assert capped.r1 == pytest.approx(E - 1.0)
        assert capped.r2 == 0.0

    def test_init_outside_interval(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        with pytest.raises(DomainError):
            pool_init(prof, 3.0)

    def test_validate_trade_along_curve(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        pool = pool_init(prof, 1.5)
        d1 = prof.payoff.value(2.0) - pool.r1
        d2 = prof.g(2.0) - pool.r2
        assert validate_trade(pool, d1, d2)
        # Equality within 1e-10: both allocations sit on the zero level set.
        moved, _ = arbitrage_to_price(pool, 2.0)
        assert abs(moved.invariant_level - pool.invariant_level) <= 1e-10

    def test_validate_trade_measures_against_own_level(self):
        # Off the curve by 0.5 numeraire: psi(r1 + c, r2) = psi(r1, r2) + c.
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        pool = PoolState(TradingFunction(prof), prof.payoff.value(1.5) + 0.5,
                         prof.g(1.5), 1.5)
        assert pool.invariant_level == pytest.approx(0.5, rel=1e-12)
        assert not validate_trade(pool, -0.3, 0.0)  # 0.5 -> 0.2, though above 0
        assert validate_trade(pool, 0.1, 0.0)

    def test_validate_trade_rejects_drain(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        pool = pool_init(prof, 1.5)
        assert not validate_trade(pool, -0.01, 0.0)
        assert validate_trade(pool, +0.01, 0.0)

    def test_validate_trade_invalid_reserves(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        pool = pool_init(prof, 1.5)
        with pytest.raises(InvalidReservesError):
            validate_trade(pool, -pool.r1 - 0.1, 0.0)
        with pytest.raises(InvalidReservesError):
            validate_trade(pool, 0.0, 1.0)  # pushes r2 over g(alpha)


class TestArbitrage:
    def test_capped_call_example(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        pool = pool_init(prof, 1.5)
        new_pool, step = arbitrage_to_price(pool, 2.0)
        expected = 2.0 * math.log(2.0 / 1.5) - 0.5
        assert step.profit == pytest.approx(expected, rel=1e-12)
        assert step.from_price == 1.5 and step.to_price == 2.0
        assert new_pool.r1 == pytest.approx(1.0)
        assert new_pool.r2 == pytest.approx(math.log(E / 2.0))

    def test_no_move_no_profit(self):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        pool = pool_init(prof, 2.0)
        new_pool, step = arbitrage_to_price(pool, 2.0)
        assert step.profit == 0.0
        assert (new_pool.r1, new_pool.r2) == (pool.r1, pool.r2)

    def test_cash_or_nothing_example(self):
        prof = ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0)))
        pool = pool_init(prof, 1.0)
        _, step = arbitrage_to_price(pool, 3.0)
        assert step.profit == pytest.approx(0.5)

    def test_profit_nonnegative_random(self):
        rng = random.Random(31)
        for prof, lo, hi in profile_suite():
            for _ in range(500):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                p_ext = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                pool = pool_init(prof, p)
                _, step = arbitrage_to_price(pool, p_ext)
                assert step.profit >= -1e-10, f"{prof.payoff.catalog}"

    def test_out_of_interval_rejected(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        pool = pool_init(prof, 1.5)
        with pytest.raises(DomainError):
            arbitrage_to_price(pool, E + 1.0)


class TestSpotPrice:
    def test_round_trip(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        assert spot_price(pool_init(prof, 1.5)) == pytest.approx(1.5, abs=1e-9)

    def test_constant_proportion(self):
        prof = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
        assert spot_price(pool_init(prof, 4.0)) == pytest.approx(4.0, rel=1e-12)

    def test_cash_or_nothing_flat(self):
        prof = ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0)))
        pool = PoolState(TradingFunction(prof), 0.0, 0.3, 1.0)
        assert spot_price(pool) == pytest.approx(2.0)


class TestConstantProductRecovery:
    @pytest.mark.parametrize("w,c", [(0.5, 1.0), (0.3, 2.0), (0.7, 0.5)])
    def test_arbitraged_pools_sit_on_product_curve(self, w, c):
        params = ConstantProportion(w, c)
        prof = ReplicationProfile(make_catalog_payoff(params))
        level = constant_product_level(params)
        rng = random.Random(37)
        pool = pool_init(prof, 1.0)
        for _ in range(200):
            p = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
            pool, _ = arbitrage_to_price(pool, p)
            product = pool.r1 ** (1.0 - w) * pool.r2 ** w
            assert product == pytest.approx(level, rel=1e-9)

    def test_level_at_half(self):
        # At w = 1/2 the curve is sqrt(r1*r2) = c/... the classic product form.
        assert constant_product_level(ConstantProportion(0.5, 1.0)) == pytest.approx(1.0)
