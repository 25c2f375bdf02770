"""Replication cost, portfolio value, generalized inverse, growth analysis."""

import ast
import inspect
import math
import random
from bisect import bisect_left
from pathlib import Path

import pytest
from scipy.integrate import quad

from cfmmrep import (
    BlackScholesBinary,
    CappedCall,
    CappedPower,
    CashOrNothing,
    ConstantProportion,
    DomainError,
    GrowthClass,
    InfiniteReplicationCostError,
    Logarithmic,
    NumericProfile,
    NumericalError,
    PriceInterval,
    QuadratureOptions,
    ReplicationProfile,
    TradingFunction,
    g_inverse,
    growth_classification,
    make_catalog_payoff,
    make_piecewise_payoff,
    pool_init,
    portfolio_at,
    portfolio_value,
    portfolio_value_integral,
    replication_cost,
    trading_function_infimum,
)
import cfmmrep
from cfmmrep import replication
from cfmmrep.normal import norm_cdf
from cfmmrep.oracle import quadrature_replication_cost
from cfmmrep.payoffs import ConstantForm, LinearForm, PayoffSpec, PowerForm, Segment
from cfmmrep.quadrature import adaptive_simpson

E = math.e

TIGHT = QuadratureOptions(rel_tol=1e-10, abs_tol=1e-300)


def profile_suite():
    return [
        (ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0))), 0.1, 50.0),
        (ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E))), 0.05, E),
        (ReplicationProfile(make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0))), 0.05, 20.0),
        (ReplicationProfile(make_catalog_payoff(Logarithmic(1.0))), 0.05, 100.0),
        (ReplicationProfile(make_catalog_payoff(CappedPower(1.0, 4.0, 2.0))), 0.1, 4.0),
        (ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0))), 0.02, 100.0),
    ]


class TestReplicationCost:
    def test_capped_call(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        assert replication_cost(prof, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert replication_cost(prof, E) == 0.0
        assert replication_cost(prof, 1.5) == pytest.approx(1.0 - math.log(1.5), rel=1e-12)

    def test_cash_or_nothing(self):
        prof = ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0)))
        assert replication_cost(prof, 1.0) == pytest.approx(0.5)
        # Jump at the evaluation point still counts: the rebalance is ahead.
        assert replication_cost(prof, 2.0) == pytest.approx(0.5)
        assert replication_cost(prof, 2.5) == 0.0

    def test_black_scholes(self):
        prof = ReplicationProfile(make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)))
        # g(1) = 1 - Phi(0.1), with Phi checked against the integration oracle.
        phi_01, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                         -30.0, 0.1)
        expected = 1.0 - phi_01
        assert expected == pytest.approx(0.460172, abs=5e-7)
        assert replication_cost(prof, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_quadrature_matches_closed_forms(self):
        rng = random.Random(2)
        for prof, lo, hi in profile_suite():
            oracle = NumericProfile(prof.payoff, opts=TIGHT)
            for _ in range(25):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                c = prof.g(p)
                q = oracle.g(p)
                assert q == pytest.approx(c, rel=1e-8, abs=1e-12), (
                    f"{prof.payoff.catalog} at p={p}")
            assert oracle.g(math.inf) == prof.g(math.inf) == 0.0

    def test_scipy_cross_check_smooth_families(self):
        # Independent integrator on the raw integrand for the smooth families.
        cases = [
            (make_catalog_payoff(ConstantProportion(0.5, 1.0)), (0.5, 2.0, 10.0)),
            (make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)), (0.5, 1.0, 1.8)),
            (make_catalog_payoff(Logarithmic(1.0)), (0.5, 3.0, 40.0)),
        ]
        for spec, prices in cases:
            prof = ReplicationProfile(spec)
            for p in prices:
                oracle, err = quad(lambda q: spec.slope(q) / q, p, math.inf)
                assert err < 1e-7
                assert prof.g(p) == pytest.approx(oracle, rel=1e-7), (
                    f"{spec.catalog} at p={p}")

    def test_outside_interval(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        with pytest.raises(DomainError):
            replication_cost(prof, E + 0.5)

    def test_divergent_construction_rejected(self):
        spec = make_catalog_payoff(CappedPower(1.0, math.inf, 1.0))
        with pytest.raises(InfiniteReplicationCostError):
            ReplicationProfile(spec)

    def test_nonincreasing_and_nonnegative(self):
        rng = random.Random(9)
        for prof, lo, hi in profile_suite():
            grid = sorted(math.exp(rng.uniform(math.log(lo), math.log(hi)))
                          for _ in range(100))
            values = [prof.g(p) for p in grid]
            assert all(v >= 0.0 for v in values)
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12


class TestPortfolio:
    def test_capped_call_portfolio(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        numeraire, risky = portfolio_at(prof, 1.5)
        assert numeraire == pytest.approx(0.5)
        assert risky == pytest.approx(1.0 - math.log(1.5))
        assert portfolio_at(prof, E) == (pytest.approx(E - 1.0), pytest.approx(0.0))

    def test_constant_proportion_portfolio(self):
        prof = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
        assert portfolio_at(prof, 4.0) == (pytest.approx(2.0), pytest.approx(0.5))
        assert portfolio_value(prof, 4.0) == pytest.approx(4.0)

    def test_portfolios_along_prices(self):
        prof = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
        prices = [4.0, 1.0, 0.25]
        assert prof.portfolios(prices) == ([prof.payoff.value(p) for p in prices],
                                           [prof.g(p) for p in prices])
        assert prof.portfolios([]) == ([], [])
        # g(0) is infinite here: no pool can be minted there.
        with pytest.raises(InfiniteReplicationCostError, match="infinite at price 0.0"):
            prof.portfolios([1.0, 0.0, 2.0])
        capped = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        with pytest.raises(DomainError, match="outside replication interval"):
            capped.portfolios([1.5, E + 0.5])

    def test_portfolio_at_is_the_minted_pair(self):
        # An infinite g at price 0 is a cost, as portfolios((0.0,)) says;
        # portfolio_at used to return (0.0, inf) there.
        prof = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
        with pytest.raises(InfiniteReplicationCostError, match="infinite at price 0.0"):
            portfolio_at(prof, 0.0)
        for p in (math.nan, -1.0):
            with pytest.raises(DomainError, match="outside replication interval"):
                portfolio_at(prof, p)
        for p in (1e-300, 0.25, 4.0, 1e300):
            r1, r2 = prof.portfolios((p,))
            assert portfolio_at(prof, p) == (r1[0], r2[0])

    def test_normal_cdf_where_p_over_k_underflows(self):
        # p / K is 0 in floats: log(p / K) used to raise a math domain error.
        prof = ReplicationProfile(
            make_catalog_payoff(BlackScholesBinary(1e300, 0.4, 1.0)).with_bounds(1e-30))
        assert prof.payoff.value(1e-30) == 0.0
        assert replication_cost(prof, 1e-30) == (1.0 - 0.0) / 1e300
        assert portfolio_value(prof, 1e-30) == 0.0 + 1e-30 * 1e-300
        assert portfolio_at(prof, 1e-30) == (0.0, 1e-300)
        assert prof.portfolios([1e-30, 2e-30]) == ([0.0, 0.0], [1e-300, 1e-300])

    def test_overflowing_g_is_a_numerical_error(self):
        # g(1e-20) = C / sqrt(1e-20) = 1e310 for C = 1e300: finite, but past
        # the float range.  Only g(0) is a truly infinite replication cost.
        prof = ReplicationProfile(make_catalog_payoff(
            ConstantProportion(0.5, 1e300)).with_bounds(0.0, 1e300))
        with pytest.raises(NumericalError,
                           match="at price 1e-20 overflows the float range") as info:
            prof.portfolios([1.0, 1e-20])
        assert not isinstance(info.value, InfiniteReplicationCostError)
        with pytest.raises(NumericalError, match="at price 1e-20 overflows"):
            pool_init(prof, 1e-20)
        with pytest.raises(InfiniteReplicationCostError, match="infinite at price 0.0"):
            prof.portfolios([1.0, 0.0])

    def test_linear_cost_where_top_over_p_overflows(self):
        # top / p = 1e500 is inf in floats where log(top) - log(p) is not:
        # g(1e-200) and g(alpha) used to be inf.
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1e-300, 1e300)))
        assert prof.g(1e-200) == 1151.2925464970228
        assert prof.g_alpha == math.log(1e300) - math.log(1e-300)
        assert prof.portfolios([1e-200, 1.0])[1] == [prof.g(1e-200), prof.g(1.0)]

    def test_power_cost_past_the_float_range_names_the_price(self):
        # p**e = (1e-310)**(1e-6 - 1) passes the float range: g and the list
        # kernel raised a bare OverflowError.
        prof = ReplicationProfile(make_catalog_payoff(ConstantProportion(1e-6, 1.0)))
        for call in (lambda: prof.g(1e-310), lambda: prof.portfolios((1e-310, 1.0))):
            with pytest.raises(NumericalError, match="at price 1e-310 overflows the float range"):
                call()

    @pytest.mark.parametrize("price", [-math.inf, -1.0, math.nan])
    def test_value_rejects_prices_below_zero(self, price):
        # Only +inf is the limit V(inf); -inf used to take that branch too.
        prof = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
        with pytest.raises(DomainError):
            prof.portfolio_value(price)
        with pytest.raises(DomainError):
            portfolio_value(prof, price)
        assert prof.portfolio_value(math.inf) == math.inf

    @pytest.mark.parametrize("price", [-math.inf, -1.0, math.nan])
    def test_g_rejects_prices_below_zero(self, price):
        # g read a negative price as alpha (1.0 on the log payoff) and NaN as
        # past the last piece (0.0 there, 0.325 on the table).
        table = make_piecewise_payoff([(0.5, 0.1), (1.0, 0.3), (2.0, 0.5), (4.0, 1.5)],
                                      jumps=[(1.0, 0.2), (2.0, 0.25)])
        for spec in (make_catalog_payoff(Logarithmic(1.0)), table):
            with pytest.raises(DomainError, match=f"^price must be >= 0, got {price}$"):
                ReplicationProfile(spec).g(price)

    @pytest.mark.parametrize("slope, limit", [(0.0, 1.0), (0.5, math.inf)])
    def test_value_at_infinity_of_a_linear_tail(self, slope, limit):
        spec = PayoffSpec((Segment(0.0, 1.0, ConstantForm(0.0)),
                           Segment(1.0, 2.0, LinearForm(1.0, 0.0, 1.0)),
                           Segment(2.0, math.inf, LinearForm(2.0, 1.0, slope))),
                          (), PriceInterval(0.0, math.inf if slope == 0.0 else 4.0))
        profile = ReplicationProfile(spec)
        assert spec.limit_at_infinity() == profile.portfolio_value(math.inf) == limit

    def test_value_where_risky_vanishes(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        assert portfolio_value(prof, E) == pytest.approx(E - 1.0)

    def test_integral_identity_examples(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        assert portfolio_value_integral(prof, 1.0) == pytest.approx(1.0, rel=1e-10)
        assert portfolio_value_integral(prof, E) == pytest.approx(E - 1.0, rel=1e-10)
        cp = ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))
        assert portfolio_value_integral(cp, 4.0) == pytest.approx(4.0, rel=1e-10)

    def test_integral_identity_random(self):
        rng = random.Random(4)
        for prof, lo, hi in profile_suite():
            for _ in range(15):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                direct = portfolio_value(prof, p)
                integral = portfolio_value_integral(prof, p)
                assert abs(integral - direct) <= 1e-8 * max(1.0, abs(direct)), (
                    f"{prof.payoff.catalog} at p={p}")

    def test_concavity_and_monotonicity(self):
        rng = random.Random(6)
        for prof, lo, hi in profile_suite():
            for _ in range(100):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                q = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                p, q = min(p, q), max(p, q)
                vp, vq = portfolio_value(prof, p), portfolio_value(prof, q)
                vm = portfolio_value(prof, 0.5 * (p + q))
                assert vp <= vq + 1e-10
                assert vm >= 0.5 * (vp + vq) - 1e-10


class TestPortfoliosMatchPerPrice:
    """portfolios gives f and g exactly as one call per price does, whether
    its prices lie in one payoff segment (one list kernel) or not (each
    price's segment form), on the families and on seeded tables with jumps."""

    @staticmethod
    def suite():
        table = make_piecewise_payoff([(0.5, 0.1), (1.0, 0.3), (2.0, 0.5), (4.0, 1.5)],
                                      [(1.0, 0.2), (2.0, 0.25)])
        suite = profile_suite() + [(ReplicationProfile(table), 0.5, 4.0)]
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(3, 9)
            points, jumps, p, v = [], [], rng.uniform(0.1, 0.5), rng.uniform(0.0, 0.3)
            for i in range(n):
                points.append((p, v))
                if 0 < i < n - 1 and rng.random() < 0.5:
                    jumps.append((p, rng.uniform(0.01, 0.5)))
                    v += jumps[-1][1]
                v += rng.choice((0.0, rng.uniform(0.0, 1.0)))
                p *= rng.uniform(1.2, 2.0)
            table = make_piecewise_payoff(points, jumps)
            suite.append((ReplicationProfile(table), points[0][0], points[-1][0]))
        return suite

    @staticmethod
    def price_lists(spec, lo, hi, rng):
        """Lists inside one segment, then lists that cross segments."""
        bps = [b for b in spec.breakpoints if lo <= b <= hi]
        inside = [[b] * 3 for b in bps]
        for seg in spec.segments:
            a, b = max(seg.lo, lo), min(seg.hi, hi)
            if a < b:
                # The upper edge belongs to this segment, the lower one not.
                inside.append([rng.uniform(a, b) for _ in range(10)] + [b])
        for ps in inside:
            assert len({bisect_left(spec.breakpoints, p) for p in ps}) == 1
        up = [math.nextafter(b, math.inf) for b in bps if b < hi]
        edges = [math.nextafter(b, 0.0) for b in bps if b > lo] + bps + up
        crossing = [[math.exp(rng.uniform(math.log(lo), math.log(hi))) for _ in range(30)] + edges]
        crossing += [[b, q] for b, q in zip(bps, up)]
        for ps in crossing:
            rng.shuffle(ps)
        return inside, crossing

    def test_same_floats_as_one_price_at_a_time(self):
        rng = random.Random(12)
        for prof, lo, hi in self.suite():
            spec = prof.payoff
            inside, crossing = self.price_lists(spec, lo, hi, rng)
            for ps in inside + crossing:
                assert prof.portfolios(ps) == ([spec.value(p) for p in ps],
                                               [prof.g(p) for p in ps])

    def test_nan_or_outside_price_anywhere_raises(self):
        rng = random.Random(13)
        for prof, lo, hi in self.suite():
            interval = prof.interval
            bad = [math.nan, -1.0]
            bad += [interval.beta * 2.0] if interval.bounded else []
            bad += [interval.alpha / 2.0] if interval.alpha > 0.0 else []
            inside, crossing = self.price_lists(prof.payoff, lo, hi, rng)
            for ps in (inside[-1], crossing[0]):
                for p in bad:
                    for at in (0, len(ps) // 2, len(ps)):
                        with pytest.raises(DomainError):
                            prof.portfolios(ps[:at] + [p] + ps[at:])


class TestGInverse:
    def test_capped_call_examples(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        assert g_inverse(prof, 1.0) == pytest.approx(1.0)
        assert g_inverse(prof, 0.0) == pytest.approx(E)

    def test_cash_or_nothing_examples(self):
        prof = ReplicationProfile(make_catalog_payoff(CashOrNothing(2.0)))
        assert g_inverse(prof, 0.1) == pytest.approx(2.0)
        assert g_inverse(prof, 0.0) == math.inf
        # Above the valid range the set is empty and alpha comes back.
        assert g_inverse(prof, 0.6) == 0.0

    def test_round_trip_on_continuous_families(self):
        rng = random.Random(8)
        for prof, lo, hi in profile_suite():
            if isinstance(prof.payoff.catalog, CashOrNothing):
                continue
            for _ in range(25):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                r2 = prof.g(p)
                if r2 <= 0.0:
                    continue
                assert prof.g(g_inverse(prof, r2)) == pytest.approx(r2, rel=1e-9)

    def test_numeric_matches_closed(self):
        closed = ReplicationProfile(make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)))
        numeric = NumericProfile(make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)),
                                 opts=TIGHT)
        for p in (0.8, 1.3, 3.0):
            r2 = closed.g(p)
            assert numeric.g_inverse_value(r2) == pytest.approx(
                closed.g_inverse_value(r2), rel=1e-8)
        # Where g is nearly flat, price noise amplifies; the value-level
        # round trip is the meaningful contract there.
        r2 = closed.g(0.3)
        assert closed.g(numeric.g_inverse_value(r2)) == pytest.approx(r2, rel=1e-9)

    def test_flat_region_returns_rightmost(self):
        # g is flat at 1/p0 left of p0 for the logarithmic payoff.
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        assert g_inverse(prof, 1.0) == pytest.approx(1.0)
        numeric = NumericProfile(make_catalog_payoff(Logarithmic(1.0)))
        assert numeric.g_inverse_value(1.0) == pytest.approx(1.0, rel=1e-9)

    def test_bracket_past_1e300_raises(self):
        # The closed route answers about 1e301; the doubling bracket used to
        # stop at 1e300 and return inf.
        spec = make_catalog_payoff(Logarithmic(1.0))
        assert ReplicationProfile(spec).g_inverse_value(1e-301) > 1e300
        numeric = NumericProfile(spec)
        with pytest.raises(NumericalError, match="risky reserve 1e-301"):
            numeric.g_inverse_value(1e-301)

    def test_numeric_at_g_alpha_from_a_steep_origin(self):
        # g falls from g(0) at once, so only price 0 holds g(0): the walk
        # toward 0 used to fail in quadrature near price 1e-16.
        spec = make_catalog_payoff(CappedPower(0.0, 4.0, 1.01))
        exact = ReplicationProfile(spec)
        numeric = NumericProfile(spec)
        assert numeric.g_inverse_value(numeric.g_alpha) == 0.0
        assert exact.g_inverse_value(exact.g_alpha) == 0.0

    def test_numeric_walk_that_reaches_zero_answers_zero(self):
        # Quadrature puts g at every tiny price 1e-13 below g(0), so a
        # reserve between them walks lo down to 0 on an unbounded interval.
        spec = PayoffSpec((Segment(0.0, 1.0, PowerForm(1.0, 2.5)),
                           Segment(1.0, math.inf, ConstantForm(1.0))),
                          (), PriceInterval(0.0, math.inf))
        numeric = NumericProfile(spec)
        assert numeric.g(1e-300) < numeric.g_alpha - 1e-14
        assert numeric.g_inverse_value(numeric.g_alpha - 1e-14) == 0.0

    def test_monotone_in_reserve(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        reserves = [0.0, 0.1, 0.4, 0.7, 1.0]
        prices = [g_inverse(prof, r) for r in reserves]
        for a, b in zip(prices, prices[1:]):
            assert b <= a + 1e-12

    def test_sup_bound_property(self):
        rng = random.Random(13)
        for prof, lo, hi in profile_suite():
            g_alpha = prof.g_alpha
            top = min(g_alpha, prof.g(lo)) if math.isinf(g_alpha) else g_alpha
            for _ in range(20):
                r2 = rng.uniform(0.0, top)
                p_star = g_inverse(prof, r2)
                if math.isinf(p_star):
                    continue
                assert prof.g(p_star) >= r2 - 1e-9


class TestGrowthClassification:
    def test_bounded_interval_finite(self):
        spec = make_catalog_payoff(CappedCall(1.0, E))
        assert growth_classification(spec).classification is GrowthClass.FINITE

    def test_logarithmic_finite(self):
        spec = make_catalog_payoff(Logarithmic(1.0))
        out = growth_classification(spec)
        assert out.classification is GrowthClass.FINITE
        assert out.asymptotic_exponent == 0.0

    def test_constant_proportion_finite(self):
        spec = make_catalog_payoff(ConstantProportion(0.5, 1.0))
        out = growth_classification(spec)
        assert out.classification is GrowthClass.FINITE
        assert out.asymptotic_exponent == 0.5

    @pytest.mark.parametrize("p0, cutoffs", [
        (30.0, (1e3, 1e4, 1e5, 1e6)),     # 1e2 is below 4 * p0: one cutoff added
        (1e5, (4e6, 4e7, 4e8, 4e9)),      # every fixed cutoff is: four added
    ])
    def test_cutoffs_extend_past_a_high_breakpoint(self, p0, cutoffs):
        spec = make_catalog_payoff(CashOrNothing(p0))
        out = growth_classification(spec)
        assert out.classification is GrowthClass.FINITE
        assert tuple(c for c, _ in out.evidence) == pytest.approx(cutoffs, rel=1e-12)
        # The probe sits at the jump, where g is 1/p0 whatever the cutoff.
        assert all(g == pytest.approx(1.0 / p0) for _, g in out.evidence)

    def test_linear_tail_infinite(self):
        spec = make_catalog_payoff(CappedPower(1.0, math.inf, 1.0))
        out = growth_classification(spec)
        assert out.classification is GrowthClass.INFINITE
        assert out.asymptotic_exponent == 1.0
        # Probes grow by log(10) per decade of cutoff.
        increments = [b[1] - a[1] for a, b in zip(out.evidence, out.evidence[1:])]
        for d in increments:
            assert d == pytest.approx(math.log(10.0), rel=0.05)

    def test_piecewise_probes_converge(self):
        spec = make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)]).with_bounds(1.0, math.inf)
        out = growth_classification(spec)
        assert out.classification is GrowthClass.FINITE
        cutoffs = [c for c, _ in out.evidence]
        assert cutoffs == sorted(cutoffs)

    def test_evidence_cutoffs_increasing(self):
        spec = make_catalog_payoff(Logarithmic(1.0))
        cutoffs = [c for c, _ in growth_classification(spec).evidence]
        assert all(a < b for a, b in zip(cutoffs, cutoffs[1:]))

    def test_hand_built_sqrt_tail_is_finite(self):
        # A hand-built (non-catalog) payoff with a slow power tail classifies
        # by its tail exponent, as the profile does; its probes settle too
        # slowly to decide from, but stay as evidence.
        spec = PayoffSpec(
            segments=(Segment(0.0, 1.0, PowerForm(1.0, 0.5, 0.0)),
                      Segment(1.0, math.inf, PowerForm(1.0, 0.5, 0.0))),
            jumps=(),
            interval=PriceInterval(0.0, math.inf))
        out = growth_classification(spec)
        assert out.classification is GrowthClass.FINITE
        assert out.asymptotic_exponent == 0.5
        assert len(out.evidence) == 4


class TestDegenerateCatalogConfigs:
    def test_capped_power_from_zero_superlinear(self):
        # g(p) = 2*(4 - p) on [0, 4]: finite at 0, linear inverse.
        prof = ReplicationProfile(make_catalog_payoff(CappedPower(0.0, 4.0, 2.0)))
        assert prof.g(0.0) == pytest.approx(8.0)
        oracle = NumericProfile(prof.payoff)
        assert oracle.g(0.0) == pytest.approx(8.0, rel=1e-9)
        assert g_inverse(prof, 8.0) == pytest.approx(0.0, abs=1e-12)
        for x in (2.0, 4.0, 6.0):
            assert g_inverse(prof, x) == pytest.approx(4.0 - x / 2.0)

    def test_capped_power_from_zero_sublinear(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedPower(0.0, 4.0, 0.5)))
        assert prof.g(0.0) == math.inf
        expected = (0.5 / (0.5 - 1.0)) * (4.0**-0.5 - 1.0)
        assert prof.g(1.0) == pytest.approx(expected)
        assert g_inverse(prof, prof.g(1.0)) == pytest.approx(1.0, rel=1e-9)

    def test_zero_vol_binary_is_a_step(self):
        prof = ReplicationProfile(
            make_catalog_payoff(BlackScholesBinary(2.0, 0.0, 1.0)))
        assert prof.payoff.value(2.0) == 0.0
        assert prof.payoff.value(2.0 + 1e-12) == 1.0
        assert prof.g(1.0) == pytest.approx(0.5)
        oracle = NumericProfile(prof.payoff)
        assert oracle.g(1.0) == pytest.approx(0.5)
        assert g_inverse(prof, 0.1) == pytest.approx(2.0)

    def test_zero_strike_binary_is_constant(self):
        prof = ReplicationProfile(
            make_catalog_payoff(BlackScholesBinary(0.0, 0.2, 1.0)))
        assert prof.payoff.value(5.0) == 1.0
        assert prof.g(5.0) == 0.0

    def test_flat_families(self):
        flat = ReplicationProfile(make_catalog_payoff(CappedCall(2.0, 2.0)))
        assert flat.payoff.value(1.0) == 0.0 and flat.g(1.0) == 0.0
        empty = ReplicationProfile(
            make_catalog_payoff(ConstantProportion(0.5, 0.0)))
        assert empty.g(1.0) == 0.0 and empty.v_alpha == 0.0


class TestConcurrentEvaluation:
    def test_shared_profile_across_threads(self):
        """Profiles are immutable after construction: concurrent evaluation
        must match the serial results exactly."""
        from concurrent.futures import ThreadPoolExecutor

        prof = NumericProfile(make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)))
        prices = [0.3 + 0.11 * i for i in range(40)]
        serial = [(prof.g(p), prof.portfolio_value(p)) for p in prices]

        def evaluate(p):
            return prof.g(p), prof.portfolio_value(p)

        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(evaluate, prices))
        assert threaded == serial

    def test_shared_trading_function_across_threads(self):
        """The infimum oracle memoises its grids on the TradingFunction; a
        write that races only stores the same grid again, so threads sharing
        one must match serial calls on fresh ones exactly."""
        from concurrent.futures import ThreadPoolExecutor

        rng = random.Random(41)
        for prof, lo, hi in (
                (ReplicationProfile(make_catalog_payoff(Logarithmic(1.0))), 0.05, 100.0),
                (ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E))), 0.05, E)):
            reserves = []
            for _ in range(64):
                p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
                reserves.append((prof.payoff.value(p) + rng.uniform(0.0, 1.0), prof.g(p)))
            serial = [trading_function_infimum(TradingFunction(prof), r1, r2, 256)
                      for r1, r2 in reserves]
            shared = TradingFunction(prof)

            def oracle(reserve):
                return trading_function_infimum(shared, *reserve, 256)

            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(oracle, reserves))
            assert threaded == serial


class TestIntervalHandling:
    def test_narrowed_beta_changes_g(self):
        # Cutting the interval below the cap ends g at beta; the profile
        # keeps its exact route.
        spec = make_catalog_payoff(CappedCall(1.0, 4.0)).with_bounds(0.0, 2.0)
        prof = ReplicationProfile(spec)
        assert prof.g_closed_form is not None
        assert prof.g_inverse_closed_form is not None
        assert prof.g(1.5) == pytest.approx(math.log(2.0 / 1.5), rel=1e-9)

    def test_widened_beta_keeps_closed_forms(self):
        spec = make_catalog_payoff(CappedCall(1.0, 2.0)).with_bounds(0.0, math.inf)
        prof = ReplicationProfile(spec)
        assert prof.g_closed_form is not None
        assert prof.g(3.0) == 0.0

    def test_alpha_override(self):
        spec = make_catalog_payoff(CappedCall(1.0, E)).with_bounds(1.0, E)
        prof = ReplicationProfile(spec)
        assert prof.g_alpha == pytest.approx(1.0)
        assert prof.v_alpha == pytest.approx(1.0)

    def test_interval_is_the_payoffs(self):
        spec = make_catalog_payoff(CappedCall(1.0, 4.0)).with_bounds(0.0, 2.0)
        assert ReplicationProfile(spec).interval == spec.interval
        # The payoff is the only parameter, so a stale positional interval fails loudly.
        with pytest.raises(TypeError):
            ReplicationProfile(spec, PriceInterval(0.0, 3.0))


class TestRouteSplit:
    """ReplicationProfile takes the exact route only; the numeric oracle is
    its own class, which no production module imports."""

    def test_profile_takes_only_the_payoff(self):
        assert list(inspect.signature(ReplicationProfile).parameters) == ["payoff"]

    def test_only_the_package_root_imports_the_oracle(self):
        def imports_oracle(node):
            if isinstance(node, ast.Import):
                return any(a.name == "cfmmrep.oracle" for a in node.names)
            if isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                return (module in (".oracle", "cfmmrep.oracle") or module in (".", "cfmmrep")
                        and any(a.name == "oracle" for a in node.names))
            return False

        package = Path(cfmmrep.__file__).parent
        importers = {path.name for path in package.glob("*.py")
                     if any(map(imports_oracle, ast.walk(ast.parse(path.read_text("utf-8")))))}
        assert importers == {"__init__.py"}


class TestLinearRiseFromZero:
    """f rising linearly from price 0: g(0) = inf and g ~ -log p near 0."""

    RAMP = [(0.0, 0.0), (1.0, 1.0), (2.0, 1.5)]

    def profiles(self):
        table = make_piecewise_payoff(self.RAMP)
        call = make_catalog_payoff(CappedPower(0.0, 4.0, 1.0))
        return [ReplicationProfile(table), NumericProfile(table),
                ReplicationProfile(call), NumericProfile(call)]

    def test_exact_routes_build(self):
        table, _, call, _ = self.profiles()
        assert table.g_closed_form is not None and call.g_closed_form is not None
        assert table.g_alpha == math.inf and call.g_alpha == math.inf
        assert table.v_alpha == 0.0 and call.v_alpha == 0.0
        assert table.g(0.5) == pytest.approx(math.log(2.0) + 0.5 * math.log(2.0))
        assert call.g(2.0) == pytest.approx(math.log(2.0))

    def test_integral_identity(self):
        # The integrand g ~ -log q at 0 is softened, never evaluated there.
        # The numeric profiles (quadrature inside quadrature) get one price.
        table, table_numeric, call, call_numeric = self.profiles()
        cases = [(table, p) for p in (1e-6, 0.3, 1.0, 1.7, 2.0)]
        cases += [(call, p) for p in (1e-6, 0.3, 1.0, 3.0, 4.0)]
        cases += [(table_numeric, 0.3), (call_numeric, 0.3)]
        for prof, p in cases:
            assert portfolio_value_integral(prof, p) == pytest.approx(
                portfolio_value(prof, p), rel=1e-9, abs=1e-10), (prof.payoff, p)

    def test_cost_where_one_over_p_overflows(self):
        # 1 / 1e-310 is inf in floats; log(1) - log(1e-310) is not.
        table, _, call, _ = self.profiles()
        assert table.g(1e-310) == -math.log(1e-310) + 0.5 * math.log(2.0)
        assert call.g(1e-310) == math.log(4.0) - math.log(1e-310)

    def test_cut_above_zero(self):
        # From alpha = 0.5 the zero-start segment's term from 0 is never needed.
        prof = ReplicationProfile(make_piecewise_payoff(self.RAMP).with_bounds(0.5, 2.0))
        assert prof.g_alpha == pytest.approx(math.log(2.0) + 0.5 * math.log(2.0))
        assert prof.g_inverse_value(prof.g_alpha) == pytest.approx(0.5)
        assert portfolio_value_integral(prof, 1.5) == pytest.approx(
            portfolio_value(prof, 1.5), rel=1e-9)


class TestQuadratureConvergence:
    def test_nonconverged_quadrature_raises(self, monkeypatch):
        spec = make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0))
        shallow = QuadratureOptions(max_depth=1)
        with pytest.raises(NumericalError, match="did not converge") as info:
            NumericProfile(spec, opts=shallow)
        assert info.value.error > 0.0
        with pytest.raises(NumericalError, match="g at price 1.5 did not converge"):
            quadrature_replication_cost(spec, 1.5, shallow)
        numeric = NumericProfile(spec)
        monkeypatch.setattr(replication, "adaptive_simpson",
                            lambda f, a, b: adaptive_simpson(f, a, b, shallow))
        with pytest.raises(NumericalError,
                           match="integral of g up to price 1.5 did not converge") as info:
            portfolio_value_integral(numeric, 1.5)
        assert info.value.error > 0.0

    @pytest.mark.parametrize("a", [2.001, 2.1, 2.5, 3.0, 7.0])
    def test_power_start_converges(self, a):
        # f = p**a from 0: f'(q)/q = a q**(a - 2) is bounded at 0 but has an
        # infinite slope there below a = 3.  a = 2 is covered by
        # TestDegenerateCatalogConfigs.
        prof = NumericProfile(make_catalog_payoff(CappedPower(0.0, 4.0, a)))
        assert prof.g(0.0) == pytest.approx(a / (a - 1.0) * 4.0 ** (a - 1.0), rel=1e-10)
