"""Price paths, the arbitrage driver, and the earnings decomposition."""

import math
import random
from dataclasses import replace

import pytest

from cfmmrep import (
    BlackScholesBinary,
    CappedCall,
    CappedPower,
    CashOrNothing,
    ConstantProportion,
    GbmParams,
    InvalidParameterError,
    Logarithmic,
    PricePath,
    ReplicationProfile,
    gbm_path,
    make_catalog_payoff,
    make_piecewise_payoff,
    monte_carlo_earnings,
    run_arbitrage,
)
from cfmmrep import cfmm
from cfmmrep.rng import SplitMix64

E = math.e


class TestPricePath:
    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            PricePath((), ())
        with pytest.raises(InvalidParameterError):
            PricePath((0.0, 1.0), (1.0,))
        with pytest.raises(InvalidParameterError):
            PricePath((0.5, 1.0), (1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            PricePath((0.0, 0.0), (1.0, 2.0))
        with pytest.raises(InvalidParameterError):
            PricePath((0.0, 1.0), (1.0, -2.0))


class TestGbm:
    def test_param_validation(self):
        with pytest.raises(InvalidParameterError):
            GbmParams(0.0, 0.5, 1.0, 10, 1)
        with pytest.raises(InvalidParameterError):
            GbmParams(1.0, -0.5, 1.0, 10, 1)
        with pytest.raises(InvalidParameterError):
            GbmParams(1.0, 0.5, 0.0, 10, 1)
        with pytest.raises(InvalidParameterError):
            GbmParams(1.0, 0.5, 1.0, 0, 1)

    def test_zero_vol_is_constant(self):
        path = gbm_path(GbmParams(2.0, 0.0, 1.0, 10, 3))
        assert all(p == 2.0 for p in path.prices)

    def test_deterministic_for_fixed_seed(self):
        params = GbmParams(1.0, 0.5, 1.0, 100, 42)
        assert gbm_path(params) == gbm_path(params)
        other = gbm_path(replace(params, seed=43))
        assert other != gbm_path(params)

    def test_martingale_property(self):
        """Sample mean of P_T stays within 3 standard errors of P_0."""
        n = 10_000
        terminal = []
        for i in range(n):
            path = gbm_path(GbmParams(1.0, 0.5, 1.0, 4, 1000 + i))
            terminal.append(path.prices[-1])
        mean = sum(terminal) / n
        var = sum((x - mean) ** 2 for x in terminal) / (n - 1)
        se = math.sqrt(var / n)
        assert abs(mean - 1.0) <= 3.0 * se

    def test_time_grid(self):
        path = gbm_path(GbmParams(1.0, 0.3, 2.0, 4, 9))
        assert path.times == (0.0, 0.5, 1.0, 1.5, 2.0)

    def test_splitmix_known_stream(self):
        # First outputs of SplitMix64 from seed 0 (reference values of the
        # standard algorithm).
        rng = SplitMix64(0)
        assert rng.next_uint64() == 0xE220A8397B1DCDAF
        assert rng.next_uint64() == 0x6E789E6AA1B965F4
        assert rng.next_uint64() == 0x06C45D188009454F

    def test_uniform_strictly_inside_unit_interval(self):
        rng = SplitMix64(99)
        for _ in range(10_000):
            u = rng.uniform()
            assert 0.0 < u < 1.0


class TestRunArbitrage:
    def test_constant_path_zero(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        path = PricePath((0.0, 1.0, 2.0), (1.5, 1.5, 1.5))
        report = run_arbitrage(prof, path)
        assert report.total_w == 0.0
        assert report.step_profits == (0.0, 0.0)

    def test_two_step_example(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, E)))
        path = PricePath((0.0, 1.0, 2.0), (1.5, 2.0, 1.5))
        report = run_arbitrage(prof, path)
        expected = 0.5 * (prof.g(1.5) - prof.g(2.0))
        assert expected == pytest.approx(0.143841, abs=5e-7)
        assert report.total_w == pytest.approx(expected, rel=1e-12)
        assert report.payoff_term == pytest.approx(0.0, abs=1e-15)
        assert report.path_term == pytest.approx(expected, rel=1e-12)

    def test_flat_region_is_free(self):
        # Above the cap the portfolio is static: a monotone walk earns nothing.
        prof = ReplicationProfile(
            make_catalog_payoff(CappedCall(1.0, 2.0), interval=None))
        path = PricePath((0.0, 1.0, 2.0, 3.0), (2.5, 3.0, 4.0, 8.0))
        report = run_arbitrage(prof, path)
        assert report.total_w == pytest.approx(0.0, abs=1e-15)

    def test_clamping_outside_interval(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, 2.0)))
        path = PricePath((0.0, 1.0), (1.5, 5.0))  # 5.0 clamps to beta = 2
        report = run_arbitrage(prof, path)
        direct = PricePath((0.0, 1.0), (1.5, 2.0))
        assert report.total_w == pytest.approx(run_arbitrage(prof, direct).total_w)

    def test_telescoping_identity_random_paths(self):
        rng = random.Random(19)
        suites = [
            (make_catalog_payoff(CashOrNothing(2.0)), 0.2, 20.0),
            (make_catalog_payoff(CappedCall(1.0, E)), 0.2, E),
            (make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)), 0.2, 10.0),
            (make_catalog_payoff(Logarithmic(1.0)), 0.2, 10.0),
            (make_catalog_payoff(CappedPower(1.0, 4.0, 2.0)), 0.2, 4.0),
            (make_catalog_payoff(ConstantProportion(0.5, 1.0)), 0.2, 10.0),
        ]
        for spec, lo, hi in suites:
            prof = ReplicationProfile(spec)
            for _ in range(5):
                n = rng.randint(3, 80)
                prices = tuple(math.exp(rng.uniform(math.log(lo), math.log(hi)))
                               for _ in range(n))
                path = PricePath(tuple(float(i) for i in range(n)), prices)
                report = run_arbitrage(prof, path)
                lhs = report.total_w
                rhs = report.payoff_term + report.path_term
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), f"{spec.catalog}"
                assert lhs >= -1e-9

    def test_earnings_report_fields_consistent(self):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        path = gbm_path(GbmParams(2.0, 0.4, 1.0, 50, 5))
        report = run_arbitrage(prof, path)
        assert report.total_w == pytest.approx(math.fsum(report.step_profits))
        assert len(report.step_profits) == 50


def arithmetic_suite():
    """The six families and a piecewise table with jumps, each with a start
    price inside its interval."""
    table = make_piecewise_payoff(
        [(0.5, 0.0), (1.0, 0.2), (2.0, 0.5), (3.0, 1.0), (5.0, 1.5)],
        [(1.0, 0.3), (3.0, 0.25)])
    return [
        (make_catalog_payoff(CashOrNothing(2.0)), 1.5),
        (make_catalog_payoff(CappedCall(1.0, E)), 1.5),
        (make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)), 1.0),
        (make_catalog_payoff(Logarithmic(1.0)), 1.0),
        (make_catalog_payoff(CappedPower(1.0, 4.0, 2.0)), 2.0),
        (make_catalog_payoff(ConstantProportion(0.5, 1.0)), 1.0),
        (table, 2.0),
    ]


class TestPaperArithmeticOnly:
    """Minting and arbitrage use f and g only: the pool sits on psi's zero
    level set by construction, so the loop never evaluates psi."""

    @pytest.fixture
    def psi_forbidden(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("psi evaluated in the arbitrage loop")

        monkeypatch.setattr(cfmm, "trading_function_eval", forbidden)

    @pytest.mark.parametrize("index", range(7))
    def test_loop_never_evaluates_psi(self, psi_forbidden, index):
        spec, p_start = arithmetic_suite()[index]
        prof = ReplicationProfile(spec)
        params = GbmParams(p_start, 0.5, 1.0, 30, 3)
        report = run_arbitrage(prof, gbm_path(params))
        assert len(report.step_profits) == 30
        _, _, totals = monte_carlo_earnings(prof, params, 2)
        assert len(totals) == 2

    @pytest.mark.parametrize("index", range(7))
    def test_one_g_per_price(self, monkeypatch, index):
        spec, p_start = arithmetic_suite()[index]
        prof = ReplicationProfile(spec)
        calls = []
        original = ReplicationProfile.g

        def counting(self, p):
            calls.append(p)
            return original(self, p)

        monkeypatch.setattr(ReplicationProfile, "g", counting)
        steps = 40
        run_arbitrage(prof, gbm_path(GbmParams(p_start, 0.5, 1.0, steps, 9)))
        # One g per price, plus at most the two endpoint values V(P_0), V(P_T).
        assert steps + 1 <= len(calls) <= steps + 3


class TestMonteCarlo:
    def test_reproducible(self):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        params = GbmParams(1.0, 0.4, 1.0, 50, 11)
        a = monte_carlo_earnings(prof, params, 20)
        b = monte_carlo_earnings(prof, params, 20)
        assert a == b

    def test_zero_vol_zero_earnings(self):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        mean, se, totals = monte_carlo_earnings(
            prof, GbmParams(1.0, 0.0, 1.0, 20, 11), 10)
        assert mean == 0.0 and se == 0.0 and all(w == 0.0 for w in totals)

    def test_needs_two_paths(self):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        with pytest.raises(InvalidParameterError):
            monte_carlo_earnings(prof, GbmParams(1.0, 0.4, 1.0, 10, 1), 1)

    def test_sigma_squared_scaling(self):
        """Doubling sigma roughly quadruples expected earnings."""
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1e-6)))
        lo_mean, lo_se, _ = monte_carlo_earnings(
            prof, GbmParams(1.0, 0.25, 1.0, 200, 3), 200)
        hi_mean, hi_se, _ = monte_carlo_earnings(
            prof, GbmParams(1.0, 0.5, 1.0, 200, 3), 200)
        ratio = hi_mean / lo_mean
        assert ratio == pytest.approx(4.0, rel=0.15)

    def test_refinement_convergence(self):
        """With more steps, per-path earnings approach half the realized
        quadratic variation of log price."""
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1e-6)))

        def mean_gap(steps, n=60):
            gaps = []
            for i in range(n):
                path = gbm_path(GbmParams(1.0, 0.5, 1.0, steps, 500 + i))
                w = run_arbitrage(prof, path).total_w
                qv = sum(math.log(b / a) ** 2
                         for a, b in zip(path.prices, path.prices[1:]))
                gaps.append(abs(w - 0.5 * qv))
            return sum(gaps) / n

        coarse = mean_gap(250)
        fine = mean_gap(2000)
        assert fine < coarse
