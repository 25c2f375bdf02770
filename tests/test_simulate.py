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
    NumericalError,
    PriceInterval,
    PricePath,
    ReplicationProfile,
    arbitrage_to_price,
    gbm_path,
    make_catalog_payoff,
    make_piecewise_payoff,
    monte_carlo_earnings,
    pool_init,
    run_arbitrage,
)
from cfmmrep import cfmm
from cfmmrep.normal import norm_inv
from cfmmrep import rng as rng_module
from cfmmrep.rng import SplitMix64
from cfmmrep.simulate import earnings_mean_stderr

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

    def test_built_path_passes_the_public_checks(self):
        # gbm_path skips PricePath's checks; the path must pass them anyway.
        params = [GbmParams(1.0, 0.5, 1.0, 60, seed) for seed in range(300, 350)]
        params += [GbmParams(2.0, 0.0, 1.0, 10, 3), GbmParams(1.0, 0.5, 1.0, 1, 7),
                   GbmParams(1e-300, 3.0, 1.0, 100, 4), GbmParams(1.0, 0.5, 1e-300, 1000, 5)]
        for p in params:
            path = gbm_path(p)
            assert type(path) is PricePath
            assert PricePath(path.times, path.prices) == path

    def test_time_step_underflow_is_rejected(self):
        with pytest.raises(InvalidParameterError, match="underflows to 0"):
            gbm_path(GbmParams(1.0, 0.5, 5e-324, 2, 1))

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


# Reference normal draw, one variate at a time and written independently of
# the package: one SplitMix64 step, one uniform, and the inverse CDF's
# rational guess (coefficient tables, one branch per tail) refined by one
# Halley step through the CDF.  Batched draws must reproduce it bit for bit.
_REF_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_REF_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_REF_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_REF_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_REF_P_LOW = 0.02425
_MASK64 = (1 << 64) - 1
_BLOCK = 1024  # states the generator mixes at once


def reference_norm_inv(p):
    c, d = _REF_C, _REF_D
    if p < _REF_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    elif p > 1.0 - _REF_P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
              / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    else:
        a, b = _REF_A, _REF_B
        q = p - 0.5
        r = q * q
        x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    if 0.5 * x * x > 700.0:
        return x
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def reference_uint64s(seed, n):
    state = seed & _MASK64
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def reference_uniform(z):
    return ((z >> 11) + 0.5) * 2.0 ** -53


def reference_uniforms(seed, n):
    return [reference_uniform(z) for z in reference_uint64s(seed, n)]


class TestBatchedDraws:
    """A batch of draws equals the same number of scalar draws, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**64 - 1, -3])
    def test_normals_match_scalar_reference(self, seed):
        n = 12_000
        uniforms = reference_uniforms(seed, n)
        # Both branches of the tail guess are exercised, about 290 times each.
        assert sum(u < _REF_P_LOW for u in uniforms) > 100
        assert sum(u > 1.0 - _REF_P_LOW for u in uniforms) > 100
        assert SplitMix64(seed).normals(n) == [reference_norm_inv(u) for u in uniforms]

    def test_batches_continue_one_stream(self):
        rng = SplitMix64(11)
        draws = rng.normals(5) + [rng.normal()] + rng.normals(0) + rng.normals(4)
        assert draws == SplitMix64(11).normals(10)
        rng = SplitMix64(11)
        assert [rng.uniform() for _ in range(3)] == reference_uniforms(11, 3)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, -3])
    @pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
    def test_uint64s_match_scalar_reference_at_block_edges(self, seed, n):
        assert SplitMix64(seed)._next_uint64s(n) == reference_uint64s(seed, n)

    @pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1, -3])
    def test_mixed_calls_continue_one_stream_across_blocks(self, seed):
        rng = SplitMix64(seed)
        ref = iter(reference_uint64s(seed, 2 * _BLOCK + 10))

        def ref_normals(k):
            return [reference_norm_inv(reference_uniform(next(ref))) for _ in range(k)]

        assert rng.next_uint64() == next(ref)
        assert rng.uniform() == reference_uniform(next(ref))
        assert rng.normals(_BLOCK - 4) == ref_normals(_BLOCK - 4)
        assert rng.normals(0) == []
        assert rng.next_uint64() == next(ref)
        assert rng.normals(3) == ref_normals(3)  # crosses the first block edge
        assert rng.uniform() == reference_uniform(next(ref))
        assert rng.normals(_BLOCK + 5) == ref_normals(_BLOCK + 5)
        assert rng.next_uint64() == next(ref)

    def test_lanes_unpack_alike_in_either_byte_order(self):
        assert rng_module._BLOCK == _BLOCK
        words = reference_uint64s(5, 7) + [0, _MASK64]
        packed = sum(w << 128 * k for k, w in enumerate(words))
        for order in ("little", "big"):
            assert rng_module._unpack(packed, len(words), order) == words
        # The block constants hold 1, (k + 1) * gamma and 2**64 - 1 in lane k.
        lanes = [(rng_module._COUNTERS >> 128 * k) & ((1 << 128) - 1) for k in range(_BLOCK)]
        assert lanes == [(k + 1) * 0x9E3779B97F4A7C15 for k in range(_BLOCK)]
        assert rng_module._ONES == sum(1 << 128 * k for k in range(_BLOCK))
        assert rng_module._LANE_MASK == _MASK64 * rng_module._ONES

    def test_one_norm_inv_call_per_normal(self, monkeypatch):
        # bench/spans.py times normal.norm_inv by wrapping this module global.
        calls = []

        def counting(p):
            calls.append(p)
            return norm_inv(p)

        monkeypatch.setattr(rng_module, "norm_inv", counting)
        assert SplitMix64(4).normals(2500) == [norm_inv(p) for p in calls]
        assert len(calls) == 2500

    def test_norm_inv_matches_reference_at_branch_edges(self):
        edges = [_REF_P_LOW, math.nextafter(_REF_P_LOW, 0.0),
                 1.0 - _REF_P_LOW, math.nextafter(1.0 - _REF_P_LOW, 1.0),
                 0.5, 2.0 ** -53, 1.0 - 2.0 ** -53, 1e-300, 5e-324]
        for p in edges:
            assert norm_inv(p) == reference_norm_inv(p), p


def chained_arbitrage(profile, path):
    """Step profits and path leg from one arbitrage_to_price call per step."""
    alpha, beta = profile.interval.alpha, profile.interval.beta
    clamped = [min(max(p, alpha), beta) for p in path.prices]
    pool = pool_init(profile, clamped[0])
    profits, legs = [], []
    for p in clamped[1:]:
        legs.append(pool.r2 * (p - pool.price))
        pool, step = arbitrage_to_price(pool, p)
        profits.append(step.profit)
    return tuple(profits), math.fsum(legs)


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


class TestSweepMatchesOneStepApi:
    """run_arbitrage's sweep over f and g gives exactly the profits of
    chained arbitrage_to_price calls, also at the edges of the float range,
    on a constant path and on a path that sits on the table's jumps."""

    @staticmethod
    def assert_same(profile, path):
        report = run_arbitrage(profile, path)
        profits, path_term = chained_arbitrage(profile, path)
        assert report.step_profits == profits
        assert report.path_term == path_term

    @pytest.mark.parametrize("index", range(7))
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gbm_paths(self, index, seed):
        spec, p_start = arithmetic_suite()[index]
        prof = ReplicationProfile(spec)
        for sigma in (0.5, 3.0):
            self.assert_same(prof, gbm_path(GbmParams(p_start, sigma, 1.0, 200, seed)))

    @pytest.mark.parametrize("index", range(7))
    @pytest.mark.parametrize("p_start", [None, 1e-300, 1e300])
    @pytest.mark.parametrize("sigma", [0.5, 0.0])
    def test_float_range_edges_and_zero_vol(self, index, p_start, sigma):
        spec, own_start = arithmetic_suite()[index]
        prof = ReplicationProfile(spec)
        path = gbm_path(GbmParams(p_start or own_start, sigma, 1.0, 100, 4))
        self.assert_same(prof, path)
        if sigma == 0.0:
            assert run_arbitrage(prof, path).step_profits == (0.0,) * 100

    def test_path_on_the_jumps(self):
        table, _ = arithmetic_suite()[-1]
        assert table.jumps == ((1.0, 0.3), (3.0, 0.25))
        up = math.nextafter(3.0, math.inf)
        prices = (2.0, 3.0, 3.0, up, 3.0, 1.0, math.nextafter(1.0, 0.0), 1.0, 5.0, 3.0)
        path = PricePath(tuple(float(i) for i in range(len(prices))), prices)
        prof = ReplicationProfile(table)
        self.assert_same(prof, path)
        # At a jump the pool trades the jump's whole mass at the jump price
        # itself, so a one-ulp move across it earns nothing beyond rounding.
        profits = run_arbitrage(prof, path).step_profits
        assert all(abs(profits[i]) <= 1e-15 for i in (1, 2, 3, 5, 6))


class TestNumericalOverflow:
    """Results that leave the float range raise NumericalError, named."""

    def test_gbm_path_leaving_the_range(self):
        with pytest.raises(NumericalError, match="step 20 of 200"):
            gbm_path(GbmParams(1.7e308, 0.5, 1.0, 200, 7))
        with pytest.raises(NumericalError, match="became 0.0"):
            gbm_path(GbmParams(5e-324, 10.0, 1.0, 200, 7))

    def test_earnings_variance_overflow(self):
        spec = make_catalog_payoff(ConstantProportion(0.5, 1e300), PriceInterval(0.0, 1e300))
        prof = ReplicationProfile(spec)
        with pytest.raises(NumericalError, match="variance"):
            monte_carlo_earnings(prof, GbmParams(1.0, 0.5, 1.0, 20, 7), 3)
        with pytest.raises(ArithmeticError):
            earnings_mean_stderr([1e300, -1e300])

    def test_path_earnings_overflow(self):
        # Up at 1e25 the path legs g(P) * dP pass 1e308 with both signs.
        spec = make_catalog_payoff(ConstantProportion(0.5, 1e300), PriceInterval(0.0, 1e300))
        prof = ReplicationProfile(spec)
        with pytest.raises(NumericalError, match="from 1e[+]25 leave the float range"):
            run_arbitrage(prof, gbm_path(GbmParams(1e25, 0.5, 1.0, 20, 7)))


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

    @pytest.mark.parametrize("totals", [[], [1.0]])
    def test_stderr_needs_two_totals(self, totals):
        with pytest.raises(InvalidParameterError, match="two or more totals"):
            earnings_mean_stderr(totals)

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
