"""Price paths, the arbitrage driver, and the earnings decomposition."""

import hashlib
import math
import random
import weakref
from dataclasses import replace
from statistics import NormalDist

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
    PricePath,
    ReplicationProfile,
    arbitrage_to_price,
    gbm_path,
    make_catalog_payoff,
    make_piecewise_payoff,
    monte_carlo_earnings,
    monte_carlo_reports,
    pool_init,
    portfolio_value,
    run_arbitrage,
)
from cfmmrep import cfmm, cli, simulate
from cfmmrep.normal import norm_inv
from cfmmrep.payoffs import piecewise_exact_forms
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
        # Paths of one run share a grid; other steps or another horizon get their own.
        for _ in range(2):
            assert gbm_path(GbmParams(1.0, 0.3, 2.0, 4, 10)).times == path.times
            assert gbm_path(GbmParams(1.0, 0.3, 2.0, 5, 9)).times == tuple(
                i * 0.4 for i in range(6))
            assert gbm_path(GbmParams(1.0, 0.3, 1.0, 4, 9)).times == (0.0, 0.25, 0.5, 0.75, 1.0)

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

    def test_top_uniform_is_one_and_its_path_fails_typed(self):
        # Lane value 2**53 - 1 gives (2**54 - 1) * 2**-54, which rounds to 1.0:
        # its normal is inf, and the path's first step leaves the float range.
        seed = 3558559446808474027
        assert SplitMix64(seed).uniform() == 1.0
        assert SplitMix64(seed).normals(1) == [math.inf]
        with pytest.raises(NumericalError, match="left the float range at step 1 of 1"):
            gbm_path(GbmParams(1.0, 0.5, 1.0, 1, seed))


# Reference normal draw, one variate at a time and written independently of
# the package: one SplitMix64 step, one uniform, and the standard library's
# inverse normal CDF.  Batched draws must reproduce it bit for bit.
reference_norm_inv = NormalDist().inv_cdf
_REF_CENTRE = 0.075  # AS 241's central form holds 0.075 <= p <= 0.925
_MASK64 = (1 << 64) - 1
_BLOCK = 1024  # states the generator mixes at once


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


NORMALS_SHA256 = [
    (0, 1, "f0f8cf18ab4b9fbece48192d4b940a735769dc2030b64d043ece0e8b3828debf"),
    (0, 1000, "55219464fa30f809a978988b2339a75fa8435812d37d03b77960287add8c99e3"),
    (0, 1025, "a76de7accbef5ae6aa819f11de7c828db29840824809308f3767c55fcc490d7e"),
    (0, 2500, "9e2f170cbdb26fc3b45364175f24bad1928f16a17ebf7b30da870ab4a9ede711"),
    (7, 1, "564f32a81006a429ecddbf2be2e4c3b8df6c4c36c3ae9758350408bc4d62ed52"),
    (7, 1000, "ad4414d15afb90a0377d5dc3e9c81100bc4bf928d0ece30cd40b1279c93b1e59"),
    (7, 1025, "e23fc536687bc5e452e5f35a61ff7aa4f5db2790dae0aaafb105b15df0c1a98c"),
    (7, 2500, "c0f6dc561423ee13ac5efb35a241252e67988d62befac59cbd608d8607062bfc"),
    (-3, 1, "582edaa277c7177a614fbcf5975a2de9f23fc55ae5ccd461337c6800ef585ed8"),
    (-3, 1000, "883e715f517c8217be4cab474a0589f363b517de7de6767094799b2bee5fad9b"),
    (-3, 1025, "fb57b3e1fc3199cfeaefcc4468c22464b54a3352a156440b59b253b80c99a15e"),
    (-3, 2500, "a886912532865200f4d80bef2b8fbea32d97820cb83dc9db2821ad4130b6849b"),
]


class TestBatchedDraws:
    """A batch of draws equals the same number of scalar draws, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 7, 12345, 2**64 - 1, -3])
    def test_normals_match_scalar_reference(self, seed):
        n = 12_000
        uniforms = reference_uniforms(seed, n)
        # Both tails of the quantile are exercised, about 900 times each.
        assert sum(u < _REF_CENTRE for u in uniforms) > 100
        assert sum(u > 1.0 - _REF_CENTRE for u in uniforms) > 100
        assert SplitMix64(seed).normals(n) == [reference_norm_inv(u) for u in uniforms]

    @pytest.mark.parametrize("seed,n,digest", NORMALS_SHA256,
                             ids=[f"{seed}-{n}" for seed, n, _ in NORMALS_SHA256])
    def test_normals_keep_their_bits(self, seed, n, digest):
        # One lane block and part or all of a second; sha256 of the hex draws.
        draws = " ".join(x.hex() for x in SplitMix64(seed).normals(n))
        assert hashlib.sha256(draws.encode()).hexdigest() == digest

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
        # Uniforms come from the odd lanes 2 * (z >> 11) + 1, not from z.
        assert SplitMix64(seed)._uniforms(n) == reference_uniforms(seed, n)

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
        # One norm_inv call per scalar normal(), through this module global,
        # which bench/spans.py wraps to time it; a batch of normals makes
        # none, but one list-kernel call over its uniforms with their bits.
        batches, scalars = [], []

        def counting(calls, f):
            def count(p):
                calls.append(p)
                return f(p)
            return count

        monkeypatch.setattr(rng_module, "norm_invs", counting(batches, rng_module.norm_invs))
        monkeypatch.setattr(rng_module, "norm_inv", counting(scalars, norm_inv))
        draws = SplitMix64(4).normals(2500)
        assert len(batches) == 1 and scalars == []
        assert batches[0] == reference_uniforms(4, 2500)
        assert [x.hex() for x in draws] == [norm_inv(p).hex() for p in batches[0]]
        assert SplitMix64(4).normal() == draws[0]
        assert len(batches) == 1 and scalars == batches[0][:1]

    def test_norm_inv_matches_reference_at_branch_edges(self):
        edges = [_REF_CENTRE, math.nextafter(_REF_CENTRE, 0.0),
                 0.925, math.nextafter(0.925, 0.0), math.exp(-25.0),
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
            make_catalog_payoff(CappedCall(1.0, 2.0)))
        path = PricePath((0.0, 1.0, 2.0, 3.0), (2.5, 3.0, 4.0, 8.0))
        report = run_arbitrage(prof, path)
        assert report.total_w == pytest.approx(0.0, abs=1e-15)

    def test_clamping_outside_interval(self):
        prof = ReplicationProfile(make_catalog_payoff(CappedCall(1.0, 2.0)))
        path = PricePath((0.0, 1.0), (1.5, 5.0))  # 5.0 clamps to beta = 2
        report = run_arbitrage(prof, path)
        direct = PricePath((0.0, 1.0), (1.5, 2.0))
        assert report == run_arbitrage(prof, direct)
        assert report.step_profits == (2.0 * (prof.g(1.5) - prof.g(2.0)) + 0.5 - 1.0,)

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
    def test_g_per_price_or_by_kernel(self, monkeypatch, index):
        spec, p_start = arithmetic_suite()[index]
        prof = ReplicationProfile(spec)
        calls = []
        original = ReplicationProfile.g

        def counting(self, p):
            calls.append(p)
            return original(self, p)

        monkeypatch.setattr(ReplicationProfile, "g", counting)
        steps = 40
        path = gbm_path(GbmParams(p_start, 0.5, 1.0, steps, 9))
        run_arbitrage(prof, path)
        # A clamped path strictly inside the one piece of a one-term g, and
        # any path on the table, gets every g from a list kernel; any other
        # path calls g once per price, and V(P_0), V(P_T) reuse the sweep's
        # end values.
        alpha, beta = prof.interval.alpha, prof.interval.beta
        prices = [min(max(p, alpha), beta) for p in path.prices]
        lo, hi = min(prices), max(prices)
        one = piecewise_exact_forms(spec).g_values
        kernel = one is not None and one[0] < lo and hi < one[1]
        assert kernel == (index in (1, 2, 4, 5, 6))
        assert len(calls) == (0 if kernel else steps + 1)
        calls.clear()
        g = [original(prof, p).hex() for p in prices]
        assert [x.hex() for x in prof.portfolios(prices)[1]] == g
        assert calls == ([] if kernel else prices)


class TestSweepMatchesOneStepApi:
    """run_arbitrage's sweep over f and g gives exactly the profits of
    chained arbitrage_to_price calls, and V at the clamped ends exactly as
    portfolio_value, also at the edges of the float range, on a constant
    path and on a path that sits on the table's jumps."""

    @staticmethod
    def assert_same(profile, path):
        report = run_arbitrage(profile, path)
        profits, path_term = chained_arbitrage(profile, path)
        assert report.step_profits == profits
        assert report.path_term == path_term
        assert report.total_w == math.fsum(profits)
        alpha, beta = profile.interval.alpha, profile.interval.beta
        first, last = (min(max(p, alpha), beta) for p in (path.prices[0], path.prices[-1]))
        assert report.payoff_term == portfolio_value(profile, first) - portfolio_value(profile, last)

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
        spec = make_catalog_payoff(ConstantProportion(0.5, 1e300)).with_bounds(0.0, 1e300)
        prof = ReplicationProfile(spec)
        with pytest.raises(NumericalError, match="variance"):
            monte_carlo_earnings(prof, GbmParams(1.0, 0.5, 1.0, 20, 7), 3)
        with pytest.raises(ArithmeticError):
            earnings_mean_stderr([1e300, -1e300])

    def test_path_earnings_overflow(self):
        # Up at 1e25 the path legs g(P) * dP pass 1e308 with both signs.
        spec = make_catalog_payoff(ConstantProportion(0.5, 1e300)).with_bounds(0.0, 1e300)
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

    def test_reports_iterator_checks_paths_at_the_call(self):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        with pytest.raises(InvalidParameterError, match="n_paths must be >= 2"):
            monte_carlo_reports(prof, GbmParams(1.0, 0.4, 1.0, 10, 1), 1)

    def test_reports_match_one_path_per_seed(self):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1e-6)))
        params = GbmParams(1.0, 0.5, 1.0, 30, 41)
        assert list(monte_carlo_reports(prof, params, 4)) == [
            run_arbitrage(prof, gbm_path(replace(params, seed=41 + i))) for i in range(4)]

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


class TestStreamedReports:
    """A Monte Carlo run holds one path's report at a time, not all of them."""

    @pytest.fixture
    def alive_at_each_path(self, monkeypatch):
        """Per path, how many earlier reports are still alive as it starts."""
        reports, alive = [], []
        real = simulate.run_arbitrage

        def tracked(profile, path):
            alive.append(sum(ref() is not None for ref in reports))
            report = real(profile, path)
            reports.append(weakref.ref(report))
            return report

        monkeypatch.setattr(simulate, "run_arbitrage", tracked)
        return alive

    def test_cli_simulate(self, capsys, alive_at_each_path):
        assert cli.main(["simulate", "--payoff", "catalog:logarithmic", "--param",
                         "p0=1e-6", "--steps", "20", "--paths", "6", "--seed", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8
        assert len(alive_at_each_path) == 6 and max(alive_at_each_path) <= 1

    def test_monte_carlo_earnings(self, alive_at_each_path):
        prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1e-6)))
        _, _, totals = monte_carlo_earnings(prof, GbmParams(1.0, 0.5, 1.0, 20, 3), 6)
        assert len(totals) == 6
        assert len(alive_at_each_path) == 6 and max(alive_at_each_path) <= 1
