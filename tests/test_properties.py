"""Cross-module invariants on the catalog plus randomized piecewise payoffs.

A random monotone piecewise-linear table (with occasional jumps) exercises
every code path that does not have a family closed form: exact segment
sums for g, numeric inversion, the generic trading-function route, and the
earnings identity.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmmrep import (
    PricePath,
    ReplicationProfile,
    TradingFunction,
    arbitrage_to_price,
    g_inverse,
    make_piecewise_payoff,
    pool_init,
    portfolio_value,
    portfolio_value_integral,
    run_arbitrage,
    trading_function_eval,
    trading_function_infimum,
)
from cfmmrep.quadrature import QuadratureOptions
from cfmmrep.oracle import quadrature_replication_cost

TIGHT = QuadratureOptions(rel_tol=1e-10, abs_tol=1e-300)


def random_piecewise_payoff(rng: random.Random):
    """Monotone piecewise-linear payoff with random kinks and jumps."""
    n = rng.randint(2, 7)
    prices = []
    p = rng.uniform(0.1, 1.0)
    for _ in range(n):
        prices.append(p)
        p += rng.uniform(0.2, 3.0)
    values = []
    v = rng.uniform(0.0, 0.5)
    jumps = []
    for i, price in enumerate(prices):
        values.append(v)
        if i < n - 1:
            if rng.random() < 0.3:
                jumps.append((price, rng.uniform(0.05, 0.5)))
                v += jumps[-1][1]
            v += rng.uniform(0.0, 2.0)
    unbounded = rng.random() < 0.5
    spec = make_piecewise_payoff(list(zip(prices, values)), jumps)
    return spec.with_bounds(prices[0], math.inf) if unbounded else spec


def sample_range(profile):
    lo = max(profile.interval.alpha, 0.05)
    hi = profile.interval.beta
    if math.isinf(hi):
        hi = max(b for b in profile.payoff.breakpoints) * 5.0
    return lo, hi


@pytest.fixture(scope="module")
def piecewise_profiles():
    rng = random.Random(2024)
    return [ReplicationProfile(random_piecewise_payoff(rng)) for _ in range(50)]


def test_payoff_monotone_and_nonnegative(piecewise_profiles):
    rng = random.Random(0)
    for prof in piecewise_profiles:
        lo, hi = sample_range(prof)
        for _ in range(50):
            p, q = sorted(rng.uniform(lo, hi) for _ in range(2))
            fp, fq = prof.payoff.value(p), prof.payoff.value(q)
            assert 0.0 <= fp <= fq + 1e-12


def test_g_nonincreasing_nonnegative(piecewise_profiles):
    rng = random.Random(1)
    for prof in piecewise_profiles:
        lo, hi = sample_range(prof)
        grid = sorted(rng.uniform(lo, hi) for _ in range(40))
        vals = [prof.g(p) for p in grid]
        assert all(v >= 0.0 for v in vals)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_exact_g_matches_quadrature(piecewise_profiles):
    rng = random.Random(2)
    for prof in piecewise_profiles[:20]:
        lo, hi = sample_range(prof)
        for _ in range(5):
            p = rng.uniform(lo, hi)
            exact = prof.g(p)
            quad = quadrature_replication_cost(prof.payoff, p, TIGHT)
            assert quad == pytest.approx(exact, rel=1e-9, abs=1e-12)


def test_portfolio_value_monotone_concave(piecewise_profiles):
    rng = random.Random(3)
    for prof in piecewise_profiles:
        lo, hi = sample_range(prof)
        for _ in range(30):
            p, q = sorted(rng.uniform(lo, hi) for _ in range(2))
            vp, vq = portfolio_value(prof, p), portfolio_value(prof, q)
            vm = portfolio_value(prof, 0.5 * (p + q))
            assert vp <= vq + 1e-10
            assert vm >= 0.5 * (vp + vq) - 1e-10


def test_pv_rewrite_identity(piecewise_profiles):
    rng = random.Random(4)
    for prof in piecewise_profiles[:25]:
        lo, hi = sample_range(prof)
        for _ in range(4):
            p = rng.uniform(lo, hi)
            direct = portfolio_value(prof, p)
            integral = portfolio_value_integral(prof, p)
            assert abs(integral - direct) <= 1e-8 * max(1.0, abs(direct))


def test_inverse_is_rightmost(piecewise_profiles):
    rng = random.Random(5)
    for prof in piecewise_profiles[:25]:
        top = prof.g_alpha
        for _ in range(8):
            r2 = rng.uniform(0.0, top)
            p_star = g_inverse(prof, r2)
            if math.isinf(p_star):
                continue
            assert prof.g(p_star) >= r2 - 1e-9
            # Strictly to the right of p_star the requirement drops below r2.
            step = max(p_star * 1e-6, 1e-9)
            if prof.interval.contains(p_star + step):
                assert prof.g(p_star + step) <= r2 + 1e-9


def test_psi_monotone_and_matches_oracle(piecewise_profiles):
    rng = random.Random(6)
    for prof in piecewise_profiles[:15]:
        tf = TradingFunction(prof)
        lo, hi = sample_range(prof)
        for _ in range(4):
            p = rng.uniform(lo, hi)
            r2 = prof.g(p)
            if r2 <= 0.0:
                continue
            r1 = prof.payoff.value(p) + rng.uniform(0.0, 1.0)
            level = trading_function_eval(tf, r1, r2)
            assert trading_function_eval(tf, r1 + 0.5, r2) >= level - 1e-12
            oracle = trading_function_infimum(tf, r1, r2)
            assert abs(level - oracle) <= 1e-6 * max(1.0, abs(level), abs(oracle))


def test_arbitrage_profit_nonnegative(piecewise_profiles):
    rng = random.Random(7)
    for prof in piecewise_profiles[:25]:
        lo, hi = sample_range(prof)
        pool = pool_init(prof, rng.uniform(lo, hi))
        for _ in range(20):
            pool, step = arbitrage_to_price(pool, rng.uniform(lo, hi))
            assert step.profit >= -1e-10


def test_earnings_identity_on_random_paths(piecewise_profiles):
    rng = random.Random(8)
    for prof in piecewise_profiles[:25]:
        lo, hi = sample_range(prof)
        n = rng.randint(3, 40)
        prices = tuple(rng.uniform(lo, hi) for _ in range(n))
        path = PricePath(tuple(float(i) for i in range(n)), prices)
        report = run_arbitrage(prof, path)
        resid = abs(report.total_w - (report.payoff_term + report.path_term))
        assert resid <= 1e-10 * max(1.0, abs(report.total_w))
        assert report.total_w >= -1e-9


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_hypothesis_piecewise_invariants(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    prof = ReplicationProfile(random_piecewise_payoff(rng))
    lo, hi = sample_range(prof)
    u = data.draw(st.floats(0.0, 1.0))
    v = data.draw(st.floats(0.0, 1.0))
    # lo + 1.0 * (hi - lo) can round past hi, which lies on the interval's edge.
    p, q = sorted(min(lo + w * (hi - lo), hi) for w in (u, v))
    assert prof.payoff.value(p) <= prof.payoff.value(q) + 1e-12
    assert prof.g(q) <= prof.g(p) + 1e-12
    assert portfolio_value(prof, p) <= portfolio_value(prof, q) + 1e-10
