"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail line each
criterion prints.
"""

import math
import random
import time

import pytest

from cfmmrep import (
    BlackScholesBinary,
    CappedCall,
    CappedPower,
    CashOrNothing,
    ConstantProportion,
    GbmParams,
    GrowthClass,
    Logarithmic,
    NumericProfile,
    PricePath,
    QuadratureOptions,
    ReplicationProfile,
    TradingFunction,
    arbitrage_to_price,
    constant_product_level,
    gbm_path,
    growth_classification,
    make_catalog_payoff,
    monte_carlo_earnings,
    pool_init,
    run_arbitrage,
    trading_function_eval,
    trading_function_infimum,
)
from cfmmrep.checks import run_verification
from cfmmrep.normal import norm_cdf, norm_inv

from test_properties import random_piecewise_payoff

E = math.e

TIGHT = QuadratureOptions(rel_tol=1e-10, abs_tol=1e-300)


def family_suite():
    """The six catalog families with sampling ranges for the experiments."""
    return [
        ("cash_or_nothing", make_catalog_payoff(CashOrNothing(2.0)), 0.1, 100.0),
        ("capped_call", make_catalog_payoff(CappedCall(1.0, E)), 0.05, E),
        ("black_scholes_binary",
         make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)), 0.05, 20.0),
        ("logarithmic", make_catalog_payoff(Logarithmic(1.0)), 0.01, 1000.0),
        ("capped_power", make_catalog_payoff(CappedPower(1.0, 4.0, 2.0)), 0.1, 4.0),
        ("constant_proportion",
         make_catalog_payoff(ConstantProportion(0.5, 1.0)), 0.01, 100.0),
    ]


def log_spaced(lo, hi, n):
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [math.exp(math.log(lo) + i * step) for i in range(n)]


def report(number, title, worst, tol, elapsed=None):
    timing = f", {elapsed:.1f}s" if elapsed is not None else ""
    print(f"PASS  criterion {number} ({title}): worst {worst:.3e} "
          f"vs tol {tol:.1e}{timing}")


def test_criterion_1_closed_form_vs_quadrature():
    """Quadrature g matches the family closed forms to 1e-8 relative at 200
    log-spaced prices per family, in under 10 seconds.

    Where g itself falls below double-precision resolution of the curve's
    own scale (cancellation one ulp from a cap, deep lognormal tails), the
    comparison floor is 1e-12 of that scale instead of a relative check.
    """
    start = time.perf_counter()
    worst = 0.0
    for name, spec, lo, hi in family_suite():
        prof = ReplicationProfile(spec)
        oracle = NumericProfile(spec, opts=TIGHT)
        floor = 1e-12 * max(1.0, prof.g(lo))
        for p in log_spaced(lo, hi, 200):
            closed = prof.g(p)
            quad = oracle.g(p)
            rel = abs(quad - closed) / (abs(closed) + 1e-300)
            assert rel <= 1e-8 or abs(quad - closed) <= floor, (
                f"{name} at p={p}: closed={closed!r} quad={quad!r}")
            worst = max(worst, min(rel, abs(quad - closed) / floor * 1e-8))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, "closed form vs quadrature", worst, 1e-8, elapsed)


def test_criterion_2_infimum_oracle():
    """Direct trading-function evaluation agrees with the infimum oracle to
    1e-6 relative at 100 random valid reserves per family, in under 30 s."""
    start = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for name, spec, lo, hi in family_suite():
        prof = ReplicationProfile(spec)
        tf = TradingFunction(prof)
        count = 0
        while count < 100:
            p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            r2 = prof.g(p)
            if r2 <= 0.0:
                continue  # points with r2 > 0 for the jump family
            count += 1
            r1 = prof.payoff.value(p) + rng.uniform(0.0, 2.0)
            direct = trading_function_eval(tf, r1, r2)
            oracle = trading_function_infimum(tf, r1, r2)
            rel = abs(direct - oracle) / max(1.0, abs(direct), abs(oracle))
            assert rel <= 1e-6, f"{name}: psi={direct!r} inf={oracle!r} at p={p}"
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    report(2, "infimum oracle", worst, 1e-6, elapsed)


def test_criterion_3_constant_product_recovery():
    """1000 arbitrage steps on the half-and-half portfolio keep
    sqrt(r1 * r2) pinned to the constant-product level within 1e-9."""
    params = ConstantProportion(0.5, 1.0)
    prof = ReplicationProfile(make_catalog_payoff(params))
    level = constant_product_level(params)
    assert level == 1.0
    rng = random.Random(202)
    pool = pool_init(prof, 1.0)
    worst = 0.0
    for _ in range(1000):
        p = math.exp(rng.uniform(math.log(0.01), math.log(100.0)))
        pool, _ = arbitrage_to_price(pool, p)
        resid = abs(math.sqrt(pool.r1 * pool.r2) - level) / level
        assert resid <= 1e-9
        worst = max(worst, resid)
    report(3, "constant product recovery", worst, 1e-9)


def test_criterion_4_black_scholes_trading_function():
    """The fully numeric trading function (quadrature g, bisection inverse)
    matches r1 - N(N^-1(1 - K*r2) - sigma*sqrt(tau)) within 1e-6."""
    strike, sigma, tau = 1.0, 0.2, 1.0
    vol = sigma * math.sqrt(tau)
    spec = make_catalog_payoff(BlackScholesBinary(strike, sigma, tau))
    numeric = NumericProfile(spec)
    tf = TradingFunction(numeric)
    worst = 0.0
    reserves = [0.0] + [0.005 + 0.99 * i / 48 for i in range(49)]
    for r1 in (0.0, 0.5, 1.5):
        for r2 in reserves:
            got = trading_function_eval(tf, r1, r2)
            want = r1 - norm_cdf(norm_inv(1.0 - strike * r2) - vol)
            err = abs(got - want)
            assert err <= 1e-6, f"r1={r1} r2={r2}: got={got!r} want={want!r}"
            worst = max(worst, err)
    report(4, "lognormal-model trading function", worst, 1e-6)


def test_criterion_5_arbitrage_nonnegativity_and_optimality():
    """1e4 random price pairs per family: step profit >= -1e-10 and the
    realigned allocation is one-shot optimal to the same tolerance."""
    rng = random.Random(303)
    worst_profit = 0.0
    worst_opt = 0.0
    for name, spec, lo, hi in family_suite():
        prof = ReplicationProfile(spec)
        f = prof.payoff.value
        g = prof.g
        log_lo, log_hi = math.log(lo), math.log(hi)
        for _ in range(10_000):
            p = math.exp(rng.uniform(log_lo, log_hi))
            p_ext = math.exp(rng.uniform(log_lo, log_hi))
            profit = p_ext * (g(p) - g(p_ext)) + f(p) - f(p_ext)
            assert profit >= -1e-10, f"{name}: profit {profit} for {p}->{p_ext}"
            worst_profit = min(worst_profit, profit)
            q = math.exp(rng.uniform(log_lo, log_hi))
            residual = (f(q) + p_ext * g(q)) - (f(p_ext) + p_ext * g(p_ext))
            assert residual >= -1e-10, f"{name}: residual {residual}"
            worst_opt = min(worst_opt, residual)
        # The pool machinery books the same profit as the direct formula.
        pool = pool_init(prof, math.exp(0.5 * (log_lo + log_hi)))
        _, step = arbitrage_to_price(pool, lo)
        assert step.profit == pytest.approx(
            lo * (pool.r2 - g(lo)) + pool.r1 - f(lo), rel=1e-12, abs=1e-15)
    report(5, "arbitrage nonnegativity/optimality",
           min(worst_profit, worst_opt), -1e-10)


def test_criterion_6_earnings_identity():
    """On 100 seeded GBM paths per family the booked profits equal the
    payoff-plus-path decomposition to 1e-10 relative."""
    worst = 0.0
    for i, (name, spec, lo, hi) in enumerate(family_suite()):
        prof = ReplicationProfile(spec)
        p0 = math.sqrt(lo * hi)
        for j in range(100):
            path = gbm_path(GbmParams(p0, 0.6, 1.0, 200, 7_000 + 100 * i + j))
            rep = run_arbitrage(prof, path)
            resid = abs(rep.total_w - (rep.payoff_term + rep.path_term))
            bound = 1e-10 * max(1.0, abs(rep.total_w))
            assert resid <= bound, f"{name} path {j}: resid {resid}"
            worst = max(worst, resid / max(1.0, abs(rep.total_w)))
            assert rep.total_w >= -1e-9
    report(6, "earnings identity", worst, 1e-10)


def test_criterion_7_variance_swap():
    """Arbitraging the logarithmic pool along driftless GBM earns half the
    variance: mean W within max(3 SE, 2%) of sigma^2 T / 2 = 0.125."""
    start = time.perf_counter()
    prof = ReplicationProfile(make_catalog_payoff(Logarithmic(1e-6)))
    params = GbmParams(p_start=1.0, sigma=0.5, horizon=1.0, steps=1000, seed=7)
    mean, se, totals = monte_carlo_earnings(prof, params, 1000)
    elapsed = time.perf_counter() - start
    theory = 0.5 * params.sigma**2 * params.horizon
    tol = max(3.0 * se, 0.02 * theory)
    assert abs(mean - theory) <= tol, f"mean={mean} theory={theory} tol={tol}"
    assert all(w >= -1e-9 for w in totals)
    assert elapsed < 60.0, f"criterion 7 took {elapsed:.1f}s"
    report(7, "variance swap earnings", abs(mean - theory), tol, elapsed)


def test_criterion_8_growth_classification():
    """Sublinear tails classify finite, the linear tail classifies infinite,
    and its probes grow by log(10) per decade of cutoff (within 5%)."""
    finite_specs = [
        make_catalog_payoff(Logarithmic(1.0)),
        make_catalog_payoff(ConstantProportion(0.5, 1.0)),
        make_catalog_payoff(ConstantProportion(0.9, 1.0)),
    ]
    for spec in finite_specs:
        out = growth_classification(spec)
        assert out.classification is GrowthClass.FINITE, spec.catalog

    linear = make_catalog_payoff(CappedPower(1.0, math.inf, 1.0))
    out = growth_classification(linear)
    assert out.classification is GrowthClass.INFINITE
    increments = [b[1] - a[1] for a, b in zip(out.evidence, out.evidence[1:])]
    worst = 0.0
    for d in increments:
        rel = abs(d - math.log(10.0)) / math.log(10.0)
        assert rel <= 0.05, f"increment {d} vs log(10)"
        worst = max(worst, rel)
    ratios = [b / a for a, b in zip(increments, increments[1:])]
    for r in ratios:
        assert abs(r - 1.0) <= 0.05
    report(8, "growth classification", worst, 0.05)


def test_criterion_9_property_suites():
    """The invariant bundle passes on every catalog family and on 50
    randomized monotone piecewise-linear payoffs."""
    failures = []
    for name, spec, lo, hi in family_suite():
        for result in run_verification(ReplicationProfile(spec), seed=11, samples=150):
            if not result.passed:
                failures.append(f"{name}: {result.line()}")
    rng = random.Random(909)
    for k in range(50):
        prof = ReplicationProfile(random_piecewise_payoff(rng))
        for result in run_verification(prof, seed=12, samples=60):
            if not result.passed:
                failures.append(f"piecewise[{k}]: {result.line()}")
    assert not failures, "\n".join(failures)
    report(9, "property suites", 0.0, 0.0)
