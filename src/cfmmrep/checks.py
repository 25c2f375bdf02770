"""Invariant checks runnable against any payoff.

Each check samples the payoff's own price range, evaluates one library
invariant, and reports the worst residual it saw.  The CLI `verify`
command prints these; the test suite asserts the same bundle on the whole
catalog.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .cfmm import (
    TradingFunction,
    arbitrage_to_price,
    pool_init,
    trading_function_eval,
    trading_function_infimum,
)
from .errors import InvalidParameterError
from .payoffs import ConstantProportion, constant_product_level
from .replication import ReplicationProfile, portfolio_value_integral
from .simulate import GbmParams, gbm_path, run_arbitrage


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    tolerance: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: worst residual {self.worst:.3e} (tol {self.tolerance:.1e})"


PSI_TOLERANCE = 1e-6  # verify's and trading-function --check-infimum's bound on psi_residual


def psi_residual(psi: float, oracle: float) -> float:
    """|psi - oracle| / max(1, |psi|, |oracle|); inf, a mismatch, where that is NaN."""
    residual = abs(psi - oracle) / max(1.0, abs(psi), abs(oracle))
    return math.inf if math.isnan(residual) else residual


def sample_price_range(profile: ReplicationProfile):
    """A finite, positive [lo, hi] slice of the interval worth sampling."""
    alpha, beta = profile.interval.alpha, profile.interval.beta
    bps = profile.payoff.breakpoints
    lo = alpha if alpha > 0.0 else (min(bps) / 8.0 if bps else 0.05)
    hi = beta if profile.interval.bounded else max(max(bps, default=1.0) * 20.0, lo * 100.0)
    if hi <= lo:
        lo = max(alpha, hi / 2.0)
    return lo, hi


def run_verification(profile: ReplicationProfile, seed: int = 7, samples: int = 200):
    """Run the cross-module invariant bundle; returns a list of CheckResult."""
    if samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    lo, hi = sample_price_range(profile)
    # Prices are drawn log-uniformly on [lo, hi], with both logs taken once.
    exp, uniform, log_lo, log_hi = math.exp, rng.uniform, math.log(lo), math.log(hi)
    payoff = profile.payoff
    results = []

    def record(name, worst, tol):
        results.append(CheckResult(name, worst <= tol, worst, tol))

    # Payoff monotone and nonnegative.
    worst_mono = 0.0
    worst_neg = 0.0
    for _ in range(samples):
        p = exp(uniform(log_lo, log_hi))
        q = exp(uniform(log_lo, log_hi))
        p, q = min(p, q), max(p, q)
        worst_mono = max(worst_mono, payoff.value(p) - payoff.value(q))
        worst_neg = max(worst_neg, -payoff.value(p))
    record("payoff nondecreasing", worst_mono, 1e-12)
    record("payoff nonnegative", worst_neg, 0.0)

    # Replication cost nonincreasing and nonnegative.
    grid = sorted(exp(uniform(log_lo, log_hi)) for _ in range(samples))
    g_vals = [profile.g(p) for p in grid]
    worst_inc = max((b - a for a, b in zip(g_vals, g_vals[1:])), default=0.0)
    record("replication cost nonincreasing", worst_inc, 1e-9)
    record("replication cost nonnegative", max((-v for v in g_vals), default=0.0), 0.0)

    # Portfolio value: the integral identity, monotone, concave.
    # One sweep of g over the sorted prices, not one from alpha per price.
    worst_ident = 0.0
    ident = sorted(exp(uniform(log_lo, log_hi)) for _ in range(max(10, samples // 10)))
    for p, via_integral in zip(ident, portfolio_value_integral(profile, ident)):
        direct = profile.portfolio_value(p)
        worst_ident = max(worst_ident, abs(via_integral - direct) / max(1.0, abs(direct)))
    record("portfolio value integral identity", worst_ident, 1e-8)

    worst_v_mono = 0.0
    worst_v_conc = 0.0
    for _ in range(samples):
        p = exp(uniform(log_lo, log_hi))
        q = exp(uniform(log_lo, log_hi))
        p, q = min(p, q), max(p, q)
        vp, vq, vm = (profile.portfolio_value(p), profile.portfolio_value(q),
                      profile.portfolio_value(0.5 * (p + q)))
        worst_v_mono = max(worst_v_mono, vp - vq)
        worst_v_conc = max(worst_v_conc, 0.5 * (vp + vq) - vm)
    record("portfolio value nondecreasing", worst_v_mono, 1e-10)
    record("portfolio value concave", worst_v_conc, 1e-10)

    # Trading function against the infimum oracle.
    tf = TradingFunction(profile)
    worst_psi = 0.0
    for _ in range(max(20, samples // 5)):
        p = exp(uniform(log_lo, log_hi))
        r2 = profile.g(p)
        if r2 <= 0.0:
            continue
        r1 = payoff.value(p) + rng.uniform(0.0, 1.0)
        direct = trading_function_eval(tf, r1, r2)
        oracle = trading_function_infimum(tf, r1, r2)
        worst_psi = max(worst_psi, psi_residual(direct, oracle))
    record("trading function matches infimum oracle", worst_psi, PSI_TOLERANCE)

    # Arbitrage profit nonnegative, and the chosen allocation optimal.
    worst_profit = 0.0
    worst_opt = 0.0
    for _ in range(samples):
        p = exp(uniform(log_lo, log_hi))
        p_ext = exp(uniform(log_lo, log_hi))
        pool = pool_init(profile, p)
        pool, step = arbitrage_to_price(pool, p_ext)  # pool now holds (f, g) at p_ext
        worst_profit = max(worst_profit, -step.profit)
        q = exp(uniform(log_lo, log_hi))
        held = payoff.value(q) + p_ext * profile.g(q)
        optimal = pool.r1 + p_ext * pool.r2
        worst_opt = max(worst_opt, optimal - held)
    record("arbitrage profit nonnegative", worst_profit, 1e-10)
    record("arbitrage allocation optimal", worst_opt, 1e-10)

    # Earnings decomposition on a sampled path.
    # The geometric middle of [lo, hi], without letting lo * hi leave the floats.
    mid = lo * hi
    mid = math.sqrt(mid) if 0.0 < mid < math.inf else math.sqrt(lo) * math.sqrt(hi)
    params = GbmParams(p_start=mid, sigma=0.4, horizon=1.0,
                       steps=max(50, samples), seed=seed)
    report = run_arbitrage(profile, gbm_path(params))
    resid = abs(report.total_w - (report.payoff_term + report.path_term))
    record("earnings telescoping identity",
           resid / max(1.0, abs(report.total_w)), 1e-10)
    record("earnings nonnegative", -report.total_w, 1e-9)

    # Constant-proportion pools must sit on the constant-product curve.  A
    # pool cut at a finite beta holds less of the risky asset by the uncut
    # pool's g(beta): r1**(1-w) * (r2 + g(beta))**w == k.
    if isinstance(payoff.catalog, ConstantProportion) and payoff.catalog.c > 0.0:
        w = payoff.catalog.w
        level = constant_product_level(payoff.catalog)
        uncut = ReplicationProfile(payoff.with_bounds(beta=math.inf))
        shift = uncut.g(profile.interval.beta)
        worst_cp = 0.0
        pool = pool_init(profile, exp(uniform(log_lo, log_hi)))
        for _ in range(samples):
            pool, _ = arbitrage_to_price(pool, exp(uniform(log_lo, log_hi)))
            product = pool.r1 ** (1.0 - w) * (pool.r2 + shift) ** w
            worst_cp = max(worst_cp, abs(product - level) / level)
        record("constant product recovered", worst_cp, 1e-9)

    return results
