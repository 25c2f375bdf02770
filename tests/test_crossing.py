"""replication.crossing certifies the exact route's crossing, then replays
the bisection.

The exact g_inverse proposes the price x where g falls below r2; crossing
checks g(x) >= r2 > g(next double) through profile.g and then runs the
bisection with mid <= x in place of g(mid) >= r2.  These tests hold it, bit
for bit, to a copy of the bisection that evaluates g at every step, under
true and wrong proposals, and check what the replay rests on: g never rises
from one double to the next.
"""

import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import pytest

from cfmmrep import (
    CappedPower,
    CashOrNothing,
    NumericProfile,
    ReplicationProfile,
    TradingFunction,
    make_catalog_payoff,
    make_piecewise_payoff,
    trading_function_infimum,
)
from cfmmrep import checks, cli
from cfmmrep.checks import run_verification, sample_price_range
from cfmmrep.errors import CfmmRepError, NumericalError
from cfmmrep.payoffs import parse_payoff_document
from cfmmrep.replication import crossing
from test_audit_bits import FAMILIES, TABLE
from test_cli import _SWEEP

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def evaluated_crossing(profile, r2):
    """crossing without the certificate: the bisection evaluates g at every step."""
    alpha, beta = profile.interval.alpha, profile.interval.beta
    bps, g = profile.payoff.breakpoints, profile.g
    if profile.interval.bounded:
        top = beta
    else:
        top = max(alpha, max(bps, default=0.0), 1.0)
        while g(top) >= r2:
            if top > sys.float_info.max / 4:
                raise NumericalError("bracket")
            top *= 2.0
    lo = alpha if alpha > 0.0 else min(top * 1e-9, min(bps, default=top) * 1e-3)
    while alpha == 0.0 and r2 > 0.0 and lo > sys.float_info.min and g(lo) < r2:
        lo = max(lo * 1e-3, sys.float_info.min)

    a, b = lo, top
    mid = math.sqrt(a) * math.sqrt(b)
    while a < mid < b:
        if g(mid) >= r2:
            a = mid
        else:
            b = mid
        mid = math.sqrt(a) * math.sqrt(b)
    return a, b


def evaluated_infimum(profile, r1, r2):
    """trading_function_infimum on the evaluated bisection, V read at all three prices."""
    if r2 == 0.0 and not profile.interval.bounded:
        return r1 - profile.payoff.limit_at_infinity()
    a, b = evaluated_crossing(profile, r2)

    def objective(p):
        return r1 + (0.0 if p == 0.0 else p * r2) - profile.portfolio_value(p)

    return min(objective(profile.interval.alpha), objective(a), objective(b))


def _outcome(call):
    """The hex of each float a call returns, or the name of the error it raises."""
    try:
        got = call()
    except CfmmRepError as err:
        return type(err).__name__
    return tuple(x.hex() for x in got) if isinstance(got, tuple) else got.hex()


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _reserves(profile, rng, count):
    """Seeded r2 in [0, g(alpha)]: g at log-uniform prices and a fraction of
    it, g just right of each breakpoint, and the edges g(alpha) and 0."""
    lo, hi = sample_price_range(profile)
    alpha, beta = profile.interval.alpha, profile.interval.beta
    prices = [_log_uniform(rng, lo, hi) for _ in range(count)]
    prices += [math.nextafter(q, math.inf) for q in profile.payoff.breakpoints if alpha <= q < beta]
    r2s = [profile.g(p) for p in prices]
    r2s += [r * rng.uniform(0.0, 1.0) for r in r2s[:count]] + [profile.g_alpha]
    if profile.interval.bounded:
        r2s.append(0.0)
    return [r for r in r2s if 0.0 <= r < math.inf and (r > 0.0 or profile.interval.bounded)]


def _family_profiles():
    """Every family on its natural interval and on three cuts, and the table."""
    cases = []
    for params in FAMILIES:
        spec = make_catalog_payoff(params)
        for bounds in (None, (0.2, 1.8), (0.0, 2.0), (1e-12, 10.0)):
            cases.append((f"{params!r} on {bounds}", ReplicationProfile(
                spec if bounds is None else spec.with_bounds(*bounds))))
    cases.append(("table", ReplicationProfile(make_piecewise_payoff(*TABLE))))
    return cases


def _sweep_profiles():
    """The check-infimum sweep's extreme parameter sets that build."""
    cases = []
    for name, params in _SWEEP:
        doc = {"catalog": name, **{k: float(v) for k, v in
                                   (item.split("=") for item in params.split())}}
        try:
            cases.append((f"{name} {params}", ReplicationProfile(parse_payoff_document(doc))))
        except CfmmRepError:  # f itself passes the float range
            continue
    return cases


def _assert_same_bits(cases, count):
    calls = 0
    for label, profile in cases:
        for r2 in _reserves(profile, random.Random(label), count):
            want = _outcome(lambda: evaluated_crossing(profile, r2))
            assert _outcome(lambda: crossing(profile, r2)) == want, (label, r2.hex())
            calls += 1
    return calls


def test_crossing_has_the_evaluated_bisections_bits():
    assert _assert_same_bits(_family_profiles(), 48) > 2000


def test_crossing_has_the_evaluated_bisections_bits_at_extreme_parameters():
    cases = _sweep_profiles()
    assert len(cases) == len(_SWEEP) - 5  # capped_power up to p1 = 1e300 at a = 2.5
    assert _assert_same_bits(cases, 24) > 2000


def test_numeric_table_crossing_has_the_evaluated_bisections_bits():
    profile = NumericProfile(make_piecewise_payoff(*TABLE))
    assert _assert_same_bits([("numeric table", profile)], 1) >= 4


WRONG = {
    "1 ulp": lambda x: math.nextafter(x, math.inf),
    "1000 ulps": lambda x: x + 1000.0 * math.ulp(x),
    "factor 1 + 1e-3": lambda x: x * (1.0 + 1e-3),
    "0": lambda x: 0.0,
    "inf": lambda x: math.inf,
    "nan": lambda x: math.nan,
    "raises": lambda x: 1.0 / 0.0,
}


@pytest.mark.parametrize("wrong", WRONG.values(), ids=WRONG.keys())
def test_a_wrong_proposal_changes_no_bit(wrong):
    for label, profile in _family_profiles():
        true = profile.g_inverse_closed_form
        profile.g_inverse_closed_form = lambda r2: wrong(true(r2))
        tf = TradingFunction(profile)
        rng = random.Random(label)
        for r2 in _reserves(profile, rng, 4):
            assert (_outcome(lambda: crossing(profile, r2))
                    == _outcome(lambda: evaluated_crossing(profile, r2))), (label, r2.hex())
            r1 = rng.uniform(0.0, 2.0)
            assert (_outcome(lambda: trading_function_infimum(tf, r1, r2))
                    == _outcome(lambda: evaluated_infimum(profile, r1, r2))), (label, r2.hex())


@pytest.mark.parametrize("params", [CappedPower(1.0, 4.0, 2.0), CashOrNothing(2.0)],
                         ids=["capped_power", "cash_or_nothing"])
def test_a_wrong_g_inverse_still_fails_verify(params):
    # psi reads the wrong g_inverse; the oracle only takes it as a proposal.
    name = "trading function matches infimum oracle"
    profile = ReplicationProfile(make_catalog_payoff(params))
    assert all(r.passed for r in run_verification(profile) if r.name == name)
    true = profile.g_inverse_closed_form
    profile.g_inverse_closed_form = lambda r2: true(r2) * (1.0 + 1e-3)
    assert [r.passed for r in run_verification(profile) if r.name == name] == [False]


def test_g_never_rises_between_adjacent_doubles():
    for label, profile in _family_profiles():
        alpha, beta = profile.interval.alpha, profile.interval.beta
        rng = random.Random(label)
        lo, hi = sample_price_range(profile)
        starts = [_log_uniform(rng, lo, hi) for _ in range(40)]
        starts += [q for q in profile.payoff.breakpoints if alpha <= q <= beta]
        for start in starts:
            p = start
            for _ in range(40):
                p = max(math.nextafter(p, -math.inf), alpha)
            values = []
            for _ in range(81):
                values.append((p, profile.g(p)))
                if p >= beta:
                    break
                p = math.nextafter(p, math.inf)
            for (p, gp), (q, gq) in zip(values, values[1:]):
                assert gq <= gp, (label, p.hex(), q.hex())


def test_the_oracle_makes_few_g_calls_on_the_audit_payoffs(monkeypatch, capsys, tmp_path):
    # The audit_catalog benchmark's seven payoffs at seed 1, run as it runs
    # them: verify and trading-function --check-infimum, through cli.main.
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    rng = random.Random("audit_catalog:1")
    docs = workloads.catalog_documents(rng) + [workloads.piecewise_document(rng)]
    seed = str(rng.randrange(2**31))

    counts, inside = {"oracle": 0, "g": 0}, []
    g = ReplicationProfile.g

    def counting_g(self, p):
        counts["g"] += bool(inside)
        return g(self, p)

    def counting_oracle(tf, r1, r2):
        counts["oracle"] += 1
        inside.append(True)
        try:
            return trading_function_infimum(tf, r1, r2)
        finally:
            inside.pop()

    monkeypatch.setattr(ReplicationProfile, "g", counting_g)
    for module in (checks, cli):
        monkeypatch.setattr(module, "trading_function_infimum", counting_oracle)
    for i, doc in enumerate(docs):
        path = tmp_path / f"payoff{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["verify", "--payoff", str(path), "--seed", seed]) == 0
        assert cli.main(["trading-function", "--payoff", str(path), "--check-infimum"]) == 0
    capsys.readouterr()
    assert counts["oracle"] > 500
    assert counts["g"] / counts["oracle"] <= 8.0
