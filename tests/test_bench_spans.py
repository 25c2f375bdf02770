"""The benchmark's tracer finds cfmmrep's layers by attribute name.

bench/spans.py replaces the module attributes and class methods listed by
its patch_table() with timing wrappers, and its route functions read
profile attributes to tell the routes apart.  These tests keep those names
alive, so a rename or deletion in the package fails here rather than only
in a traced benchmark run.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from cfmmrep import (
    Logarithmic,
    NumericProfile,
    ReplicationProfile,
    TradingFunction,
    make_catalog_payoff,
    make_piecewise_payoff,
    portfolio_value,
    trading_function_infimum,
)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_exist(spans):
    table = spans.patch_table()
    assert table
    for owner, attr, layer, _, _ in table:
        assert attr in vars(owner), f"{layer}: {owner.__name__}.{attr} is gone"


def test_route_functions_read_live_attributes(spans):
    closed = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
    exact = ReplicationProfile(make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)]))
    numeric = NumericProfile(exact.payoff)
    profiles = (closed, exact, numeric)
    assert [spans._route_g(p, 1.5) for p in profiles] == ["closed", "exact", "quadrature"]
    assert ([spans._route_g_inverse(p, 0.1) for p in profiles]
            == ["closed", "closed", "bisection"])
    # psi has one route, the construction r1 + p* r2 - V(p*), for every payoff.
    assert ([spans._route_psi(TradingFunction(p), 0.0, 0.1) for p in profiles]
            == ["numeric", "numeric", "numeric"])


# The tracer counts g evaluations by patching ReplicationProfile.g; a speedup
# that computes g without going through self.g would hide them from it.

TABLE = ([(0.5, 0.1), (1.0, 0.3), (2.0, 0.5), (4.0, 1.5)], [(1.0, 0.2), (2.0, 0.25)])


@pytest.fixture
def g_calls(monkeypatch):
    # NumericProfile overrides g, so its calls are counted on its own method.
    calls = []

    def counting(g):
        def count(self, p):
            calls.append(p)
            return g(self, p)
        return count

    for cls in (ReplicationProfile, NumericProfile):
        monkeypatch.setattr(cls, "g", counting(cls.g))
    return calls


def test_every_route_evaluates_g_through_the_method(g_calls):
    # A price list on the table goes through its list kernel, not the
    # method, with the method's bits; every single price goes through g.
    closed = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
    exact = ReplicationProfile(make_piecewise_payoff(*TABLE))
    numeric = NumericProfile(exact.payoff)
    prices = [0.5, 0.75, 1.0, 1.5, 2.0, 3.9, 4.0]
    for profile in (closed, exact, numeric):
        g_calls.clear()
        for p in prices:
            profile.portfolio_value(p)
            portfolio_value(profile, p)
        assert g_calls == [p for p in prices for _ in range(2)]
        g_calls.clear()
        got = list(map(repr, profile.portfolios(prices)[1]))  # repr round-trips a float
        assert g_calls == ([] if profile is exact else prices)
        assert got == [repr(profile.g(p)) for p in prices]


@pytest.mark.parametrize("beta,numeric,count", [(4.0, False, 2 + 2), (math.inf, False, 1 + 2 + 2),
                                                (4.0, True, 53 + 2)],
                         ids=["bounded", "unbounded", "numeric"])
def test_infimum_g_count_is_pinned(g_calls, beta, numeric, count):
    # Two g values certify the exact route's crossing, where g falls from
    # above r2 to below it between adjacent doubles, so the 53 bisection
    # steps from [0.5, 4] replay without g; then V at both ends (V at alpha
    # is the build's).  Unbounded adds one g at the top, which closes at 4.
    # NumericProfile has no exact route: its 53 steps evaluate g.  Nothing
    # is memoised: a second call costs the same.
    points, jumps = TABLE
    spec = make_piecewise_payoff(points, jumps).with_bounds(0.5, beta)
    profile = (NumericProfile if numeric else ReplicationProfile)(spec)
    tf = TradingFunction(profile)
    r1, r2 = profile.payoff.value(1.5) + 0.25, profile.g(1.5)
    for _ in range(2):
        g_calls.clear()
        trading_function_infimum(tf, r1, r2)
        assert len(g_calls) == count


def test_a_one_piece_list_takes_g_from_the_kernel(g_calls):
    # The kernels bypass the method the tracer patches: a list strictly
    # inside the one piece of a one-term g, and any list on a table, makes
    # no per-price call.  Any other list still calls g once per price.
    closed = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
    exact = ReplicationProfile(make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)]))
    table = ReplicationProfile(make_piecewise_payoff(*TABLE))
    numeric = NumericProfile(closed.payoff)
    inside = [1.5, 1.25, 1.75, 1.5]
    for profile in (closed, exact, table):
        g_calls.clear()
        assert ([x.hex() for x in profile.portfolios(inside)[1]]
                == [profile.g(p).hex() for p in inside])
        assert g_calls == inside  # from the comparison, none from portfolios
    for profile, prices in ((closed, [0.5, *inside]), (closed, [*inside, 1.0]),
                            (exact, [*inside, 2.0]), (exact, [1.0, *inside]),
                            (numeric, inside)):
        g_calls.clear()
        profile.portfolios(prices)
        assert g_calls == prices
