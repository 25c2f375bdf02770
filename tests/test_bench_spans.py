"""The benchmark's tracer finds cfmmrep's layers by attribute name.

bench/spans.py replaces the module attributes and class methods listed by
its patch_table() with timing wrappers, and its route functions read
profile attributes to tell the routes apart.  These tests keep those names
alive, so a rename or deletion in the package fails here rather than only
in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from cfmmrep import (
    Logarithmic,
    ReplicationProfile,
    TradingFunction,
    make_catalog_payoff,
    make_piecewise_payoff,
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
    numeric = ReplicationProfile(exact.payoff, use_closed_forms=False)
    profiles = (closed, exact, numeric)
    assert [spans._route_g(p, 1.5) for p in profiles] == ["closed", "exact", "quadrature"]
    assert ([spans._route_g_inverse(p, 0.1) for p in profiles]
            == ["closed", "closed", "bisection"])
    assert ([spans._route_psi(TradingFunction(p), 0.0, 0.1) for p in profiles]
            == ["closed", "numeric", "numeric"])
