"""Payoff catalog, piecewise tables, parsing, and payoff invariants."""

import dataclasses
import json
import math
import random
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfmmrep import (
    BlackScholesBinary,
    BreakpointDerivativeError,
    CappedCall,
    CappedPower,
    CashOrNothing,
    ConstantProportion,
    DomainError,
    InfiniteReplicationCostError,
    InvalidParameterError,
    Logarithmic,
    MonotonicityError,
    NumericProfile,
    NumericalError,
    PayoffParseError,
    PayoffSpec,
    PriceInterval,
    ReplicationProfile,
    TradingFunction,
    eval_payoff,
    eval_payoff_derivative,
    make_catalog_payoff,
    make_piecewise_payoff,
    parse_payoff_file,
    payoff_breakpoints,
    serialize_payoff,
    trading_function_eval,
)
from cfmmrep.payoffs import (
    ConstantForm,
    LinearForm,
    LogForm,
    NormalCdfForm,
    PowerForm,
    Segment,
    SegmentForm,
    piecewise_exact_forms,
)
from test_exact_routes import assert_psi_is_the_construction, family_psi

E = math.e


def catalog_suite():
    """One canonical instance per family, with a sensible sampling range."""
    return [
        (make_catalog_payoff(CashOrNothing(2.0)), 0.1, 50.0),
        (make_catalog_payoff(CappedCall(1.0, E)), 0.05, E),
        (make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0)), 0.05, 20.0),
        (make_catalog_payoff(Logarithmic(1.0)), 0.05, 100.0),
        (make_catalog_payoff(CappedPower(1.0, 4.0, 2.0)), 0.1, 4.0),
        (make_catalog_payoff(ConstantProportion(0.5, 1.0)), 0.02, 100.0),
    ]


class TestCatalogValues:
    def test_cash_or_nothing(self):
        spec = make_catalog_payoff(CashOrNothing(2.0))
        assert eval_payoff(spec, 1.0) == 0.0
        assert eval_payoff(spec, 3.0) == 1.0
        # Lower value exactly at the jump.
        assert eval_payoff(spec, 2.0) == 0.0

    def test_capped_call(self):
        spec = make_catalog_payoff(CappedCall(1.0, E))
        assert eval_payoff(spec, 1.5) == pytest.approx(0.5)
        assert eval_payoff(spec, 0.3) == 0.0
        assert eval_payoff(spec, E) == pytest.approx(E - 1.0)

    def test_constant_proportion(self):
        spec = make_catalog_payoff(ConstantProportion(0.5, 1.0))
        assert eval_payoff(spec, 4.0) == pytest.approx(2.0)

    def test_logarithmic(self):
        spec = make_catalog_payoff(Logarithmic(1.0))
        assert eval_payoff(spec, 1.0) == 0.0
        assert eval_payoff(spec, E**2) == pytest.approx(2.0)
        assert eval_payoff(spec, 0.5) == 0.0

    def test_black_scholes_shape(self):
        spec = make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0))
        assert eval_payoff(spec, 0.0) == 0.0
        assert 0.0 < eval_payoff(spec, 1.0) < 1.0
        assert eval_payoff(spec, 50.0) > 0.999

    def test_capped_power(self):
        spec = make_catalog_payoff(CappedPower(1.0, 4.0, 2.0))
        assert eval_payoff(spec, 2.0) == pytest.approx(3.0)
        assert eval_payoff(spec, 4.0) == pytest.approx(15.0)
        assert eval_payoff(spec, 0.5) == 0.0


def test_breakpoints_derived_once_and_outside_equality():
    spec = make_catalog_payoff(CappedCall(1.0, 4.0))
    assert spec.breakpoints == (1.0, 4.0)
    assert "breakpoints" not in repr(spec)
    assert spec == make_catalog_payoff(CappedCall(1.0, 4.0))
    cut = spec.with_bounds(0.0, 2.0)
    assert cut.breakpoints == (1.0, 4.0) and cut != spec


def test_overflowing_catalog_parameters_are_named():
    # p1**a overflows while the capped segment's top value is built.
    with pytest.raises(NumericalError, match=r"CappedPower\(p0=0.0, p1=1e\+300, a=1e\+300\)"):
        make_catalog_payoff(CappedPower(0.0, 1e300, 1e300))


class TestDerivative:
    def test_capped_call_slope(self):
        spec = make_catalog_payoff(CappedCall(1.0, E))
        assert eval_payoff_derivative(spec, 2.0) == 1.0

    def test_capped_power_slope(self):
        spec = make_catalog_payoff(CappedPower(1.0, 4.0, 2.0))
        assert eval_payoff_derivative(spec, 2.0) == pytest.approx(4.0)

    def test_logarithmic_slope(self):
        spec = make_catalog_payoff(Logarithmic(1.0))
        assert eval_payoff_derivative(spec, 2.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("form, slope", [
        (PowerForm(1.0, 0.5), math.inf), (PowerForm(1.0, 2.0), 0.0),
        (NormalCdfForm(1.0, 0.2, 1.0), 0.0)])
    def test_form_slope_at_zero(self, form, slope):
        assert form.slope(0.0) == slope

    def test_binary_slope_at_the_least_subnormal_price(self):
        # p * vol underflows to 0 there, and so does the density: f' is 0,
        # and the numeric oracle's g, which integrates f'(q)/q, is finite.
        spec = make_catalog_payoff(BlackScholesBinary(1.0, 0.2, 1.0))
        assert eval_payoff_derivative(spec, 5e-324) == 0.0
        assert NumericProfile(spec).g(5e-324) == pytest.approx(1.0, rel=1e-9)

    def test_breakpoint_rejected(self):
        spec = make_catalog_payoff(CappedCall(1.0, E))
        with pytest.raises(BreakpointDerivativeError):
            eval_payoff_derivative(spec, 1.0)
        # Jump locations are breakpoints too.
        step = make_catalog_payoff(CashOrNothing(2.0))
        with pytest.raises(BreakpointDerivativeError):
            eval_payoff_derivative(step, 2.0)

    def test_central_difference_consistency(self):
        """f'(p) must match (f(p+h) - f(p-h)) / 2h away from breakpoints."""
        rng = random.Random(11)
        h = 1e-5
        for spec, lo, hi in catalog_suite():
            bps = payoff_breakpoints(spec)
            checked = 0
            while checked < 50:
                p = math.exp(rng.uniform(math.log(lo), math.log(hi * 0.999)))
                if any(abs(p - b) < 10 * h for b in bps):
                    continue
                checked += 1
                diff = (spec.value(p + h) - spec.value(p - h)) / (2 * h)
                deriv = eval_payoff_derivative(spec, p)
                assert diff == pytest.approx(deriv, rel=1e-6, abs=1e-9), (
                    f"{spec.catalog} at p={p}")


@pytest.mark.parametrize("form, limit", [
    (PowerForm(0.0, 2.0, 3.0), 3.0), (PowerForm(1.0, 0.5, 3.0), math.inf)])
def test_power_form_limit_at_infinity(form, limit):
    # A zero scale leaves the constant offset.
    assert form.limit_at_infinity() == limit


class TestBreakpoints:
    def test_capped_call(self):
        spec = make_catalog_payoff(CappedCall(1.0, E))
        assert payoff_breakpoints(spec) == [1.0, E]

    def test_cash_or_nothing(self):
        assert payoff_breakpoints(make_catalog_payoff(CashOrNothing(2.0))) == [2.0]

    def test_smooth_families_have_none(self):
        assert payoff_breakpoints(make_catalog_payoff(
            BlackScholesBinary(1.0, 0.2, 1.0))) == []
        assert payoff_breakpoints(make_catalog_payoff(
            ConstantProportion(0.5, 1.0))) == []


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            CashOrNothing(0.0)
        with pytest.raises(InvalidParameterError):
            CappedCall(2.0, 1.0)
        with pytest.raises(InvalidParameterError):
            BlackScholesBinary(1.0, -0.1, 1.0)
        with pytest.raises(InvalidParameterError):
            BlackScholesBinary(1.0, 0.2, 0.0)
        with pytest.raises(InvalidParameterError):
            Logarithmic(-1.0)
        with pytest.raises(InvalidParameterError):
            CappedPower(1.0, 4.0, 0.0)
        with pytest.raises(InvalidParameterError):
            ConstantProportion(1.0, 1.0)

    def test_infinite_cost_configurations(self):
        with pytest.raises(InfiniteReplicationCostError):
            ReplicationProfile(make_catalog_payoff(CappedPower(1.0, math.inf, 1.0)))
        with pytest.raises(InfiniteReplicationCostError):
            ReplicationProfile(make_catalog_payoff(CappedPower(1.0, math.inf, 2.0)))
        # Bounding the interval makes the same payoff replicable.
        spec = make_catalog_payoff(CappedPower(1.0, math.inf, 1.0)).with_bounds(0.0, 100.0)
        assert eval_payoff(spec, 50.0) == pytest.approx(49.0)
        # The unbounded payoff itself builds, for analysis.
        spec = make_catalog_payoff(CappedPower(1.0, math.inf, 1.0))
        assert spec.tail_growth_exponent() == 1.0

    def test_interval_validation(self):
        with pytest.raises(InvalidParameterError):
            PriceInterval(-1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            PriceInterval(3.0, 2.0)

    def test_interval_check(self):
        interval = PriceInterval(1.0, 2.0)
        interval.check(1.0)
        interval.check(2.0)
        for p in (0.5, 2.5, math.nan):
            with pytest.raises(DomainError,
                               match=r"price .* outside replication interval \[1.0, 2.0\]"):
                interval.check(p)

    def test_segments_must_be_contiguous(self):
        # f is undefined on the gap (1, 2); the exact route read g(1.5) as
        # 1.5041 where the true value is log(9 / 1.5) = 1.7918.
        segments = (Segment(0.0, 1.0, ConstantForm(0.0)),
                    Segment(2.0, math.inf, LinearForm(1.0, 0.0, 1.0)))
        with pytest.raises(InvalidParameterError, match="contiguous"):
            PayoffSpec(segments, (), PriceInterval(0.0, 9.0))

    def test_segments_need_positive_width(self):
        # A zero-width first segment made 0 a breakpoint; building its
        # profile raised a bare ZeroDivisionError.
        segments = (Segment(0.0, 0.0, ConstantForm(0.0)),
                    Segment(0.0, math.inf, LinearForm(0.0, 0.0, 1.0)))
        with pytest.raises(InvalidParameterError, match="width"):
            PayoffSpec(segments, (), PriceInterval(0.0, 9.0))

    def test_domain_errors(self):
        spec = make_catalog_payoff(CappedCall(1.0, E))
        with pytest.raises(DomainError):
            eval_payoff(spec, -0.5)
        with pytest.raises(DomainError):
            eval_payoff(spec, E + 0.1)  # beyond beta = p1
        with pytest.raises(DomainError):
            eval_payoff_derivative(spec, 0.0)


class TestPiecewise:
    def test_linear_interpolation_and_jumps(self):
        spec = make_piecewise_payoff([(1.0, 0.0), (2.0, 0.5), (4.0, 1.5)],
                                     jumps=[(2.0, 0.25)]).with_bounds(1.0, math.inf)
        assert spec.value(1.5) == pytest.approx(0.25)
        assert spec.value(2.0) == pytest.approx(0.5)   # lower value at the jump
        assert spec.value(2.0 + 1e-12) == pytest.approx(0.75)
        assert spec.value(3.0) == pytest.approx(0.75 + 0.375)
        assert spec.value(10.0) == pytest.approx(1.5)  # constant extension

    def test_monotonicity_enforced(self):
        with pytest.raises(MonotonicityError):
            make_piecewise_payoff([(1.0, 1.0), (2.0, 0.5)])
        # A jump that overshoots the next point value also decreases.
        with pytest.raises(MonotonicityError):
            make_piecewise_payoff([(1.0, 0.0), (2.0, 0.5)], jumps=[(1.0, 0.9)])

    def test_default_interval_is_table_range(self):
        spec = make_piecewise_payoff([(1.0, 0.0), (3.0, 2.0)])
        assert spec.interval == PriceInterval(1.0, 3.0)
        assert make_piecewise_payoff([(2.0, 1.0)]).interval == PriceInterval(2.0, math.inf)

    def test_a_zero_jump_at_a_table_price_is_dropped(self):
        spec = make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0), (3.0, 2.0)],
                                     jumps=[(1.0, 0.0), (2.0, 0.5)])
        assert spec.jumps == ((2.0, 0.5),)

    def test_jump_must_be_a_table_price(self):
        with pytest.raises(InvalidParameterError):
            make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)], jumps=[(1.5, 0.1)])
        with pytest.raises(InvalidParameterError, match="jump location 1.5"):
            make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)], jumps=[(1.5, 0.0)])

    @pytest.mark.parametrize("interval", [None, PriceInterval(1.5, 1.8), PriceInterval(0.0, 1.0)])
    def test_a_jump_outside_the_interval_keeps_its_step(self, interval):
        # A jump at the table's last price, at or above beta on [1, 2] (the
        # default), [1.5, 1.8] and [0, 1]: this used to raise.
        spec = make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)], [(2.0, 0.5)])
        spec = spec if interval is None else spec.with_bounds(interval.alpha, interval.beta)
        assert spec.jumps == ((2.0, 0.5),)
        assert (spec.value(2.0), spec.value(3.0)) == (1.0, 1.5)


class TestWithBounds:
    @pytest.fixture
    def spec(self):
        return make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)], [(2.0, 0.5)])

    def test_no_bound_is_the_same_spec(self, spec):
        assert spec.with_bounds() is spec
        assert spec.with_bounds(None, None) is spec

    @pytest.mark.parametrize("alpha, beta, interval", [
        (0.5, None, PriceInterval(0.5, 2.0)), (None, math.inf, PriceInterval(1.0, math.inf)),
        (0.0, 1.5, PriceInterval(0.0, 1.5))])
    def test_keeps_each_bound_not_given_and_the_payoff(self, spec, alpha, beta, interval):
        cut = spec.with_bounds(alpha, beta)
        assert cut.interval == interval
        assert (cut.segments, cut.jumps, cut.catalog) == (spec.segments, spec.jumps, None)
        assert spec.interval == PriceInterval(1.0, 2.0)

    def test_makes_no_post_init_call(self, spec, monkeypatch):
        calls = []
        check = PayoffSpec.__post_init__
        monkeypatch.setattr(PayoffSpec, "__post_init__",
                            lambda s: calls.append(s) or check(s))
        spec.with_bounds(0.5, 3.0)
        assert calls == []

    def test_keeps_the_checked_fields(self):
        spec = make_catalog_payoff(CappedCall(1.0, 4.0))
        cut = spec.with_bounds(0.0, 2.0)
        for name in ("segments", "jumps", "breakpoints", "_values", "catalog"):
            assert getattr(cut, name) is getattr(spec, name), name
        assert cut.interval == PriceInterval(0.0, 2.0)

    @pytest.mark.parametrize("alpha, beta", [(3.0, None), (None, 0.5), (math.nan, None),
                                             (None, math.nan), (-1.0, None)])
    def test_an_invalid_interval_is_rejected(self, spec, alpha, beta):
        with pytest.raises(InvalidParameterError):
            spec.with_bounds(alpha, beta)

    @pytest.mark.parametrize("doc", [
        '{"catalog":"capped_call","p0":1,"p1":4}',
        '{"catalog":"logarithmic","p0":0.5}',
        '{"piecewise":{"points":[[1,0],[2,1]],"jumps":[[2,0.5]]}}',
        '{"piecewise":{"points":[[0.5,0.1],[2,2],[4,3]],"jumps":[[2,0.25]]}}',
        '{"piecewise":{"points":[[2,1]]}}',
    ])
    @pytest.mark.parametrize("bounds", [{"alpha": 1.5}, {"beta": 2}, {"beta": "inf"},
                                        {"alpha": 1.5, "beta": 3}])
    def test_document_bounds_are_with_bounds(self, doc, bounds):
        # A document's bounds go over the payoff on its own default interval:
        # the one-point table with only alpha keeps beta = inf, where it used
        # to get its one price.
        bounded = parse_payoff_file(json.dumps({**json.loads(doc), **bounds}))
        expected = parse_payoff_file(doc).with_bounds(
            *(math.inf if bounds.get(k) == "inf" else bounds.get(k) for k in ("alpha", "beta")))
        assert bounded == expected


class TestOneWriter:
    """Only make_catalog_payoff names a family and only with_bounds moves
    an interval: the builders take neither, and replace drops the family."""

    def test_no_builder_takes_an_interval_or_a_family(self):
        spec = make_catalog_payoff(CappedCall(1.0, 4.0))
        with pytest.raises(TypeError):
            PayoffSpec(spec.segments, spec.jumps, spec.interval, catalog=spec.catalog)
        with pytest.raises(TypeError):
            make_catalog_payoff(CappedCall(1.0, 4.0), interval=PriceInterval(0.0, 2.0))
        with pytest.raises(TypeError):
            make_piecewise_payoff([(1.0, 0.0), (2.0, 1.0)], interval=PriceInterval(0.0, 2.0))

    def test_replace_drops_the_family(self):
        # Kept, the family would serialize the table as the capped call.
        table = make_piecewise_payoff([(0.5, 0.1), (1.0, 0.3), (2.0, 0.5), (4.0, 1.5)],
                                      [(1.0, 0.2), (2.0, 0.25)])
        spec = dataclasses.replace(make_catalog_payoff(CappedCall(1.0, 4.0)),
                                   segments=table.segments, jumps=table.jumps)
        assert spec.catalog is None
        assert json.loads(serialize_payoff(spec)).keys() == {"piecewise", "alpha", "beta"}
        profile = ReplicationProfile(spec)
        tf = TradingFunction(profile)
        for p in (0.7, 1.5, 3.0):
            assert abs(trading_function_eval(tf, spec.value(p), profile.g(p))) <= 1e-12, p


class TestParsing:
    def test_catalog_document(self):
        spec = parse_payoff_file('{"catalog":"capped_call","p0":1.0,"p1":2.0}')
        assert spec.catalog == CappedCall(1.0, 2.0)
        assert spec.interval == PriceInterval(0.0, 2.0)

    def test_interval_override(self):
        spec = parse_payoff_file(
            '{"catalog":"logarithmic","p0":1.0,"alpha":0.5,"beta":"inf"}')
        assert spec.interval == PriceInterval(0.5, math.inf)

    def test_bs_strike_alias(self):
        spec = parse_payoff_file(
            '{"catalog":"black_scholes_binary","K":1.0,"sigma":0.2,"tau":1.0}')
        assert spec.catalog == BlackScholesBinary(1.0, 0.2, 1.0)

    def test_decreasing_table_rejected(self):
        doc = '{"piecewise":{"points":[[1,1],[2,0.5]]}}'
        with pytest.raises(MonotonicityError):
            parse_payoff_file(doc)

    def test_infinite_cost_rejected(self):
        doc = '{"catalog":"capped_power","a":2.0,"p0":1.0,"p1":"inf"}'
        with pytest.raises(InfiniteReplicationCostError):
            ReplicationProfile(parse_payoff_file(doc))

    def test_syntax_error_carries_line(self):
        with pytest.raises(PayoffParseError) as err:
            parse_payoff_file('{"catalog":\n "capped_call",\n oops}')
        assert err.value.line == 3

    def test_unknown_catalog_and_parameter(self):
        with pytest.raises(PayoffParseError):
            parse_payoff_file('{"catalog":"mystery","p0":1.0}')
        with pytest.raises(PayoffParseError):
            parse_payoff_file('{"catalog":"capped_call","p0":1.0,"p1":2.0,"zig":3}')
        with pytest.raises(PayoffParseError):
            parse_payoff_file('{"points": []}')

    def test_missing_parameters(self):
        with pytest.raises(PayoffParseError):
            parse_payoff_file('{"catalog":"capped_call","p0":1.0}')

    def test_malformed_tables(self):
        for doc in ('{"piecewise":{"points":[[1],[2,1]]}}',
                    '{"piecewise":{"points":"oops"}}',
                    '{"piecewise":{"points":[[1,0]],"jumps":[[1]]}}',
                    '{"piecewise":{"points":[[1,0],[2,null]]}}',
                    '{"catalog":"capped_call","p0":true,"p1":2.0}'):
            with pytest.raises(PayoffParseError):
                parse_payoff_file(doc)


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [
        '{"catalog":"capped_call","p0":1.0,"p1":2.0}',
        '{"catalog":"cash_or_nothing","p0":2.0}',
        '{"catalog":"black_scholes_binary","K":1.5,"sigma":0.3,"tau":0.5}',
        '{"catalog":"logarithmic","p0":0.25,"beta":"inf"}',
        '{"catalog":"capped_power","p0":1.0,"p1":4.0,"a":2.0}',
        '{"catalog":"constant_proportion","w":0.5,"C":1.0}',
        '{"piecewise":{"points":[[1,0],[2,0.5],[4,1.5]],"jumps":[[2,0.25]]},"beta":"inf"}',
        '{"piecewise":{"points":[[0.5,0.1],[2,2]]}}',
        '{"piecewise":{"points":[[1,0],[2,1]],"jumps":[[2,0.5]]}}',
    ])
    def test_parse_serialize_parse(self, doc):
        first = parse_payoff_file(doc)
        second = parse_payoff_file(serialize_payoff(first))
        assert second.catalog == first.catalog
        assert second.interval == first.interval
        assert second.jumps == first.jumps
        assert second.segments == first.segments

    def test_serialized_form_is_json(self):
        spec = make_catalog_payoff(CappedCall(1.0, 2.0))
        doc = json.loads(serialize_payoff(spec))
        assert doc["catalog"] == "capped_call"
        assert doc["beta"] == 2.0


class TestMonotoneInvariant:
    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["cash", "call", "bs", "log", "power", "cp"]),
        u=st.floats(0.001, 0.999),
        v=st.floats(0.001, 0.999),
    )
    def test_random_pairs_ordered(self, family, u, v):
        spec, lo, hi = {
            "cash": catalog_suite()[0],
            "call": catalog_suite()[1],
            "bs": catalog_suite()[2],
            "log": catalog_suite()[3],
            "power": catalog_suite()[4],
            "cp": catalog_suite()[5],
        }[family]
        p = lo * (hi / lo) ** u
        q = lo * (hi / lo) ** v
        p, q = min(p, q), max(p, q)
        fp, fq = eval_payoff(spec, p), eval_payoff(spec, q)
        assert fp <= fq + 1e-12
        assert fp >= 0.0


def test_monotonicity_thousand_pairs_per_family():
    rng = random.Random(5)
    for spec, lo, hi in catalog_suite():
        for _ in range(1000):
            p = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            q = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            p, q = min(p, q), max(p, q)
            assert spec.value(p) <= spec.value(q) + 1e-12
            assert spec.value(p) >= 0.0


# ---------------------------------------------------------------------------
# List kernels
# ---------------------------------------------------------------------------

def kernel_cases():
    """(form, segment edges) for every segment of the catalog suite and of a
    table with jumps, plus hand-built forms with other parameters."""
    table = make_piecewise_payoff([(0.5, 0.1), (1.0, 0.3), (2.0, 0.5), (4.0, 1.5)],
                                  [(1.0, 0.2), (2.0, 0.25)])
    specs = [spec for spec, _, _ in catalog_suite()] + [table]
    cases = [(seg.form, (seg.lo, seg.hi)) for spec in specs for seg in spec.segments]
    cases += [(form, ()) for form in (
        LinearForm(1.0, 0.3, 0.25), PowerForm(2.0, 0.5, -1.0), PowerForm(0.5, 3.0),
        PowerForm(1.0, -0.5), LogForm(1e-6), NormalCdfForm(3.0, 1.5, 0.5))]
    return cases


KERNEL_CASES = kernel_cases()


def test_kernel_cases_cover_every_form():
    assert {type(form) for form, _ in KERNEL_CASES} == set(get_args(SegmentForm))


def outcome(fn, p):
    """The bits of fn(p), or the type of error it raises."""
    try:
        return fn(p).hex()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("seed", range(len(KERNEL_CASES)),
                         ids=[type(form).__name__ for form, _ in KERNEL_CASES])
def test_kernel_matches_scalar_form_bit_for_bit(seed):
    form, edges = KERNEL_CASES[seed]
    rng = random.Random(seed)
    prices = [0.0, 1e-300, 1e300] + [e for e in edges if math.isfinite(e)]
    prices += [10.0 ** rng.uniform(-6.0, 6.0) for _ in range(20)]
    if isinstance(form, NormalCdfForm):
        prices += [-0.0, -1.0, -1e300]
    rng.shuffle(prices)
    assert form.values([]) == []
    scalar = [outcome(form.value, p) for p in prices]
    assert [outcome(lambda p: form.values([p])[0], p) for p in prices] == scalar
    # A whole list gives the same bits as one price at a time.
    ok = [(p, bits) for p, bits in zip(prices, scalar) if isinstance(bits, str)]
    assert len(ok) >= 20
    assert [v.hex() for v in form.values([p for p, _ in ok])] == [bits for _, bits in ok]


# Every family with its degenerate configurations: strike 0, p0 == p1,
# C = 0, the step binary, and linear or sublinear tails without a cap.
PSI_CASES = [
    CashOrNothing(0.5), CashOrNothing(2.0),
    CappedCall(1.0, 4.0), CappedCall(2.0, 2.0), CappedCall(1.0, math.inf),
    BlackScholesBinary(1.0, 0.2, 1.0), BlackScholesBinary(0.0, 0.2, 1.0),
    BlackScholesBinary(1.5, 0.0, 1.0),
    Logarithmic(1.0), Logarithmic(0.25),
    CappedPower(1.0, 4.0, 2.0), CappedPower(0.0, 4.0, 2.0), CappedPower(0.0, 4.0, 1.0),
    CappedPower(2.0, 2.0, 2.0), CappedPower(1.0, math.inf, 0.5),
    CappedPower(0.0, math.inf, 0.5), CappedPower(1.0, math.inf, 2.0),
    ConstantProportion(0.5, 1.0), ConstantProportion(0.3, 0.0),
]


def psi_specs():
    """Each case on its natural interval and on [a, b] cuts, a in {0, 0.5},
    b across and beyond the family's breakpoints."""
    for params in PSI_CASES:
        whole = make_catalog_payoff(params).with_bounds(0.0, math.inf)
        marks = set(whole.breakpoints) | {1.0, getattr(params, "p1", 1.0)}
        betas = {m * s for m in marks if math.isfinite(m) for s in (0.5, 1.0, 1.5, 3.0)}
        yield make_catalog_payoff(params)
        for a in (0.0, 0.5):
            for b in sorted(betas | {100.0, math.inf}):
                if b > a:
                    yield make_catalog_payoff(params).with_bounds(a, b)


def test_psi_is_the_family_formula_where_the_uncut_cost_rises_and_stops():
    # The family's own psi holds unless the uncut g is 0 at price 0 (nothing
    # rises) or still positive at beta (the cut stops short).  There psi, the
    # construction r1 + p* r2 - V(p*), matches it.
    count, held = 0, 0
    for spec in psi_specs():
        count += 1
        uncut = piecewise_exact_forms(spec.with_bounds(0.0, math.inf)).g
        if uncut(0.0) == 0.0 or uncut(spec.interval.beta) != 0.0 or spec.cost_diverges():
            continue
        held += 1
        profile = ReplicationProfile(spec)
        lo, hi = max(spec.interval.alpha, 1e-2), min(spec.interval.beta, 100.0)
        reserves = [profile.g(lo * (hi / lo) ** (k / 8)) for k in range(9)]
        if math.isfinite(profile.g_alpha):
            reserves += [profile.g_alpha * t for t in (1e-6, 0.5, 1.0)]
        for k, r2 in enumerate(reserves):
            if r2 > 0.0:
                assert_psi_is_the_construction(profile, family_psi(spec.catalog), 0.1 * k, r2)
    assert count > 200 and held > 90
