"""Checks on input from outside the program, and the float-range edges of
the closed forms: each case names the input and the error it must raise."""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from cfmmrep import (
    BlackScholesBinary,
    CappedCall,
    ConstantProportion,
    DomainError,
    GbmParams,
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
    g_inverse,
    make_catalog_payoff,
    make_piecewise_payoff,
    parse_payoff_file,
    portfolio_value_integral,
    serialize_payoff,
    trading_function_eval,
)
from cfmmrep.checks import run_verification, sample_price_range
from cfmmrep.cli import main
from cfmmrep.payoffs import (ConstantForm, LinearForm, LogForm, NormalCdfForm, PowerForm, Segment,
                             family)
from cfmmrep.quadrature import adaptive_simpson, integrate_from_zero

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliInput:
    @pytest.mark.parametrize("argv, message", [
        (["--payoff", "catalog:logarithmic", "--param", "p0=abc"],
         "expected a number or 'inf'"),
        (["--payoff", "catalog:logarithmic", "--param", "alpha=1"],
         "is not a catalog parameter"),
        (["--payoff", str(GOLDEN / "piecewise.json"), "--param", "p0=1"],
         "only applies to catalog payoffs"),
    ])
    def test_bad_param_is_a_usage_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "replicate", *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_interval_override_on_a_table_file(self, capsys, tmp_path):
        table = GOLDEN / "piecewise.json"
        doc = json.loads(table.read_text())
        doc.update(alpha=0.75, beta=4)
        bounded = tmp_path / "bounded.json"
        bounded.write_text(json.dumps(doc))
        code, by_flags, _ = run_cli(capsys, "replicate", "--grid", "7", "--alpha", "0.75",
                                    "--beta", "4", "--payoff", str(table))
        assert code == 0
        code, by_file, _ = run_cli(capsys, "replicate", "--grid", "7",
                                   "--payoff", str(bounded))
        assert code == 0
        assert by_flags == by_file
        # The last row prices at beta itself, not at exp(log(4)) = 4.0000000000000009.
        assert by_flags.splitlines()[-1] == "4,1.375,0,1.375"
        assert hashlib.sha256(by_flags.encode()).hexdigest().startswith("4e417c51")

    def test_step_count_past_the_float_range_is_typed(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--payoff", "catalog:logarithmic", "--param", "p0=1e-6",
            "--paths", "2", "--steps", "1" + "0" * 400)
        assert code == 1
        assert out == ""
        assert err == "error: steps must be at most the largest float\n"


class TestLognormalBinaryVolatility:
    def test_underflowing_volatility_is_the_step(self, capsys):
        # sigma * sqrt(tau) underflows to 0 although sigma > 0.
        code, out, _ = run_cli(
            capsys, "verify", "--payoff", "catalog:black_scholes_binary",
            "--param", "K=1", "--param", "sigma=1e-200", "--param", "tau=1e-250")
        assert code == 0
        assert out.splitlines()[-1] == "12/12 checks passed"

    def test_underflowing_volatility_matches_zero_sigma(self):
        tiny = make_catalog_payoff(BlackScholesBinary(1.0, 1e-200, 1e-250))
        zero = make_catalog_payoff(BlackScholesBinary(1.0, 0.0, 1.0))
        assert tiny.segments == zero.segments and tiny.jumps == zero.jumps
        prices = [0.5, 1.0, 1.0 + 1e-12, 3.0]
        a, b = ReplicationProfile(tiny), ReplicationProfile(zero)
        assert [a.g(p) for p in prices] == [b.g(p) for p in prices]

    @pytest.mark.parametrize("sigma, tau", [
        (math.inf, 1.0), (0.2, math.inf), (0.0, math.inf), (1e300, 1e100)])
    def test_infinite_volatility_is_rejected(self, sigma, tau):
        with pytest.raises(InvalidParameterError, match="finite sigma"):
            BlackScholesBinary(1.0, sigma, tau)


class TestConstantProportionTinyReserve:
    """The price matching a reserve of a few subnormals lies past the float range."""

    @pytest.fixture
    def profile(self):
        return ReplicationProfile(make_catalog_payoff(ConstantProportion(0.5, 1.0)))

    @pytest.mark.parametrize("r2", [5e-324, 1e-320])
    def test_g_inverse_is_beta(self, profile, r2):
        assert g_inverse(profile, r2) == profile.interval.beta == math.inf

    @pytest.mark.parametrize("r2", [5e-324, 1e-320])
    def test_psi_names_the_reserve(self, profile, r2):
        with pytest.raises(NumericalError, match=repr(r2)):
            trading_function_eval(TradingFunction(profile), 1.0, r2)


class TestSerializeTables:
    def test_non_linear_segment_is_rejected(self):
        spec = PayoffSpec((Segment(0.0, 1.0, ConstantForm(0.0)),
                           Segment(1.0, math.inf, PowerForm(1.0, 0.5, -1.0))),
                          (), PriceInterval(0.0, 9.0))
        with pytest.raises(InvalidParameterError, match="PowerForm"):
            serialize_payoff(spec)

    def test_rising_linear_tail_is_rejected(self):
        spec = PayoffSpec((Segment(0.0, 1.0, ConstantForm(0.0)),
                           Segment(1.0, math.inf, LinearForm(1.0, 0.0, 1.0))),
                          (), PriceInterval(0.0, 9.0))
        with pytest.raises(InvalidParameterError, match="LinearForm"):
            serialize_payoff(spec)

    @pytest.mark.parametrize("points", [[[0, 0], [1, 1], [2, 1.5]], [[0, 2]]])
    def test_round_trip(self, points):
        first = make_piecewise_payoff(points)
        second = parse_payoff_file(serialize_payoff(first))
        assert second.segments == first.segments
        assert second.jumps == first.jumps
        assert second.interval == first.interval


class TestPayoffSpecInput:
    def test_no_segments(self):
        with pytest.raises(InvalidParameterError, match="at least one segment"):
            PayoffSpec((), (), PriceInterval())

    def test_segments_must_cover_the_half_line(self):
        with pytest.raises(InvalidParameterError, match="cover"):
            PayoffSpec((Segment(0.0, 1.0, ConstantForm(0.0)),), (), PriceInterval())

    def test_negative_jump(self):
        segs = (Segment(0.0, 1.0, ConstantForm(0.0)), Segment(1.0, math.inf, ConstantForm(1.0)))
        with pytest.raises(InvalidParameterError, match="must be >= 0"):
            PayoffSpec(segs, ((1.0, -1.0),), PriceInterval())

    def test_nan_jump(self):
        # This spec used to build, and g(0.5) was nan.
        with pytest.raises(InvalidParameterError, match=r"jump size at 1\.0 must be >= 0"):
            PayoffSpec(self.STEP, ((1.0, math.nan),), PriceInterval())

    def test_jump_off_a_breakpoint(self):
        segs = (Segment(0.0, 1.0, ConstantForm(0.0)), Segment(1.0, math.inf, ConstantForm(1.0)))
        with pytest.raises(InvalidParameterError, match="not a breakpoint"):
            PayoffSpec(segs, ((2.0, 1.0),), PriceInterval())

    STEP = (Segment(0.0, 1.0, ConstantForm(0.0)), Segment(1.0, math.inf, ConstantForm(1.0)))

    def test_value_gap_its_jumps_do_not_list(self):
        # This spec used to build, and every replication quantity missed the
        # step: g(0.5) was 0.0 where the jump needs 1.0.
        with pytest.raises(InvalidParameterError, match=r"f steps by 1\.0 at 1\.0; jumps list 0\.0"):
            PayoffSpec(self.STEP, (), PriceInterval(0.0, 2.0))

    def test_listed_jump_of_the_wrong_size(self):
        with pytest.raises(InvalidParameterError, match=r"at 1\.0; jumps list 0\.5"):
            PayoffSpec(self.STEP, ((1.0, 0.5),), PriceInterval(0.0, 2.0))

    def test_listed_jumps_that_sum_to_the_gap(self):
        spec = PayoffSpec(self.STEP, ((1.0, 0.25), (1.0, 0.75)), PriceInterval(0.0, 2.0))
        assert ReplicationProfile(spec).g(0.5) == 1.0

    def test_tolerance_at_a_kink(self):
        # A continuous join of two forms, and rounding inside the tolerance.
        segs = (Segment(0.0, 1.0, PowerForm(1.0, 0.5)),
                Segment(1.0, math.inf, LinearForm(1.0, 1.0 + 1e-13, 0.5)))
        assert PayoffSpec(segs, (), PriceInterval(0.0, 4.0)).value(1.0) == 1.0
        with pytest.raises(InvalidParameterError, match="at 1.0"):
            PayoffSpec((segs[0], Segment(1.0, math.inf, LinearForm(1.0, 1.0 + 1e-9, 0.5))),
                       (), PriceInterval(0.0, 4.0))


class TestPayoffSpecMonotonicity:
    """Every form has an exact cost, so a decreasing form would silently give
    a negative g; PayoffSpec rejects it, and a negative start."""

    def test_decreasing_power_segment(self):
        # This built, with g(4) = -0.1667.
        with pytest.raises(MonotonicityError, match=r"PowerForm.* decreases on \[1.0, inf\]"):
            PayoffSpec((Segment(0.0, 1.0, ConstantForm(0.0)),
                        Segment(1.0, math.inf, PowerForm(-1.0, 0.5, 1.0))),
                       (), PriceInterval(0.0, 9.0))

    def test_decreasing_linear_segment(self):
        # This built, with g(0.5) = 0.0 and value(3) = -0.5.
        with pytest.raises(MonotonicityError, match="LinearForm.* decreases"):
            PayoffSpec((Segment(0.0, math.inf, LinearForm(0.0, 1.0, -0.5)),),
                       (), PriceInterval(0.0, 1.0))

    @pytest.mark.parametrize("form, start", [
        (ConstantForm(-1.0), "-1.0"), (LinearForm(1.0, -0.5, 0.25), "-0.75"),
        (LogForm(1.0), "-inf"), (PowerForm(-1.0, -1.0), "-inf"), (ConstantForm(math.nan), "nan"),
    ])
    def test_negative_start(self, form, start):
        with pytest.raises(MonotonicityError, match=f"payoff value {start} at price 0 is negative"):
            PayoffSpec((Segment(0.0, math.inf, form),), (), PriceInterval(0.0, 1.0))

    def test_rising_negative_exponent_builds(self):
        spec = PayoffSpec((Segment(0.0, 1.0, ConstantForm(0.0)),
                           Segment(1.0, math.inf, PowerForm(-1.0, -1.0, 1.0))),
                          (), PriceInterval(0.0, math.inf))
        assert ReplicationProfile(spec).g(2.0) == pytest.approx(0.5 * (0.25 - 0.0))


class TestHandBuiltFormParameters:
    """A hand-built log or normal-CDF form checks its parameters, as its
    catalog family does, instead of failing later with a bare error or
    building a payoff that is NaN or falls."""

    @staticmethod
    def profile(form):
        return ReplicationProfile(PayoffSpec(
            (Segment(0.0, 1.0, ConstantForm(0.0)), Segment(1.0, math.inf, form)), (),
            PriceInterval(0.0, 4.0)))

    @pytest.mark.parametrize("p0", [0.0, -1.0, math.nan, math.inf])
    def test_log_form(self, p0):
        # Before: ZeroDivisionError, a bare ValueError, f = nan, a bare ValueError.
        with pytest.raises(InvalidParameterError, match=r"log form needs 0 < p0 < inf"):
            self.profile(LogForm(p0))

    @pytest.mark.parametrize("strike, sigma, tau", [
        (0.0, 0.2, 1.0), (1.0, 0.0, 1.0), (1.0, -0.2, 1.0), (1.0, 0.2, -1.0),
        (math.inf, 0.2, 1.0), (1.0, math.nan, 1.0), (1.0, 0.2, math.inf),
    ])
    def test_normal_cdf_form(self, strike, sigma, tau):
        # Before: ZeroDivisionError for a zero strike or volatility, a payoff
        # falling from f(0.5) = 0.9998 to f(2) = 0.0004 for sigma = -0.2.
        with pytest.raises(InvalidParameterError,
                           match=r"needs 0 < strike < inf and 0 < sigma\*sqrt\(tau\) < inf"):
            self.profile(NormalCdfForm(strike, sigma, tau))


class TestLogPayoffPastTheFloatRange:
    """p / p0 overflows before log(p / p0) does."""

    def test_value(self):
        spec = make_catalog_payoff(Logarithmic(1e-6))
        assert spec.value(1e303) == pytest.approx(math.log(1e303) - math.log(1e-6), rel=1e-15)
        form = LogForm(1e-6)
        prices = [1.0, 1e303, 1.7e308, 2.5]
        assert form.values(prices) == [form.value(p) for p in prices]
        assert all(math.isfinite(v) for v in form.values(prices))
        # Every finite p / p0 keeps its bits.
        assert form.values([1.0, 2.5]) == [math.log(1.0 / 1e-6), math.log(2.5 / 1e-6)]

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_simulate_from_a_huge_start(self, capsys, seed):
        code = main(["simulate", "--payoff", "catalog:logarithmic", "--param", "p0=1e-6",
                     "--p-start", "1e306", "--paths", "2", "--steps", "5", "--seed", seed])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert all(math.isfinite(float(x)) for line in out.splitlines()[1:]
                   for x in line.split(",") if x)


class TestMadeUpPricesStayFinite:
    """The prices verify and replicate choose themselves stay inside the floats."""

    @pytest.mark.parametrize("p0", ["1e-300", "1e200"])
    def test_verify_starts_its_path_inside_the_range(self, capsys, p0):
        # The earnings path starts at the geometric middle of the sampled
        # range, whose ends multiply to 0.0 or inf here.
        code, out, err = run_cli(capsys, "verify", "--payoff", "catalog:logarithmic",
                                 "--param", f"p0={p0}")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "12/12 checks passed"

    def test_replicate_grid_ends_at_the_largest_float(self, capsys):
        code, out, err = run_cli(capsys, "replicate", "--payoff", "catalog:logarithmic",
                                 "--param", "p0=1e307", "--grid", "3")
        assert (code, err) == (0, "")
        rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
        assert rows[0][0] == pytest.approx(1e307, rel=1e-12)
        assert rows[-1][0] == pytest.approx(sys.float_info.max, rel=1e-12)
        assert all(math.isfinite(x) for row in rows for x in row)


class TestPiecewiseInput:
    @pytest.mark.parametrize("points, jumps, interval, message", [
        ([], (), None, "at least one point"),
        ([(1, 0), (1, 1)], (), None, "strictly increasing"),
        ([(-1, 0), (1, 1)], (), None, "must be >= 0"),
        ([(1, -1), (2, 1)], (), None, "is negative"),
        ([(1, 0), (2, 1)], [(1, -0.5)], None, "jump size"),
        # A NaN size used to drop the jump: spec.jumps was ().
        ([(1, 0), (2, 1)], [(2, math.nan)], None, r"jump size at 2\.0 must be >= 0"),
    ])
    def test_rejected(self, points, jumps, interval, message):
        with pytest.raises(InvalidParameterError, match=message):
            spec = make_piecewise_payoff(points, jumps)
            spec = spec if interval is None else spec.with_bounds(interval.alpha, interval.beta)

    def test_a_jump_below_alpha_builds(self):
        # The interval selects where f is replicated; the jump at 1 keeps its
        # step in f and adds nothing to g on [2, 3].  This used to raise.
        spec = make_piecewise_payoff([(1, 0), (2, 1), (3, 2)], [(1, 0.5)]).with_bounds(2.0, 3.0)
        assert spec.jumps == ((1.0, 0.5),) and spec.value(1.5) == 0.75
        exact, oracle = ReplicationProfile(spec), NumericProfile(spec)
        for p in (2.0, 2.2, 2.5, 2.9, 3.0):
            assert exact.g(p) == pytest.approx(oracle.g(p), rel=1e-9, abs=1e-15)
            assert exact.portfolio_value(p) == pytest.approx(oracle.portfolio_value(p),
                                                             rel=1e-9)
        for r2 in (0.05, 0.2, exact.g_alpha):
            assert exact.g_inverse_value(r2) == pytest.approx(oracle.g_inverse_value(r2),
                                                              rel=1e-9)
        assert all(r.passed for r in run_verification(exact))


class TestParseInput:
    @pytest.mark.parametrize("doc, message", [
        ('{"catalog": "black_scholes_binary", "K": 1, "strike": 1, "sigma": 0.2, "tau": 1}',
         "given twice"),
        ("[1, 2]", "must be a JSON object"),
        ('{"piecewise": [[1, 0]]}', '"piecewise" must be an object'),
        ('{"piecewise": {"points": [[1, 0]]}, "extra": 1}', "unexpected top-level keys"),
        ('{"piecewise": {"points": []}, "alpha": 1}', "at least one point"),
    ])
    def test_rejected(self, doc, message):
        with pytest.raises(PayoffParseError, match=message):
            parse_payoff_file(doc)

    def test_a_table_with_no_points_is_a_usage_error(self, capsys, tmp_path):
        # Without bounds this used to exit 1, with them 2.
        for bounds in ("", ', "alpha": 1', ', "beta": 2'):
            doc = tmp_path / "empty.json"
            doc.write_text('{"piecewise": {"points": []}%s}' % bounds)
            assert run_cli(capsys, "replicate", "--payoff", str(doc)) == (
                2, "", "error: piecewise payoff needs at least one point\n")

    def test_nan_jump_size(self, capsys, tmp_path):
        # Python's json reads NaN; the jump used to be dropped, and the run exited 0.
        doc = tmp_path / "nan.json"
        doc.write_text('{"piecewise": {"points": [[1, 0], [2, 1]], "jumps": [[1, NaN]]}}')
        code, out, err = run_cli(capsys, "replicate", "--payoff", str(doc))
        assert (code, out) == (1, "")
        assert err == "error: jump size at 1.0 must be >= 0\n"

    @pytest.mark.parametrize("doc, error, message", [
        ('{"catalog": "capped_power", "p0": 0, "p1": 1e300, "a": 1e300, "alpha": NaN}',
         NumericalError, "overflows the float range"),
        ('{"piecewise": {"points": [[1, 0], [1, 1]]}, "alpha": -1}',
         InvalidParameterError, "strictly increasing"),
    ])
    def test_the_payoffs_error_comes_before_the_intervals(self, doc, error, message):
        # The payoff is built first, then its interval; both used to name the interval.
        with pytest.raises(error, match=message):
            parse_payoff_file(doc)


class TestLibraryInput:
    def test_family_of_unknown_params(self):
        with pytest.raises(InvalidParameterError, match="unknown catalog params"):
            family(object())

    def test_negative_reserve(self):
        profile = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        with pytest.raises(InvalidParameterError, match="must be >= 0"):
            g_inverse(profile, -1.0)

    def test_integral_at_infinity(self):
        profile = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        with pytest.raises(DomainError, match="finite price"):
            portfolio_value_integral(profile, math.inf)

    def test_fractional_steps(self):
        with pytest.raises(InvalidParameterError, match="integers"):
            GbmParams(1.0, 0.5, 1.0, 1.5, 1)

    def test_step_count_past_the_float_range(self):
        with pytest.raises(InvalidParameterError, match="largest float"):
            GbmParams(1.0, 0.5, 1.0, 10**400, 1)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_verification_needs_a_sample(self, samples):
        # With no samples, half the checks would pass having evaluated nothing.
        profile = ReplicationProfile(make_catalog_payoff(Logarithmic(1.0)))
        with pytest.raises(InvalidParameterError, match="samples must be at least 1"):
            run_verification(profile, samples=samples)

    def test_sampled_range_is_never_one_price(self):
        # Cut at an eighth of the first breakpoint, the range's two ends meet;
        # the low end then halves.
        spec = make_catalog_payoff(CappedCall(1.0, 4.0)).with_bounds(0.0, 0.125)
        assert sample_price_range(ReplicationProfile(spec)) == (0.0625, 0.125)

    def test_integral_from_zero_to_zero(self):
        r = integrate_from_zero(lambda u: 1.0, 0.0)
        assert (r.value, r.error, r.converged) == (0.0, 0.0, True)

    @pytest.mark.parametrize("bad", [0.25, 0.75])
    def test_simpson_recursion_checks_its_nodes(self, bad):
        with pytest.raises(NumericalError, match=f"integrand is nan at {bad}"):
            adaptive_simpson(lambda x: math.nan if x == bad else x, 0.0, 1.0)

    @pytest.mark.parametrize("bad, evaluated", [
        (0.0, [0.0]), (1.0, [0.0, 1.0]), (0.5, [0.0, 1.0, 0.5])])
    def test_simpson_checks_its_first_nodes_in_order(self, bad, evaluated):
        calls = []

        def f(x):
            calls.append(x)
            return math.inf if x == bad else x

        with pytest.raises(NumericalError, match=f"integrand is inf at {bad}"):
            adaptive_simpson(f, 0.0, 1.0)
        assert calls == evaluated
