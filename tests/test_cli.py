"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import io
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cfmmrep
from cfmmrep.cli import main
from cfmmrep.payoffs import FAMILIES

E = math.e


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReplicate:
    def test_capped_call_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "replicate", "--payoff", "catalog:capped_call",
            "--param", "p0=1", "--param", f"p1={E}", "--grid", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p,f,g,V"
        rows = [list(map(float, line.split(","))) for line in lines[1:]]
        assert len(rows) == 3
        assert rows[0][0] == pytest.approx(1.0)
        assert rows[2][0] == pytest.approx(E)
        assert rows[1][0] == pytest.approx(math.sqrt(E))
        # V = f + p*g on every row.
        for p, f, g, v in rows:
            assert v == pytest.approx(f + p * g, rel=1e-12)

    def test_normal_cdf_where_p_over_k_underflows(self, capsys):
        # f(1e-30) = 0 and g(1e-30) = (1 - 0) / K; this used to exit 1 with
        # "error: math domain error".
        code, out, err = run_cli(
            capsys, "replicate", "--payoff", "catalog:black_scholes_binary",
            "--param", "K=1e300", "--param", "sigma=0.4", "--param", "tau=1",
            "--alpha", "1e-30", "--grid", "3")
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 3 and [row[1:3] for row in rows] == [["0", "1e-300"]] * 3

    def test_linear_cost_where_top_over_p_overflows(self, capsys):
        # At p0 = 1e-300, p1 / p0 passes the float range: this used to exit 1
        # with "replication cost at price 1.0000000000000237e-300 overflows".
        code, out, err = run_cli(
            capsys, "replicate", "--payoff", "catalog:capped_call",
            "--param", "p0=1e-300", "--param", "p1=1e300", "--grid", "3")
        assert (code, err) == (0, "")
        rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == 3 and all(math.isfinite(x) for row in rows for x in row)

    def test_cash_or_nothing_g_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "replicate", "--payoff", "catalog:cash_or_nothing",
            "--param", "p0=2", "--grid", "20")
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            p, f, g, v = map(float, line.split(","))
            assert g == pytest.approx((1.0 - f) / 2.0, abs=1e-12)

    def test_rows_stay_inside_the_interval(self, capsys):
        # exp(log(3)) is 3.0000000000000004: the last row used to price past
        # beta and show f above the cut payoff's maximum of 2.
        code, out, _ = run_cli(
            capsys, "replicate", "--payoff", "catalog:capped_call", "--param", "p0=1",
            "--param", "p1=inf", "--beta", "3", "--grid", "20")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "3,2,0,2"
        assert all(1.0 <= float(line.split(",")[0]) <= 3.0 for line in lines[1:])

    def test_invalid_file_diagnostic(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"catalog":\n "capped_call"\n oops}')
        code, out, err = run_cli(capsys, "replicate", "--payoff", str(bad))
        assert code == 2
        assert "line 3" in err

    def test_divergent_cost_message(self, capsys):
        code, out, err = run_cli(
            capsys, "replicate", "--payoff", "catalog:capped_power",
            "--param", "p0=1", "--param", "p1=inf", "--param", "a=2")
        assert code == 1
        assert "linear" in err and "diverges" in err

    def test_interval_override_on_file_payoff(self, capsys, tmp_path):
        doc = tmp_path / "call.json"
        doc.write_text('{"catalog":"capped_call","p0":1.0,"p1":4.0}')
        code, out, _ = run_cli(
            capsys, "replicate", "--payoff", str(doc), "--beta", "2",
            "--grid", "5")
        assert code == 0
        rows = [list(map(float, r.split(","))) for r in out.strip().splitlines()[1:]]
        assert rows[-1][0] == pytest.approx(2.0)
        # With beta cut below the cap, the risky requirement integrates only
        # to 2: g(1.5) = log(2/1.5), not log(4/1.5).
        mid = [r for r in rows if abs(r[0] - 1.5) < 0.3]
        for p, f, g, v in mid:
            assert g == pytest.approx(math.log(2.0 / p), rel=1e-8)

    def test_beta_override_to_divergent_config(self, capsys, tmp_path):
        doc = tmp_path / "pow.json"
        doc.write_text('{"catalog":"capped_power","p0":1.0,"p1":"inf","a":2.0,"beta":2.0}')
        assert run_cli(capsys, "replicate", "--payoff", str(doc))[0] == 0
        code, _, err = run_cli(
            capsys, "replicate", "--payoff", str(doc), "--beta", "inf")
        assert code == 1
        assert "linearly" in err

    def test_beta_override_bounds_a_divergent_file_payoff(self, capsys, tmp_path):
        # The file payoff diverges on its natural interval; --beta bounds it
        # before anything is replicated, as it does for catalog:NAME.
        doc = tmp_path / "pow.json"
        doc.write_text('{"catalog":"capped_power","p0":1,"p1":"inf","a":2}')
        code, out, _ = run_cli(capsys, "replicate", "--payoff", str(doc), "--beta", "2")
        assert code == 0
        assert run_cli(capsys, "replicate", "--payoff", "catalog:capped_power",
                       "--param", "p0=1", "--param", "p1=inf", "--param", "a=2",
                       "--beta", "2") == (0, out, "")

    @pytest.mark.parametrize("command", [["replicate", "--grid", "9"],
                                         ["trading-function", "--check-infimum", "--grid", "9"],
                                         ["verify"]])
    def test_interval_override_is_the_same_for_catalog_and_file(self, capsys, tmp_path,
                                                                 command):
        doc = tmp_path / "call.json"
        doc.write_text('{"catalog":"capped_call","p0":1,"p1":4}')
        bounds = ["--alpha", "1.5", "--beta", "3"]
        from_file = run_cli(capsys, *command, "--payoff", str(doc), *bounds)
        assert from_file[0] == 0
        assert run_cli(capsys, *command, "--payoff", "catalog:capped_call", "--param", "p0=1",
                       "--param", "p1=4", *bounds) == from_file

    TOP = '{"piecewise": {"points": [[1, 0], [2, 1]], "jumps": [[2, 0.5]]}%s}'

    @pytest.mark.parametrize("bounds, g_at_1", [([], math.log(2.0)),
                                                (["--beta", "inf"], math.log(2.0) + 0.25)])
    def test_a_jump_at_the_tables_top_replicates(self, capsys, tmp_path, bounds, g_at_1):
        # The jump at 2 adds nothing to g on the default [1, 2] and 0.5 / 2
        # on [1, inf).  Both runs used to exit 1.
        doc = tmp_path / "top.json"
        doc.write_text(self.TOP % "")
        code, out, err = run_cli(capsys, "replicate", "--payoff", str(doc), "--grid", "5",
                                 *bounds)
        assert (code, err) == (0, "")
        p, f, g, v = map(float, out.splitlines()[1].split(","))
        assert (p, f) == (1.0, 0.0) and g == pytest.approx(g_at_1, rel=1e-15)

    def test_a_files_beta_is_the_flags_beta(self, capsys, tmp_path):
        # The file's bound used to exit 1 where the flag over "beta": "inf" exited 0.
        runs = []
        for name, body, flags in (("file.json", ', "beta": 2', []),
                                  ("flag.json", "", ["--beta", "2"]),
                                  ("inf.json", ', "beta": "inf"', ["--beta", "2"])):
            doc = tmp_path / name
            doc.write_text(self.TOP % body)
            runs.append(run_cli(capsys, "replicate", "--payoff", str(doc), "--grid", "7",
                                *flags))
        assert runs[0][0] == 0
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("command", ["replicate", "trading-function", "simulate",
                                         "verify"])
    @pytest.mark.parametrize("source", ["catalog", "file"])
    def test_every_command_rejects_a_divergent_payoff(self, capsys, tmp_path, command,
                                                      source):
        if source == "catalog":
            payoff = ["catalog:capped_power", "--param", "p0=1", "--param", "p1=inf",
                      "--param", "a=2"]
        else:
            doc = tmp_path / "pow.json"
            doc.write_text('{"catalog":"capped_power","p0":1,"p1":"inf","a":2}')
            payoff = [str(doc)]
        code, out, err = run_cli(capsys, command, "--payoff", *payoff)
        assert code == 1
        assert out == ""
        assert "linearly" in err and "diverges" in err

    def test_seventeen_digit_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run_cli(
            capsys, "replicate", "--payoff", "catalog:logarithmic",
            "--param", "p0=1", "--grid", "5", "--out", str(out_path))
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        p = float(rows[2].split(",")[0])
        assert f"{p:.17g}" == rows[2].split(",")[0]


class TestTradingFunction:
    def test_logarithmic_row(self, capsys):
        code, out, err = run_cli(
            capsys, "trading-function", "--payoff", "catalog:logarithmic",
            "--param", "p0=1", "--grid", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r2,g_inv,psi_at_zero_r1"
        last = list(map(float, lines[-1].split(",")))
        assert last[0] == pytest.approx(1.0)    # r2 = g(alpha) = 1/p0
        assert last[1] == pytest.approx(1.0)    # g_inv(1) = 1
        assert last[2] == pytest.approx(0.0, abs=1e-12)
        # The r2 = 0 row is skipped with a warning (psi is -inf there).
        assert "skipping r2=0" in err

    def test_check_infimum_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "trading-function", "--payoff", "catalog:capped_call",
            "--param", "p0=1", "--param", "p1=2", "--grid", "8",
            "--check-infimum")
        assert code == 0
        assert out.splitlines()[0] == "r2,g_inv,psi_at_zero_r1,psi_inf"

    def test_check_infimum_where_p_over_k_underflows(self, capsys):
        # At alpha = 1e-30, p / K is 0 in floats; this used to exit 1 with
        # "error: math domain error".
        code, out, err = run_cli(
            capsys, "trading-function", "--payoff", "catalog:black_scholes_binary",
            "--param", "K=1e300", "--param", "sigma=0.4", "--param", "tau=1",
            "--alpha", "1e-30", "--check-infimum", "--grid", "3")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "1e-300,1.0000000000000001e-30,0,0"

    def test_normal_cdf_g_inv_in_the_price_tail(self, capsys):
        # Above price 30 the binary's survival mass is below 1e-17, where
        # 1 - s is 1: g_inv used to print inf on every row.
        code, out, err = run_cli(
            capsys, "trading-function", "--payoff", "catalog:black_scholes_binary",
            "--param", "K=1", "--param", "sigma=0.4", "--param", "tau=1",
            "--alpha", "30", "--grid", "5")
        assert code == 0
        rows = [list(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == 5
        assert all(math.isfinite(g_inv) for r2, g_inv, _ in rows if r2 > 0.0)
        assert rows[-1][1] == pytest.approx(30.0, rel=1e-12)

    @pytest.mark.parametrize("sigma,tau", [("1e-8", "1e-6"), ("1e-8", "1"), ("0.4", "1e-6"),
                                           ("0.4", "1"), ("50", "1e-6")])
    def test_check_infimum_below_the_default_floor(self, capsys, sigma, tau):
        # At K = 1e-300 the minimising price of small r2 lies far below the
        # oracle's first floor; before the floor walked down, the oracle
        # answered 0 there ("mismatch at r2=2.04e+298") and the run exited 1.
        code, out, err = run_cli(
            capsys, "trading-function", "--payoff", "catalog:black_scholes_binary",
            "--param", "K=1e-300", "--param", f"sigma={sigma}", "--param", f"tau={tau}",
            "--check-infimum", "--grid", "8")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 9

    @pytest.mark.parametrize("command,payoff", [
        ("trading-function", "catalog:logarithmic --param p0=1e300"),
        ("verify", "catalog:logarithmic --param p0=1e300"),
        ("trading-function", "catalog:cash_or_nothing --param p0=1e300"),
        ("verify", "catalog:cash_or_nothing --param p0=1e300"),
        ("trading-function", "catalog:black_scholes_binary --param K=1e300 --param sigma=0.4"
                             " --param tau=1 --alpha 1e-30"),
    ], ids=lambda value: value.split()[0])
    def test_infimum_bracket_past_1e300(self, capsys, command, payoff):
        # The oracle's top bracket used to stop at 1e300 with "infimum bracket
        # passed 1e300"; it now doubles on to a quarter of the largest float.
        argv = [command, "--payoff", *payoff.split()]
        if command == "trading-function":
            argv += ["--check-infimum", "--grid", "8"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert "error" not in err and "mismatch" not in err
        if command == "verify":
            assert out.splitlines()[-1] == "12/12 checks passed"

    def test_check_infimum_mismatch_exits_1(self, capsys, monkeypatch):
        # An oracle 1.0 above every psi stands in for a broken trading function.
        real = cfmmrep.cli.trading_function_infimum
        monkeypatch.setattr(cfmmrep.cli, "trading_function_infimum",
                            lambda *args: real(*args) + 1.0)
        code, out, err = run_cli(
            capsys, "trading-function", "--payoff", "catalog:capped_call",
            "--param", "p0=1", "--param", "p1=2", "--grid", "3", "--check-infimum")
        assert code == 1
        assert len(out.splitlines()) == 4  # the table is still written
        mismatches = [line for line in err.splitlines() if line.startswith("mismatch at r2=")]
        assert len(mismatches) == 3

    def test_unbounded_range_warning(self, capsys):
        code, out, err = run_cli(
            capsys, "trading-function", "--payoff", "catalog:constant_proportion",
            "--param", "w=0.5", "--param", "C=1", "--grid", "5")
        assert code == 0
        assert "unbounded" in err


# The extreme-parameter sweep of --check-infimum, fixed before its first run:
# each family at every price parameter, every ordered capped pair p0 < p1
# (and p0 = 0 where the family allows it), the binary's sigma x tau at K = 1
# and constant_proportion's w x C.  69 sets.
_PRICES = ["1e-300", "1e-6", "1", "1e6", "1e300"]
_PAIRS = [(p0, p1) for i, p0 in enumerate(_PRICES) for p1 in _PRICES[i + 1:]]
_SWEEP = (
    [("cash_or_nothing", f"p0={p}") for p in _PRICES]
    + [("logarithmic", f"p0={p}") for p in _PRICES]
    + [("capped_call", f"p0={p0} p1={p1}") for p0, p1 in _PAIRS]
    + [("capped_power", f"p0={p0} p1={p1} a={a}")
       for p0, p1 in _PAIRS + [("0", p) for p in _PRICES] for a in ("0.5", "2.5")]
    + [("black_scholes_binary", f"K={k} sigma=0.4 tau=1") for k in _PRICES]
    + [("black_scholes_binary", f"K=1 sigma={sigma} tau={tau}")
       for sigma in ("0", "0.4", "50") for tau in ("1e-6", "1") if (sigma, tau) != ("0.4", "1")]
    + [("constant_proportion", f"w={w} C={c}")
       for w in ("1e-6", "0.3", "0.999999") for c in ("1e-300", "1", "1e300")]
)


def run_sweep_set(capsys, command, family, params):
    """(stdout, stderr) of one sweep set, which must exit 0; None for the
    one correct rejection: f itself passes the float range at a = 2.5 up to
    p1 = 1e300."""
    argv = [*command, "--payoff", f"catalog:{family}"]
    for item in params.split():
        argv += ["--param", item]
    code, out, err = run_cli(capsys, *argv)
    if family == "capped_power" and params.endswith("p1=1e300 a=2.5"):
        assert code == 1 and "the payoff overflows the float range" in err
        return None
    assert code == 0, err
    return out, err


@pytest.mark.parametrize("family,params", _SWEEP,
                         ids=[f"{name}-{params.replace(' ', '-')}" for name, params in _SWEEP])
def test_check_infimum_sweep(capsys, family, params):
    # Every set but the rejection agrees with its oracle on every row.
    outputs = run_sweep_set(capsys, ["trading-function", "--check-infimum"], family, params)
    if outputs is not None:
        assert "mismatch" not in outputs[1] and "error" not in outputs[1]


# verify over the same 69 sets, fixed before its first run.  Beside the five
# rejections above, each set that exits 1 is a strict xfail naming its item.
_NONCONVERGED = "item 16: Simpson's integral of g does not converge"
_OVERFLOWS = "item 16: quadrature g overflows or meets an infinite integrand"
_FAILS = "item 12: a check FAILs on its residual's scale"
_FAR_PAIRS = [(p0, p1) for p0, p1 in _PAIRS if p0 == "1e-300" or p1 == "1e300"]
_VERIFY_XFAIL = {
    **{("capped_call", f"p0={p0} p1={p1}"): _NONCONVERGED for p0, p1 in _FAR_PAIRS},
    **{("capped_power", f"p0={p0} p1={p1} a=0.5"): _NONCONVERGED for p0, p1 in _FAR_PAIRS},
    ("black_scholes_binary", "K=1e-300 sigma=0.4 tau=1"): _NONCONVERGED,
    ("constant_proportion", "w=1e-6 C=1"): _OVERFLOWS,
    ("constant_proportion", "w=1e-6 C=1e300"): _OVERFLOWS,
    ("constant_proportion", "w=0.3 C=1e300"): _OVERFLOWS,
    ("capped_power", "p0=1e-6 p1=1e6 a=2.5"): _FAILS + " (psi, telescoping)",
    ("capped_power", "p0=1 p1=1e6 a=2.5"): _FAILS + " (concavity, psi, telescoping)",
    ("capped_power", "p0=0 p1=1e6 a=2.5"): _FAILS + " (psi)",
    ("capped_power", "p0=0 p1=1e300 a=0.5"): _FAILS + " (psi)",
    ("constant_proportion", "w=0.999999 C=1"): _FAILS + " (telescoping)",
    ("constant_proportion", "w=0.999999 C=1e300"): _FAILS + " (psi, telescoping)",
}


@pytest.mark.parametrize("family,params", [
    pytest.param(name, params,
                 marks=pytest.mark.xfail(strict=True, reason=_VERIFY_XFAIL[name, params]))
    if (name, params) in _VERIFY_XFAIL else (name, params) for name, params in _SWEEP],
    ids=[f"{name}-{params.replace(' ', '-')}" for name, params in _SWEEP])
def test_verify_sweep(capsys, family, params):
    outputs = run_sweep_set(capsys, ["verify"], family, params)
    if outputs is not None:
        assert "FAIL" not in outputs[0]


class TestSimulate:
    def test_deterministic_csv_bytes(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--payoff", "catalog:logarithmic", "--param", "p0=1e-6",
                "--sigma", "0.5", "--steps", "20", "--paths", "5", "--seed", "7"]
        assert run_cli(capsys, *args, "--out", str(out1))[0] == 0
        assert run_cli(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_vol_all_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--payoff", "catalog:logarithmic",
            "--param", "p0=1e-6", "--sigma", "0", "--steps", "5", "--paths", "3")
        assert code == 0
        lines = out.strip().splitlines()
        for line in lines[1:-1]:
            assert float(line.split(",")[1]) == 0.0
        mean, stderr, theory = lines[-1].split(",")
        assert float(mean) == 0.0 and float(stderr) == 0.0
        assert float(theory) == 0.0

    def test_summary_theory_for_log_payoff(self, capsys, tmp_path):
        out_path = tmp_path / "sim.csv"
        code, out, _ = run_cli(
            capsys, "simulate", "--payoff", "catalog:logarithmic",
            "--param", "p0=1e-6", "--sigma", "0.5", "--steps", "10",
            "--paths", "4", "--seed", "1", "--out", str(out_path))
        assert code == 0
        mean, stderr, theory = out.strip().split(",")
        assert float(theory) == pytest.approx(0.125)
        rows = out_path.read_text().strip().splitlines()
        assert rows[0] == "path_id,w,payoff_term,path_term"
        assert len(rows) == 5

    @pytest.mark.parametrize("paths", ["0", "1", "-3"])
    def test_too_few_paths_is_an_error(self, capsys, paths):
        code, out, err = run_cli(
            capsys, "simulate", "--payoff", "catalog:logarithmic",
            "--param", "p0=1e-6", "--steps", "5", "--paths", paths)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_no_theory_off_the_natural_interval(self, capsys):
        # sigma^2 T/2 is the expectation on [0, inf); a cut at 1.2 clamps
        # the paths and earns less.
        code, out, _ = run_cli(
            capsys, "simulate", "--payoff", "catalog:logarithmic",
            "--param", "p0=1e-6", "--beta", "1.2", "--steps", "5", "--paths", "3")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith(",")

    def test_summary_blank_theory_otherwise(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--payoff", "catalog:cash_or_nothing",
            "--param", "p0=2", "--steps", "5", "--paths", "3")
        assert code == 0
        assert out.strip().splitlines()[-1].endswith(",")


class TestNumericalErrors:
    """Results that leave the float range exit 1 with a message naming the
    cause, not the C library's errno text."""

    @pytest.mark.parametrize("argv, cause", [
        (("simulate", "--payoff", "catalog:constant_proportion", "--param", "w=0.5",
          "--param", "C=1e300", "--beta", "1e300", "--paths", "3", "--steps", "20"),
         "variance of the path earnings overflows the float range"),
        (("simulate", "--payoff", "catalog:constant_proportion", "--param", "w=0.5",
          "--param", "C=1e300", "--beta", "1e300", "--p-start", "1e25", "--paths", "3",
          "--steps", "20"),
         "earnings along the path from 1e+25 leave the float range"),
        (("verify", "--payoff", "catalog:capped_power", "--param", "p0=0",
          "--param", "p1=1e300", "--param", "a=1e300"),
         "CappedPower(p0=0.0, p1=1e+300, a=1e+300): the payoff overflows"),
        (("simulate", "--payoff", "catalog:logarithmic", "--param", "p0=1e-6",
          "--p-start", "1.7e308", "--paths", "2", "--steps", "200"),
         "price path left the float range at step 20 of 200"),
        (("simulate", "--payoff", "catalog:constant_proportion", "--param", "w=0.5",
          "--param", "C=1e300", "--beta", "1e300", "--p-start", "1e-20", "--paths", "3",
          "--steps", "20"),
         "replication cost at price 1e-20 overflows the float range"),
        # replicate's rows come from portfolios, which rejects an overflowed g.
        (("replicate", "--payoff", "catalog:constant_proportion", "--param", "w=0.5",
          "--param", "C=1e300", "--alpha", "1e-20", "--grid", "3"),
         "replication cost at price 1e-20 overflows the float range"),
        # The integral check reaches a price where g's p**e passes the float
        # range; this used to print "(34, 'Numerical result out of range')".
        # The cell from 0 ends at the lowest sampled price.
        (("verify", "--payoff", "catalog:constant_proportion", "--param", "w=1e-6",
          "--param", "C=1"),
         "replication cost at price 6.1654e-320 overflows the float range"),
    ])
    def test_overflow_is_named(self, capsys, argv, cause):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and cause in err
        assert "out of range')" not in err and "prices must be positive" not in err

    def test_later_path_failure_prints_no_rows(self, capsys):
        # With seed 10, paths 0 and 1 stay below the float maximum and
        # path 2 (seed 12) passes it.
        code, out, err = run_cli(
            capsys, "simulate", "--payoff", "catalog:cash_or_nothing", "--param", "p0=2",
            "--p-start", "1e308", "--steps", "5", "--paths", "3", "--seed", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: price path left the float range")
        assert run_cli(capsys, "simulate", "--payoff", "catalog:cash_or_nothing",
                       "--param", "p0=2", "--p-start", "1e308", "--steps", "5",
                       "--paths", "2", "--seed", "10")[0] == 0

    @pytest.mark.parametrize("p_start", ["1e-300", "1e300"])
    def test_prices_near_the_float_limits(self, capsys, p_start):
        code, out, _ = run_cli(
            capsys, "simulate", "--payoff", "catalog:logarithmic", "--param", "p0=1",
            "--p-start", p_start, "--paths", "3", "--steps", "50")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:-1]]
        assert len(rows) == 3
        assert all(math.isfinite(float(x)) for row in rows for x in row)


class TestVerify:
    def test_constant_proportion_all_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--payoff", "catalog:constant_proportion",
            "--param", "w=0.5", "--param", "C=1")
        assert code == 0
        assert "constant product recovered" in out
        assert "FAIL" not in out

    def test_truncated_constant_proportion_all_pass(self, capsys):
        # Cut at beta = 4 the pool holds g(4) less risky asset; the constant
        # product holds for (r1, r2 + g(4)).
        code, out, _ = run_cli(
            capsys, "verify", "--payoff", "catalog:constant_proportion",
            "--param", "w=0.5", "--param", "C=1", "--beta", "4")
        assert code == 0
        assert "PASS  constant product recovered" in out

    def test_black_scholes_all_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--payoff", "catalog:black_scholes_binary",
            "--param", "K=1", "--param", "sigma=0.2", "--param", "tau=1")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("family,params,beta", [
        ("capped_call", ["p0=1", "p1=4"], "0.1"),
        ("cash_or_nothing", ["p0=2"], "0.2"),
    ])
    def test_cut_below_first_breakpoint_samples_inside(self, capsys, family,
                                                       params, beta):
        argv = ["verify", "--payoff", f"catalog:{family}", "--beta", beta]
        for param in params:
            argv += ["--param", param]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert "FAIL" not in out

    @pytest.mark.parametrize("command", [["verify"],
                                         ["trading-function", "--check-infimum"]],
                             ids=["verify", "check-infimum"])
    @pytest.mark.parametrize("payoff", ["table", "capped_power"])
    def test_linear_rise_from_price_zero(self, capsys, tmp_path, command, payoff):
        # g(0) is infinite; building the profile used to divide by zero.
        if payoff == "table":
            doc = tmp_path / "ramp.json"
            doc.write_text('{"piecewise":{"points":[[0,0],[1,1],[2,1.5]]}}')
            args = ["--payoff", str(doc)]
        else:
            args = ["--payoff", "catalog:capped_power", "--param", "p0=0",
                    "--param", "p1=4", "--param", "a=1"]
        code, out, err = run_cli(capsys, *command, *args)
        assert code == 0, err
        if command == ["verify"]:
            assert out.splitlines()[-1] == "12/12 checks passed"

    def test_decreasing_payoff_fails_at_parse(self, capsys, tmp_path):
        doc = tmp_path / "dec.json"
        doc.write_text('{"piecewise":{"points":[[1,1],[2,0.5]]}}')
        code, _, err = run_cli(capsys, "verify", "--payoff", str(doc))
        assert code == 1
        assert "decreases" in err


class TestCatalog:
    def test_lists_six_families(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        for name in ("cash_or_nothing", "capped_call", "black_scholes_binary",
                     "logarithmic", "capped_power", "constant_proportion"):
            assert name in out

    def test_detail_shows_finiteness_constraint(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "capped_power")
        assert code == 0
        assert "finite when a >= 1" in out

    def test_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "mystery")
        assert code == 2
        assert "unknown" in err


def child_env() -> dict:
    """This environment with PYTHONPATH led by the directory cfmmrep was imported
    from: the pytest pythonpath setting reaches only this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfmmrep.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestSubprocessEntry:
    def test_module_invocation_end_to_end(self, tmp_path):
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-m", "cfmmrep.cli", "replicate",
             "--payoff", "catalog:cash_or_nothing", "--param", "p0=2",
             "--grid", "4"],
            capture_output=True, text=True, env=child_env())
        assert out.returncode == 0
        assert out.stdout.splitlines()[0] == "p,f,g,V"

        bad = subprocess.run(
            [sys.executable, "-m", "cfmmrep.cli", "catalog", "nope"],
            capture_output=True, text=True, env=child_env())
        assert bad.returncode == 2


class TestParserReuse:
    """main() builds its parser once per process; no parse leaks into the next."""

    def test_in_process_calls_match_fresh_processes(self, capsys, tmp_path):
        import subprocess
        import sys

        out_path = tmp_path / "table.csv"
        first = ["replicate", "--payoff", "catalog:cash_or_nothing", "--param", "p0=2",
                 "--grid", "4", "--out", str(out_path)]
        second = ["trading-function", "--payoff", "catalog:capped_call",
                  "--param", "p0=1", "--param", "p1=2", "--grid", "4"]
        calls = [run_cli(capsys, *argv) for argv in (first, second)]
        # Neither --param p0=2 nor --out carried over into the second call.
        for argv, (code, out, err) in zip((first, second), calls):
            fresh = subprocess.run([sys.executable, "-m", "cfmmrep.cli", *argv],
                                   capture_output=True, text=True, env=child_env())
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert calls[0][1] == "" and calls[1][1].startswith("r2,")
        assert out_path.read_text().startswith("p,f,g,V\n")

    def test_defaults_survive_a_parse(self, capsys):
        run_cli(capsys, "replicate", "--payoff", "catalog:logarithmic",
                "--param", "p0=2", "--grid", "3", "--out", "-")
        # A second catalog payoff with no --param at all must see an empty
        # list, so logarithmic asks for its p0.
        code, _, err = run_cli(capsys, "replicate", "--payoff", "catalog:logarithmic")
        assert code == 2
        assert "needs parameters: p0" in err


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_bad_param_syntax(self, capsys):
        code, _, err = run_cli(
            capsys, "replicate", "--payoff", "catalog:capped_call",
            "--param", "p0:1")
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize("argv", [
        ["replicate", "--alpha", "5", "--beta", "5"],
        ["replicate", "--alpha", "0", "--beta", "0"],
        ["verify", "--alpha", "5", "--beta", "5"],
    ])
    def test_empty_interval_rejected(self, capsys, argv):
        code, out, err = run_cli(
            capsys, *argv, "--payoff", "catalog:logarithmic", "--param", "p0=1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "empty" in err

    @pytest.mark.parametrize("flag", ["--out", "--payoff"])
    def test_directory_path_is_a_usage_error(self, capsys, tmp_path, flag):
        doc = tmp_path / "log.json"
        doc.write_text('{"catalog": "logarithmic", "p0": 1}')
        argv = ["replicate", "--payoff", str(doc), flag, str(tmp_path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_non_utf8_payoff_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"catalog": "caf\xe9"}')
        code, _, err = run_cli(capsys, "replicate", "--payoff", str(bad))
        assert code == 2
        assert err.startswith("error:") and "UTF-8" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "replicate", "--payoff", "/no/such/file.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["replicate", "trading-function"])
    def test_grid_of_one_is_a_usage_error(self, capsys, command):
        # Without the check, a one-row grid divides by zero and exits 1.
        with pytest.raises(SystemExit) as exc:
            main([command, "--payoff", "catalog:logarithmic", "--param", "p0=1", "--grid", "1"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "error: --grid must be at least 2" in captured.err


# ---------------------------------------------------------------------------
# argv fuzz: every run exits 0, 1 or 2 without a traceback
# ---------------------------------------------------------------------------

# Most draws are ordinary values, so that runs get past argument parsing.
_NUMBERS = st.sampled_from(["0.1", "0.5", "1", "2", "4"] * 2
                           + ["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300"])
_COUNTS = st.sampled_from(["2", "3"] * 4 + ["-1", "0", "1", "nan", "x"])


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "latin1.json").write_bytes(b'{"catalog": "caf\xe9"}')
    (root / "table.json").write_text(
        '{"piecewise": {"points": [[1, 0], [2, 0.5], [4, 1.5]], "jumps": [[2, 0.25]]}}')
    (root / "broken.json").write_text('{"catalog": ')
    return {"dir": str(root), "files": [str(root / name) for name in
            ("latin1.json", "table.json", "broken.json", "missing.json")]}


@st.composite
def _argvs(draw, paths):
    command = draw(st.sampled_from(
        ["replicate", "trading-function", "simulate", "verify", "catalog"]))
    argv = [command]
    if command == "catalog":
        if draw(st.booleans()):
            argv.append(draw(st.sampled_from([f.name for f in FAMILIES] + ["nope"])))
        return argv
    fam = draw(st.sampled_from(FAMILIES))
    source = draw(st.one_of(
        st.just(f"catalog:{fam.name}"),
        st.sampled_from(["catalog:nope", paths["dir"]] + paths["files"])))
    argv += ["--payoff", source]
    if source.startswith("catalog:"):
        canonical = {}
        for key, field in fam.keys:
            canonical.setdefault(field, key)
        for key in list(canonical.values()) + ["zz"]:
            if draw(st.integers(0, 9)) > (8 if key == "zz" else 0):
                argv += ["--param", f"{key}={draw(_NUMBERS)}"]
    for flag in ("--alpha", "--beta"):
        if draw(st.integers(0, 2)) == 0:
            argv += [flag, draw(_NUMBERS)]
    if command in ("replicate", "trading-function"):
        argv += ["--grid", draw(_COUNTS)]
        if command == "trading-function" and draw(st.booleans()):
            argv.append("--check-infimum")
    if command == "simulate":
        argv += ["--steps", draw(_COUNTS), "--paths", draw(_COUNTS),
                 "--seed", draw(_COUNTS)]
        for flag in ("--sigma", "--horizon", "--p-start"):
            if draw(st.integers(0, 2)) == 0:
                argv += [flag, draw(_NUMBERS)]
    if command != "verify" and draw(st.integers(0, 3)) == 0:
        argv += ["--out", draw(st.sampled_from(["-", paths["dir"]]))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(fuzz_paths, data):
    argv = data.draw(_argvs(fuzz_paths))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
