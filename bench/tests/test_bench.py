"""Tests of the benchmark itself: the gate is not vacuous, and a reduced-size
run of every workload emits every metric the contract names.

    python3 -m pytest -q bench/tests
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from cfmmrep import cli  # noqa: E402

WORKLOADS = [w["name"] for w in run.contract()["workloads"]]


def simulate_output(paths=3):
    rc, out, err = workloads.call_cli(cli, [
        "simulate", "--payoff", "catalog:logarithmic", "--param", "p0=1e-6",
        "--steps", "20", "--paths", str(paths), "--seed", "11"])
    assert rc == 0, err
    return out


def corrupt_row(out, column, value):
    lines = out.splitlines()
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_simulate_gate_passes_real_output():
    res = workloads.gate_simulate(0, simulate_output(), "", 3, "t")
    assert res.attempted == 4 and res.failures == []
    assert len(res.summaries) == 1


def test_simulate_gate_flags_broken_identity():
    out = simulate_output()
    w = float(out.splitlines()[2].split(",")[1])
    res = workloads.gate_simulate(0, corrupt_row(out, 1, repr(w + 1e-6)), "", 3, "t")
    assert len(res.failures) == 1 and "telescoping" in res.failures[0]


def test_simulate_gate_flags_negative_earnings():
    out = corrupt_row(simulate_output(), 1, "-0.5")
    out = corrupt_row(out, 2, "-0.5")
    out = corrupt_row(out, 3, "0")
    res = workloads.gate_simulate(0, out, "", 3, "t")
    assert len(res.failures) == 1 and "negative" in res.failures[0]


def test_simulate_gate_flags_missing_rows_and_exit_code():
    lines = simulate_output().splitlines()
    short = "\n".join(lines[:2] + lines[-1:]) + "\n"
    assert len(workloads.gate_simulate(0, short, "", 3, "t").failures) == 2
    assert len(workloads.gate_simulate(1, simulate_output(), "boom", 3, "t").failures) == 1
    assert len(workloads.gate_simulate(None, "", "Traceback", 3, "t").failures) == 4


def test_verify_gate_flags_fail_line():
    rc, out, _ = workloads.call_cli(cli, ["verify", "--payoff", "catalog:logarithmic",
                                          "--param", "p0=1"])
    lines = out.splitlines()
    assert workloads.gate_verify_lines(rc, lines, "t").failures == []
    lines[3] = "FAIL" + lines[3][4:]
    assert len(workloads.gate_verify_lines(rc, lines, "t").failures) == 1
    assert len(workloads.gate_verify_lines(1, out.splitlines(), "t").failures) == 1
    assert len(workloads.gate_verify_lines(0, [], "t").failures) == 1


def test_infimum_gate_flags_mismatch_and_exit_code():
    out = "r2,g_inv,psi_at_zero_r1,psi_inf\n0,1,0,0\n"
    assert workloads.gate_infimum(0, out, "", "t").failures == []
    assert len(workloads.gate_infimum(0, out, "mismatch at r2=1", "t").failures) == 1
    assert len(workloads.gate_infimum(1, out, "", "t").failures) == 1


def test_mean_gate():
    assert workloads.gate_mean([(0.125, 0.001)] * 4, 0.125).failures == []
    assert len(workloads.gate_mean([(0.135, 0.001)] * 4, 0.125).failures) == 1


def test_same_seed_gives_same_inputs_and_output(tmp_path):
    for name in ("mc_piecewise", "audit_catalog"):
        a = workloads.build(name, 5, tmp_path / "a", small=True)
        b = workloads.build(name, 5, tmp_path / "b", small=True)
        assert [f.read_text() for f in a.payoff_files] == [f.read_text() for f in b.payoff_files]
        for (label_a, unit_a), (label_b, unit_b) in zip(a.units, b.units):
            assert label_a == label_b and unit_a(0).stdout == unit_b(0).stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_emits_every_metric(name, trace):
    record = run.run_workload(name, seed=3, seconds=1, trace=bool(trace), small=True)
    line = run.result_line(record)
    kind = "per_layer" if trace else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in run.contract()[kind]]
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    for metric in line["metrics"].values():
        assert isinstance(metric["value"], float) and metric["unit"]
    if trace:
        assert record["metrics"]["trace.spans_per_pass"]["value"] > 0
