"""Golden CLI outputs.

Every case's stdout must equal its recording in tests/golden byte for byte.
Regenerate the recordings with `PYTHONPATH=src python tests/test_golden.py`,
and only when an output change is intended: `git diff tests/golden` then
shows what moved.

`PYTHONPATH=src python tests/test_golden.py --report OLD_DIR [NEW_DIR]`
describes a re-pin: for each recording in NEW_DIR (by default, today's
outputs of every case) that differs from OLD_DIR's (a golden directory, or a
checkout holding tests/golden), it prints the rows changed, the worst
relative change per CSV column and each `verify` line whose residual or
status moved, old -> new.  It exits 1 when a line turns FAIL or a residual
passes its tolerance.
"""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cfmmrep.cli import main

GOLDEN = Path(__file__).parent / "golden"
PIECEWISE = str(GOLDEN / "piecewise.json")

FAMILIES = {
    "cash_or_nothing": ["p0=2"],
    "capped_call": ["p0=1", "p1=4"],
    "black_scholes_binary": ["K=1", "sigma=0.2", "tau=1"],
    "logarithmic": ["p0=1"],
    "capped_power": ["p0=1", "p1=4", "a=2"],
    "constant_proportion": ["w=0.5", "C=1"],
}

# Catalog payoffs cut below the price where they stop moving.  The last
# three have a linear tail (p1 = inf) or a sublinear one starting at 0.
TRUNCATED = {
    "cash_or_nothing": (FAMILIES["cash_or_nothing"], "1.5"),
    "capped_call": (FAMILIES["capped_call"], "2"),
    "black_scholes_binary": (FAMILIES["black_scholes_binary"], "3"),
    "logarithmic": (FAMILIES["logarithmic"], "5"),
    "capped_power": (FAMILIES["capped_power"], "3"),
    "constant_proportion": (FAMILIES["constant_proportion"], "4"),
    "capped_call_uncapped": (["p0=1", "p1=inf"], "3"),
    "capped_power_uncapped": (["p0=1", "p1=inf", "a=2"], "3"),
    "capped_power_sublinear": (["p0=0", "p1=inf", "a=0.5"], "9"),
}


def _payoff_args(name, params):
    family = name.removesuffix("_uncapped").removesuffix("_sublinear")
    args = ["--payoff", f"catalog:{family}"]
    for item in params:
        args += ["--param", item]
    return args


def _commands(payoff):
    return {
        "replicate": ["replicate"] + payoff + ["--grid", "20"],
        "trading": ["trading-function"] + payoff + ["--grid", "20", "--check-infimum"],
        "verify": ["verify"] + payoff,
    }


def _cases():
    payoffs = {name: _payoff_args(name, params) for name, params in FAMILIES.items()}
    payoffs.update({f"{name}-truncated": _payoff_args(name, params) + ["--beta", beta]
                    for name, (params, beta) in TRUNCATED.items()})
    payoffs["piecewise"] = ["--payoff", PIECEWISE]
    cases = {"catalog": ["catalog"]}
    for name, payoff in payoffs.items():
        for cmd, argv in _commands(payoff).items():
            cases[f"{cmd}-{name}"] = argv
    # The large runs: 20 x 500 paths draw about 1,500 normals from the inverse
    # CDF's tail form, and 200-row tables run the infimum oracle on two
    # unbounded intervals, where its bracket's top moves with r2, and on the
    # bounded table, where every row's bracket is the interval.
    walks = {"logarithmic": _payoff_args("logarithmic", ["p0=1e-6"]),
             "piecewise": ["--payoff", PIECEWISE, "--p-start", "1.5"]}
    for name, payoff in walks.items():
        cases[f"simulate-{name}"] = ["simulate", "--paths", "3", "--steps", "20"] + payoff
        cases[f"simulate-large-{name}"] = ["simulate", "--paths", "20", "--steps", "500"] + payoff
    for name in ("logarithmic", "constant_proportion", "piecewise"):
        cases[f"trading-large-{name}"] = (
            ["trading-function", "--grid", "200", "--check-infimum"] + payoffs[name])
    return cases


CASES = _cases()


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_output(case):
    code, out = run(CASES[case])
    assert code == 0
    assert out == (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# The re-pin report
# ---------------------------------------------------------------------------

CHECK_LINE = re.compile(r"(PASS|FAIL)  (.+): worst residual (\S+) \(tol (\S+)\)$")


def _floats(line: str):
    """The fields of a numeric CSV row as floats, else None."""
    try:
        return [float(field) for field in line.split(",")]
    except ValueError:
        return None


def _checks(text: str) -> dict:
    """name -> (status, residual, tolerance) of each verify line."""
    return {m[2]: (m[1], m[3], m[4])
            for m in map(CHECK_LINE.match, text.splitlines()) if m}


def describe(case: str, old: str, new: str) -> tuple:
    """(report lines, whether a line turned FAIL or passed its tolerance)
    for one recording, old -> new."""
    old_rows, new_rows = old.splitlines(), new.splitlines()
    changed = sum(a != b for a, b in zip(old_rows, new_rows)) + abs(
        len(old_rows) - len(new_rows))
    lines = [f"{case}: {changed} of {len(new_rows)} rows changed"]
    header = new_rows[0].split(",") if new_rows and _floats(new_rows[0]) is None else []
    worst = {}
    for a, b in zip(old_rows, new_rows):
        xs, ys = _floats(a), _floats(b)
        if a == b or xs is None or ys is None or len(xs) != len(ys):
            continue
        for i, (x, y) in enumerate(zip(xs, ys)):
            name = header[i] if len(header) == len(xs) else f"column {i + 1}"
            rel = 0.0 if x == y else abs(y - x) / max(abs(x), abs(y))
            worst[name] = max(worst.get(name, 0.0), rel)
    lines += [f"  {name}: worst relative change {rel:.3e}"
              for name, rel in worst.items() if rel > 0.0]
    before, bad = _checks(old), False
    for name, (status, residual, tol) in _checks(new).items():
        was = before.get(name)
        if was is not None and was[:2] == (status, residual):
            continue
        # A line regresses when it turns FAIL or its residual passes its tolerance.
        worse = status == "FAIL" or float(residual) > float(tol)
        regressed = worse and (was is None or was[0] == "PASS" and float(was[1]) <= float(tol))
        bad = bad or regressed
        old_text = f"{was[0]} {was[1]}" if was is not None else "(none)"
        lines.append(f"  {name}: {old_text} -> {status} {residual} (tol {tol})"
                     + ("  <-- REGRESSION" if regressed else ""))
    return lines, bad


def report(old: dict, new: dict) -> tuple:
    """(report lines, whether any line turned FAIL or passed its tolerance)
    over two maps of case -> recorded text."""
    lines, bad = [], False
    for case in sorted(old.keys() | new.keys()):
        if case not in new or case not in old:
            lines.append(f"{case}: only in {'old' if case in old else 'new'}")
        elif old[case] != new[case]:
            more, worse = describe(case, old[case], new[case])
            lines += more
            bad = bad or worse
    return lines, bad


def _recordings(directory: Path) -> dict:
    if (directory / "tests" / "golden").is_dir():
        directory = directory / "tests" / "golden"
    return {path.stem: path.read_text(encoding="utf-8") for path in directory.glob("*.out")}


def report_main(old_dir: str, new_dir: str = None) -> int:
    new = (_recordings(Path(new_dir)) if new_dir is not None
           else {case: run(argv)[1] for case, argv in CASES.items()})
    lines, bad = report(_recordings(Path(old_dir)), new)
    print("\n".join(lines) if lines else "no recording differs")
    return 1 if bad else 0


@pytest.mark.parametrize("turn, code", [
    ("PASS  earnings nonnegative: worst residual -1.000e-02", 0),
    ("FAIL  earnings nonnegative: worst residual 2.000e-09", 1),
])
def test_repin_report_on_synthetic_recordings(tmp_path, turn, code):
    # Two recordings move, one stays and one is gone; the verify line that
    # turns FAIL is flagged and sets the exit status.
    old, new = tmp_path / "old", tmp_path / "new"
    old.mkdir(), new.mkdir()
    verify = ("PASS  portfolio value integral identity: worst residual 6.123e-15 (tol 1.0e-08)\n"
              "PASS  earnings nonnegative: worst residual -3.677e-02 (tol 1.0e-09)\n"
              "2/2 checks passed\n")
    (old / "verify-x.out").write_text(verify)
    (new / "verify-x.out").write_text(
        verify.replace("6.123e-15", "5.182e-15")
        .replace("PASS  earnings nonnegative: worst residual -3.677e-02", turn))
    table = "p,g,V\n1,2,3\n2,1.5,3.5\n"
    (old / "replicate-x.out").write_text(table)
    (new / "replicate-x.out").write_text(table.replace("1.5,", "1.6,"))
    (old / "catalog.out").write_text("same\n")
    (new / "catalog.out").write_text("same\n")
    (old / "gone.out").write_text("")
    done = subprocess.run([sys.executable, __file__, "--report", str(old), str(new)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")})
    status, residual = turn.split()[0], turn.split()[-1]
    assert done.stdout.splitlines() == [
        "gone: only in old",
        "replicate-x: 1 of 3 rows changed",
        "  g: worst relative change 6.250e-02",
        "verify-x: 2 of 3 rows changed",
        "  portfolio value integral identity: PASS 6.123e-15 -> PASS 5.182e-15 (tol 1.0e-08)",
        f"  earnings nonnegative: PASS -3.677e-02 -> {status} {residual} (tol 1.0e-09)"
        + ("  <-- REGRESSION" if code else ""),
    ]
    assert done.returncode == code, done.stderr


if __name__ == "__main__":
    if sys.argv[1:2] == ["--report"]:
        if len(sys.argv) not in (3, 4):
            sys.exit("usage: test_golden.py --report OLD_DIR [NEW_DIR]")
        sys.exit(report_main(*sys.argv[2:]))
    for case, argv in sorted(CASES.items()):
        _, text = run(argv)
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
        print(case, file=sys.stderr)
