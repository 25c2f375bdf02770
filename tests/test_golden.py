"""Golden CLI outputs.

EXACT cases must print byte-identical stdout.  CLOSE cases were recorded
while their numbers came from quadrature and bisection (catalog payoffs cut
below their cap, piecewise inversion); they must match the recording to
1e-9 relative, and every verify line must pass.

Regenerate the recordings with `PYTHONPATH=src python tests/test_golden.py`,
and only when an output change is intended.
"""

import contextlib
import hashlib
import io
import math
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


def _family(name):
    return name.removesuffix("_uncapped").removesuffix("_sublinear")


def _payoff_args(name, params):
    args = ["--payoff", f"catalog:{_family(name)}"]
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
    exact = {"catalog": ["catalog"]}
    close = {}
    for name, params in FAMILIES.items():
        for cmd, argv in _commands(_payoff_args(name, params)).items():
            exact[f"{cmd}-{name}"] = argv
    for name, (params, beta) in TRUNCATED.items():
        for cmd, argv in _commands(_payoff_args(name, params) + ["--beta", beta]).items():
            close[f"{cmd}-{name}-truncated"] = argv
    piecewise = _commands(["--payoff", PIECEWISE])
    exact["replicate-piecewise"] = piecewise["replicate"]
    close["trading-piecewise"] = piecewise["trading"]
    close["verify-piecewise"] = piecewise["verify"]
    simulate = ["simulate", "--paths", "3", "--steps", "20"]
    exact["simulate-logarithmic"] = simulate + _payoff_args("logarithmic", ["p0=1e-6"])
    exact["simulate-piecewise"] = simulate + ["--payoff", PIECEWISE, "--p-start", "1.5"]
    return exact, close


EXACT, CLOSE = _cases()

# 20 x 500 runs draw about 500 normals from the inverse CDF's tail branches;
# their stdout is pinned by sha256 rather than kept as a recording.
LARGE_SIMULATE = {
    "logarithmic": (
        _payoff_args("logarithmic", ["p0=1e-6"]),
        "084916ef7504a20fcf6c071973c6000d98c991939b978c0fae37af3787c6a7f4"),
    "piecewise": (
        ["--payoff", PIECEWISE, "--p-start", "1.5"],
        "137671a1994893e22d0bf957cc50c033584d9751313f2dcb69af5e4ee252ad8e"),
}

# 200-row trading-function tables with the infimum oracle column: two
# unbounded intervals, where the oracle's grid top moves with r2, and the
# bounded piecewise table, where every row shares one grid.
LARGE_TRADING = {
    "logarithmic": (
        _payoff_args("logarithmic", ["p0=1"]),
        "5b860467ac1c5a13fc9d7effa4d04d1d2a0fb5161345b044e2d502d55749f268"),
    "constant_proportion": (
        _payoff_args("constant_proportion", FAMILIES["constant_proportion"]),
        "2edd34199c35dccfaf05a5331549348bd9cc881b4d5965ab88faeb813f0f55c2"),
    "piecewise": (
        ["--payoff", PIECEWISE],
        "d1dd4355600c87c8463c59bd0b5f99895f1ae0bd6722600569d6227738c7acf2"),
}

# Where g is flat to rounding near alpha, the rightmost price with
# g >= g(alpha) is ill-posed in floating point: the recording holds a
# quadrature-noise price there (0.046 where the exact answer is 0), and
# psi columns off by that price's rounding.
NOISY_LAST_G_INV = {"trading-black_scholes_binary-truncated"}


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def recorded(case):
    return (GOLDEN / f"{case}.out").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", sorted(EXACT))
def test_exact_output(case):
    code, out = run(EXACT[case])
    assert code == 0
    assert out == recorded(case)


@pytest.mark.parametrize("case", sorted(LARGE_SIMULATE))
def test_large_simulate_digest(case):
    payoff, digest = LARGE_SIMULATE[case]
    code, out = run(["simulate", "--paths", "20", "--steps", "500"] + payoff)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("case", sorted(LARGE_TRADING))
def test_large_trading_digest(case):
    payoff, digest = LARGE_TRADING[case]
    code, out = run(["trading-function", "--grid", "200", "--check-infimum"] + payoff)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def _numbers_close(got: str, want: str, floor: float = 1e-3) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), floor)


def _check_names(text):
    return [line.split(":")[0].split(None, 1)[1] for line in text.splitlines()[:-1]]


@pytest.mark.parametrize("case", sorted(CLOSE))
def test_close_output(case):
    code, out = run(CLOSE[case])
    assert code == 0
    if case.startswith("verify"):
        # Residuals are rounding noise; every check must pass, and the checks
        # run are those of the family's own interval (the recorded run of a
        # cut black_scholes_binary stopped at an error and lists none).
        reference = case.removesuffix("-truncated")
        reference = "verify-" + _family(reference[len("verify-"):])
        assert _check_names(out) == _check_names(recorded(reference))
        assert all(line.startswith("PASS") for line in out.splitlines()[:-1])
        return
    got, want = out.splitlines(), recorded(case).splitlines()
    assert got[0] == want[0]
    # The last trading-function row, r2 = g(alpha), was skipped when the
    # grid arithmetic rounded it one ulp past the valid range, so the
    # output may hold one more row than the recording.
    assert len(want) <= len(got) <= len(want) + 1
    for i, (g_row, w_row) in enumerate(zip(got[1:], want[1:]), start=2):
        g_cells, w_cells = g_row.split(","), w_row.split(",")
        assert len(g_cells) == len(w_cells)
        floor = 1e-3
        if case in NOISY_LAST_G_INV and i == len(want):
            del g_cells[1], w_cells[1]
            floor = 1.0  # psi is 0 here, to rounding of the table's O(1) scale
        assert all(_numbers_close(a, b, floor) for a, b in zip(g_cells, w_cells)), (
            f"{case}: {g_row} != {w_row}")


if __name__ == "__main__":
    for case, argv in sorted({**EXACT, **CLOSE}.items()):
        _, text = run(argv)
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
        print(case, file=sys.stderr)
