"""Golden CLI outputs.

Every case's stdout must equal its recording in tests/golden byte for byte.
Regenerate the recordings with `PYTHONPATH=src python tests/test_golden.py`,
and only when an output change is intended: `git diff tests/golden` then
shows what moved.
"""

import contextlib
import io
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


if __name__ == "__main__":
    for case, argv in sorted(CASES.items()):
        _, text = run(argv)
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
        print(case, file=sys.stderr)
