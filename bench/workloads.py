"""The benchmark's workloads: seeded inputs, the units of one pass, the gate.

Every workload drives cfmmrep through its public entry points only:
`cli.main(argv)` in-process with stdout and stderr captured, or the public
library functions.  A pass is a fixed list of units (one program call each)
that the runner times one by one; the gate functions turn a unit's output
into attempted and failed operations.

Workloads, and why each was chosen:

- mc_log: `simulate` on `catalog:logarithmic p0=1e-6`, the paper's
  variance-swap experiment on the all-closed-form route.  The RNG and the
  arbitrage loop dominate; no quadrature and no bisection run.
- mc_piecewise: the same `simulate` on a seeded monotone piecewise-linear
  payoff with jumps.  Every step re-derives psi by table + bisection, so the
  numeric inversion dominates and the RNG is a small share.
- audit_catalog: `verify` and `trading-function --check-infimum` on the six
  catalog families (seeded parameters, natural intervals) and on a seeded
  piecewise table.  Closed forms, the infimum oracle, the checks and CLI
  formatting; no quadrature route for g and no `simulate`.
- audit_truncated: `checks.run_verification` on a capped call cut below its
  cap, which drops every closed form, so quadrature and the numeric
  inversion table do almost all the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

SIGMA = 0.5
HORIZON = 1.0

# Pass sizes.  The full sizes keep each unit between 0.03 and 2 s, so a run
# repeats every unit many times; the small sizes only exercise every layer,
# for the benchmark's own tests.  run_verification cannot sample less than
# its floors, so audit_truncated has no smaller size.
FULL = {
    "mc_log": {"paths": 40, "steps": 1000},
    "mc_piecewise": {"paths": 8, "steps": 250},
    "audit_catalog": {"families": 6},
    "audit_truncated": {"samples": 20},
}
SMALL = {
    "mc_log": {"paths": 4, "steps": 50},
    "mc_piecewise": {"paths": 3, "steps": 20},
    "audit_catalog": {"families": 1},
    "audit_truncated": {"samples": 20},
}

# The cap p1 = 4 sits above beta = 2, so no closed form applies and g comes
# from quadrature.  The logarithmic payoff cut at beta = 5 loads the same
# layers, but one verification of it takes 4-6 s, too long a unit to time
# steadily within one run, so it is left out.
TRUNCATED = {"catalog": "capped_call", "p0": 1.0, "p1": 4.0, "beta": 2.0}

MC_LOG_PAYOFF = {"catalog": "logarithmic", "p0": 1e-6}


@dataclass
class PassResult:
    """What one pass printed, and how its operations fared."""

    stdout: str = ""
    attempted: int = 0
    failures: list = field(default_factory=list)
    summaries: list = field(default_factory=list)  # (mean, stderr) per simulate


@dataclass
class Workload:
    """Seeded inputs of one workload, and the units of work in one pass.

    A unit is (label, run) where run(k) does the unit's work for pass k; the
    runner times every unit separately.
    """

    sizes: dict
    payoff_files: list       # generated payoff documents, written to disk
    items_per_pass: int      # arbitrage steps (mc_*) or program calls (audit_*)
    units: list
    theory_mean: float | None = None  # E[W] the pooled mean must match


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def piecewise_document(rng: random.Random) -> dict:
    """A monotone 8-point table with 2 jumps, 4 points on each side of price 1.

    The cost of g grows with the number of segments above the price, so the
    table keeps that number fixed across seeds, and its range is wide enough
    that a GBM path from 1 seldom leaves it (clamping skips the inversion).
    A jump lifts the payoff just above its price, so the next point's value
    exceeds the jump's top.
    """
    lo = rng.uniform(0.1, 0.2)
    hi = rng.uniform(6.0, 10.0)
    prices = ([lo] + sorted(_log_uniform(rng, lo, 1.0) for _ in range(3))
              + sorted(_log_uniform(rng, 1.0, hi) for _ in range(3)) + [hi])
    jumps = {rng.randrange(1, 4): rng.uniform(0.05, 0.3),
             rng.randrange(4, 7): rng.uniform(0.05, 0.3)}
    values = [rng.uniform(0.0, 0.2)]
    for i in range(7):
        values.append(values[-1] + jumps.get(i, 0.0) + rng.uniform(0.02, 0.5))
    return {"piecewise": {"points": [[p, v] for p, v in zip(prices, values)],
                          "jumps": [[prices[i], size] for i, size in sorted(jumps.items())]}}


def catalog_documents(rng: random.Random) -> list:
    """One payoff per catalog family, on its natural interval."""
    p0 = _log_uniform(rng, 0.5, 1.5)
    return [
        {"catalog": "cash_or_nothing", "p0": _log_uniform(rng, 0.5, 2.0)},
        {"catalog": "capped_call", "p0": p0, "p1": p0 * _log_uniform(rng, 1.5, 4.0)},
        {"catalog": "black_scholes_binary", "K": _log_uniform(rng, 0.5, 2.0),
         "sigma": rng.uniform(0.2, 0.6), "tau": rng.uniform(0.5, 2.0)},
        {"catalog": "logarithmic", "p0": _log_uniform(rng, 0.5, 2.0)},
        {"catalog": "capped_power", "p0": p0, "p1": p0 * _log_uniform(rng, 1.5, 4.0),
         "a": rng.uniform(0.3, 2.0)},
        {"catalog": "constant_proportion", "w": rng.uniform(0.2, 0.8),
         "C": _log_uniform(rng, 0.5, 2.0)},
    ]


# ---------------------------------------------------------------------------
# Calling the program
# ---------------------------------------------------------------------------

def call_cli(cli_module, argv):
    """Run cli.main(argv) in-process; returns (exit code, stdout, stderr).

    An uncaught exception counts as exit code None with the traceback on
    stderr, so the gate reports it instead of the benchmark stopping.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_module.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - reported as a failed operation
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------

def gate_simulate(rc, out: str, err: str, paths: int, label: str) -> PassResult:
    """One operation for the invocation plus one per path row.

    A row fails unless w equals payoff_term + path_term to 1e-10 relative
    and w >= -1e-9; a missing row fails too.
    """
    res = PassResult(stdout=out, attempted=1 + paths)
    lines = out.splitlines() or [""]
    rows = lines[1:-1]
    try:
        mean, stderr = (float(x) for x in lines[-1].split(",")[:2])
        res.summaries.append((mean, stderr))
    except ValueError:
        err += f"\nunreadable summary line {lines[-1]!r}"
    if (rc != 0 or len(res.summaries) != 1 or len(rows) > paths
            or lines[0] != "path_id,w,payoff_term,path_term"):
        res.failures.append(f"{label}: exit {rc}, stderr {err.strip()[-200:]!r}")
    for row in rows[:paths]:
        try:
            _, w, payoff_term, path_term = (float(x) for x in row.split(","))
        except ValueError:
            res.failures.append(f"{label}: unreadable row {row!r}")
            continue
        if abs(w - (payoff_term + path_term)) > 1e-10 * max(1.0, abs(w)):
            res.failures.append(f"{label}: telescoping identity broken in row {row!r}")
        elif not w >= -1e-9:
            res.failures.append(f"{label}: negative earnings in row {row!r}")
    res.failures += [f"{label}: path row missing"] * (paths - len(rows))
    return res


def gate_verify_lines(rc, lines, label: str) -> PassResult:
    """One operation: every check line reads PASS and the exit code is 0."""
    res = PassResult(stdout="".join(line + "\n" for line in lines), attempted=1)
    checks = [line for line in lines if line.startswith(("PASS", "FAIL"))]
    failed = [line for line in checks if not line.startswith("PASS")]
    if rc != 0 or not checks or failed:
        res.failures.append(f"{label}: exit {rc}; "
                            + "; ".join(failed or [f"no check lines in {lines[-1:]!r}"]))
    return res


def gate_infimum(rc, out: str, err: str, label: str) -> PassResult:
    """One operation: exit code 0 and no mismatch line."""
    res = PassResult(stdout=out, attempted=1)
    if rc != 0 or "mismatch" in err or len(out.splitlines()) < 2:
        res.failures.append(f"{label}: exit {rc}, stderr {err.strip()[-200:]!r}")
    return res


def gate_mean(summaries, theory: float) -> PassResult:
    """One operation: the pooled mean of W lies within 4 stderr of theory.

    Passes have equal path counts, so the pooled mean is the mean of the
    pass means and the pooled stderr is the rms pass stderr over sqrt(n).
    """
    res = PassResult(attempted=1)
    mean, stderr = pooled(summaries)
    if not abs(mean - theory) <= 4.0 * stderr:
        res.failures.append(
            f"mean W {mean!r} is {abs(mean - theory) / stderr:.1f} stderr from {theory!r}")
    return res


def pooled(summaries):
    """(mean, stderr of the mean) over equal-sized simulate runs."""
    n = len(summaries)
    mean = math.fsum(m for m, _ in summaries) / n
    one_pass = math.sqrt(math.fsum(s * s for _, s in summaries) / n)
    return mean, one_pass / math.sqrt(n)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _simulate_workload(name, seed, sizes, payoff_args, cli_module, files, theory):
    paths, steps = sizes["paths"], sizes["steps"]
    base = seed * 10**7  # path i of pass k uses seed base + k * paths + i

    def simulate(k: int) -> PassResult:
        argv = (["simulate", "--payoff"] + payoff_args +
                ["--sigma", repr(SIGMA), "--horizon", repr(HORIZON),
                 "--steps", str(steps), "--paths", str(paths),
                 "--seed", str(base + k * paths)])
        rc, out, err = call_cli(cli_module, argv)
        return gate_simulate(rc, out, err, paths, f"{name} pass {k}")

    return Workload(dict(sizes, sigma=SIGMA, horizon=HORIZON), files,
                    paths * steps, [("simulate", simulate)], theory)


def build(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Generate a workload's inputs from the seed and write its payoff files."""
    from cfmmrep import checks, cli, payoffs, replication

    if name not in FULL:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(FULL)}")
    sizes = dict((SMALL if small else FULL)[name])
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)

    def write(docs):
        files = []
        for i, doc in enumerate(docs):
            path = workdir / f"payoff{i}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            files.append(path)
        return files

    if name == "mc_log":
        files = write([MC_LOG_PAYOFF])
        return _simulate_workload(name, seed, sizes,
                                  ["catalog:logarithmic", "--param", "p0=1e-6"],
                                  cli, files, 0.5 * SIGMA * SIGMA * HORIZON)

    if name == "mc_piecewise":
        files = write([piecewise_document(rng)])
        return _simulate_workload(name, seed, sizes, [str(files[0])], cli, files, None)

    if name == "audit_catalog":
        docs = catalog_documents(rng)[:sizes["families"]] + [piecewise_document(rng)]
        files = write(docs)
        verify_seed = rng.randrange(2**31)

        def verify(path, doc):
            def unit(k: int) -> PassResult:
                rc, out, _ = call_cli(
                    cli, ["verify", "--payoff", str(path), "--seed", str(verify_seed)])
                return gate_verify_lines(rc, out.splitlines(), f"verify {doc}")
            return unit

        def check_infimum(path, doc):
            def unit(k: int) -> PassResult:
                rc, out, err = call_cli(
                    cli, ["trading-function", "--payoff", str(path), "--check-infimum"])
                return gate_infimum(rc, out, err, f"check-infimum {doc}")
            return unit

        units = []
        for path, doc in zip(files, docs):
            units += [(f"verify {path.name}", verify(path, doc)),
                      (f"check-infimum {path.name}", check_infimum(path, doc))]
        return Workload(dict(sizes, cases=len(files), verify_seed=verify_seed),
                        files, len(units), units)

    # audit_truncated
    files = write([TRUNCATED])
    verify_seed = rng.randrange(2**31)

    def verify_truncated(k: int) -> PassResult:
        try:
            spec = payoffs.parse_payoff_file(files[0].read_text(encoding="utf-8"))
            profile = replication.ReplicationProfile(spec)
            results = checks.run_verification(
                profile, seed=verify_seed, samples=sizes["samples"])
            rc, lines = 0, [r.line() for r in results]
        except Exception:  # noqa: BLE001 - reported as a failed operation
            rc, lines = None, [traceback.format_exc()]
        return gate_verify_lines(rc, lines, f"verify {TRUNCATED}")

    return Workload(dict(sizes, verify_seed=verify_seed), files, 1,
                    [("verify", verify_truncated)])
