"""cfmmrep benchmark: end-to-end timings, per-layer traces, correctness gate.

One run measures one workload for a fixed time, in one process with no
threads: a single caller that waits for each pass (a closed loop with one
client).  Run it from anywhere; it builds nothing and reads cfmmrep from the
`src` directory next to this one.

    python3 bench/run.py --workload mc_log --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --suite --runs 10 --out .bench_out/a.json
    python3 bench/run.py --compare .bench_out/a.json .bench_out/b.json
    python3 bench/run.py --list-metrics

A run times SETUP_PROBES fresh interpreters that import cfmmrep and build
the workload's profiles (setup_s is their median), one after each of the
first passes.  In-process it repeats passes until --seconds have passed,
timing each unit of a pass (one program call) on its own, with the fixed
reference computation of reference.py timed before, after and every 0.1 s
during each unit.  wall_s is the sum over units of each unit's median wall
time.  wall_ref is the same sum taken over each unit's median of (wall time
/ mean reference time meanwhile): the machine's speed drifts by up to 2x,
and this quotient cancels the drift, so wall_ref is the end-to-end time the
result line gates on.  With --trace 1, passes alternate between untraced
and traced; the per-layer metrics come from the traced passes and
trace.overhead_pct compares wall_ref of the two.

The last line of standard output is the JSON result:
{"correct", "attempted", "failed", "metrics"}, with the end_to_end metrics of
BENCHMARK.json under --trace 0 and its per_layer metrics under --trace 1.
The full record (metadata, input sizes, stdout sha256, every metric, the
failures) goes to .bench_out/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7

# Metrics kept in the record, the report and compare mode but not in the
# result line: they exist only on the mc_* workloads, or read 0 on a healthy
# run, which the contract's end-to-end metrics may not.
REPORT_ONLY = {
    "wall_s": ("s", "lower", 0.25, "wall time of one pass: the sum over its units of "
               "each unit's median wall time"),
    "steps_per_s": ("1/s", "higher", 0.25,
                    "arbitrage steps per second of pass wall time (mc_* only)"),
    "s_to_1pct": ("s", "lower", 0.25,
                  "wall_s x (stderr / (0.01 |mean W|))^2: projected seconds to a 1% "
                  "standard error on E[W] (mc_* only)"),
    "error_rate": ("share", "lower", 0.0, "failed operations over attempted ones"),
    "mean_w": ("1", "higher", None, "pooled mean of the earnings W per path (mc_* only)"),
    "stderr_w": ("1", "lower", None, "standard error of mean_w (mc_* only)"),
}
E2E_DOC = {
    "setup_s": "median wall time of a fresh interpreter that imports cfmmrep, parses "
               "the payoffs and builds each ReplicationProfile",
    "wall_ref": "cost of one pass in reference units: the sum over its units of the "
                "median of (unit wall time / reference wall time meanwhile)",
    "peak_rss_mb": "peak resident set size of the benchmark process",
}
LAYER_DOC = {
    "cfmm.trading_function_eval.share_of_step":
        "share of cfmm.arbitrage_to_price time spent evaluating psi",
    "replication.g_inverse.g_evals_per_call": "g evaluations per g_inverse call",
    "replication.g.share_of_pass.quadrature": "share of traced pass time in quadrature g",
    "quadrature.adaptive_simpson.integrand_evals": "integrand evaluations per traced pass",
    "quadrature.adaptive_simpson.evals_per_call": "integrand evaluations per call",
    "quadrature.adaptive_simpson.nonconverged": "results not converged, per traced pass",
    "setup.import_ms": "median time to import cfmmrep in a set-up probe",
    "setup.build_ms": "median time to parse and build the profiles in a set-up probe",
    "trace.spans_per_pass": "spans kept per traced pass",
    "trace.overhead_pct": "wall_ref of traced passes over that of untraced ones, minus 1",
}
SUFFIX_DOC = {
    "calls": "calls per traced pass",
    "us": "mean inclusive time per call", "ms": "mean inclusive time per call",
    "s": "mean inclusive time per call",
    "self_us": "mean self time per call", "self_ms": "mean self time per call",
    "self_s": "mean self time per call",
}


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "git_sha": git_sha()}


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 2**20 if sys.platform == "darwin" else kib / 2**10


def probe_setup(files) -> dict:
    """Time one fresh interpreter that imports cfmmrep and builds the profiles."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("setup_probe.py")), str(SRC)]
        + [str(f) for f in files],
        capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    inner = json.loads(proc.stdout.splitlines()[-1])
    return {"wall_s": wall, **inner}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Measure one workload; returns the full record."""
    sys.path.insert(0, str(SRC))
    import cfmmrep
    import reference
    import spans
    import workloads

    if Path(cfmmrep.__file__).resolve().parent != SRC / "cfmmrep":
        raise RuntimeError(f"imported cfmmrep from {cfmmrep.__file__}, not {SRC}")
    wl = workloads.build(name, seed, OUT / "work" / f"{name}-seed{seed}", small)

    tracer = spans.Tracer() if trace else None
    # traced? -> unit label -> [(wall seconds, wall / reference), ...]
    timings = {False: {}, True: {}}
    pass_sha = []
    attempted, failures, summaries = 0, [], []
    reference.reference_work()  # first call warms the interpreter's caches
    speedometer = reference.Speedometer()

    def one_pass(k: int, with_trace: bool):
        nonlocal attempted
        if with_trace:
            tracer.pass_id = k
            tracer.install()
        stdout = []
        try:
            for label, unit in wl.units:
                res, elapsed, ref = speedometer.run(unit, k)
                timings[with_trace].setdefault(label, []).append((elapsed, elapsed / ref))
                attempted += res.attempted
                failures.extend(res.failures)
                summaries.extend(res.summaries)
                stdout.append(res.stdout)
        finally:
            if with_trace:
                tracer.uninstall()
        pass_sha.append(hashlib.sha256("".join(stdout).encode()).hexdigest())

    def per_pass(with_trace: bool, column: int) -> float:
        """Sum over units of the unit's median wall time (0) or reference ratio (1)."""
        return sum(statistics.median(t[column] for t in runs)
                   for runs in timings[with_trace].values())

    # Set-up probes run between the first passes, so that they sample the
    # machine's speed over the run rather than at one moment.
    probes = []
    start = time.perf_counter()
    k = 0
    while True:
        one_pass(k, trace and k % 2 == 1)
        k += 1
        if len(probes) < SETUP_PROBES:
            probes.append(probe_setup(wl.payoff_files))
        if time.perf_counter() - start >= seconds and (timings[True] or not trace):
            break
    while len(probes) < SETUP_PROBES:
        probes.append(probe_setup(wl.payoff_files))

    if wl.theory_mean is not None:
        res = workloads.gate_mean(summaries, wl.theory_mean)
        attempted += res.attempted
        failures.extend(res.failures)

    traced_passes = k // 2 if trace else 0
    wall = per_pass(False, 0)
    metrics = {
        "wall_ref": (per_pass(False, 1), "ref"),
        "setup_s": (statistics.median(p["wall_s"] for p in probes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "wall_s": (wall, "s"),
        "error_rate": (len(failures) / attempted, "share"),
        "setup.import_ms": (statistics.median(p["import_s"] for p in probes) * 1e3, "ms"),
        "setup.build_ms": (statistics.median(p["build_s"] for p in probes) * 1e3, "ms"),
    }
    if summaries:
        mean, stderr = workloads.pooled(summaries)
        one_pass_stderr = stderr * math.sqrt(len(summaries))
        metrics["steps_per_s"] = (wl.items_per_pass / wall, "1/s")
        metrics["s_to_1pct"] = (wall * (one_pass_stderr / (0.01 * abs(mean))) ** 2, "s")
        metrics["mean_w"] = (mean, "1")
        metrics["stderr_w"] = (stderr, "1")
    if trace:
        traced_wall = sum(t[0] for runs in timings[True].values() for t in runs)
        metrics.update(spans.layer_metrics(tracer, traced_passes, traced_wall))
        metrics["trace.overhead_pct"] = (
            (per_pass(True, 1) / metrics["wall_ref"][0] - 1.0) * 100.0, "%")

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "why": next(w["why"] for w in contract()["workloads"] if w["name"] == name),
        "sizes": wl.sizes, "meta": metadata(),
        "stdout_sha256": pass_sha[0], "pass_sha256": pass_sha,
        "passes": {"untraced": k - traced_passes, "traced": traced_passes},
        "unit_timings": {"untraced": timings[False], "traced": timings[True]},
        "setup_probes": probes,
        "attempted": attempted, "failed": len(failures), "failures": failures[:50],
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    if trace:
        record["spans"] = [s for s in tracer.spans if s is not None]
    return record


def result_line(record: dict) -> dict:
    """The contract's result object: its metrics, exactly, for this mode."""
    names = [m["name"] for m in contract()["per_layer" if record["trace"] else "end_to_end"]]
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: record["metrics"][n] for n in names}}


def record_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"{name}-seed{seed}-trace{trace}.json"


def cmd_run(args) -> int:
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = result_line(record)
    OUT.mkdir(exist_ok=True)
    path = record_path(args.workload, args.seed, args.trace)
    spans_list = record.pop("spans", None)
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    if spans_list is not None:
        path.with_suffix(".spans.json").write_text(json.dumps(spans_list), encoding="utf-8")
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"passes={record['passes']} "
          f"{json.dumps(record['meta'])}")
    print(f"# sizes {json.dumps(record['sizes'])}  stdout_sha256 {record['stdout_sha256']}")
    for failure in record["failures"][:10]:
        print(f"# FAILED {failure}")
    for name, m in record["metrics"].items():
        print(f"# {name:52s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


# ---------------------------------------------------------------------------
# Suites of runs, spreads and comparison
# ---------------------------------------------------------------------------

def bounds() -> dict:
    """name -> (unit, better, bound or None) for every metric compare knows."""
    c = contract()
    out = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in c["end_to_end"]}
    out.update({n: (u, b, bound) for n, (u, b, bound, _) in REPORT_ONLY.items()})
    out.update({m["name"]: (m["unit"], m["better"], None) for m in c["per_layer"]})
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def cmd_suite(args) -> int:
    names = args.workload_list or [w["name"] for w in contract()["workloads"]]
    suite = {"meta": metadata(), "seconds": args.seconds, "trace": args.trace, "runs": {}}
    for i in range(args.runs):
        seed = args.first_seed + i
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            record = json.loads(record_path(name, seed, args.trace).read_text())
            suite["runs"].setdefault(name, []).append(record)
            line = json.loads(proc.stdout.splitlines()[-1])
            print(f"{name} seed={seed} correct={line['correct']} failed={line['failed']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()
                             if not args.trace), flush=True)
    Path(args.out).write_text(json.dumps(suite), encoding="utf-8")
    print(f"\nspread = (q3 - q1) / median over {args.runs} runs; "
          "'!' marks a spread above a third of the bound")
    known = bounds()
    for name, records in suite["runs"].items():
        for metric, (unit, _, bound) in known.items():
            values = [r["metrics"][metric]["value"] for r in records if metric in r["metrics"]]
            if not values or (bound is None and args.trace == 0):
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            flag = "!" if bound and s > bound / 3 else " "
            print(f"{flag} {name:16s} {metric:44s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {s:.4f} bound {bound} {unit}")
    return 0


def cmd_compare(args) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in args.compare)
    known = bounds()
    print(f"old {args.compare[0]} ({old['meta']['git_sha'][:12]}), "
          f"new {args.compare[1]} ({new['meta']['git_sha'][:12]})")
    print("delta is the change of the median in the worse direction, as a share of the "
          "old median; unresolved when a side's quartile spread exceeds the bound")
    for name in [w for w in old["runs"] if w in new["runs"]]:
        for metric, (unit, better, bound) in known.items():
            a = [r["metrics"][metric]["value"] for r in old["runs"][name]
                 if metric in r["metrics"]]
            b = [r["metrics"][metric]["value"] for r in new["runs"][name]
                 if metric in r["metrics"]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            sign = 1.0 if better == "lower" else -1.0
            if bound == 0.0:  # any increase is a regression (error_rate)
                worse = sign * (qb[1] - qa[1])
            else:
                worse = sign * (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            if bound is None:
                verdict = "info"
            elif max(sign * x for x in b) < min(sign * x for x in a):
                verdict = "better"
            elif bound and max(spread(a), spread(b)) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            print(f"{name:16s} {metric:44s} {unit:6s} old {qa[1]:<11.5g} "
                  f"[{qa[0]:.5g}, {qa[2]:.5g}]  new {qb[1]:<11.5g} "
                  f"[{qb[0]:.5g}, {qb[2]:.5g}]  delta {worse:+.4f} bound {bound}  {verdict}")
    return 0


def cmd_list_metrics(args) -> int:
    c = contract()
    print("end-to-end (result line under --trace 0):")
    for m in c["end_to_end"]:
        print(f"  {m['name']:40s} {m['unit']:6s} {m['better']:6s} bound {m['bound']}  "
              f"{E2E_DOC[m['name']]}")
    print("end-to-end, in the record and report only:")
    for name, (unit, better, bound, doc) in REPORT_ONLY.items():
        print(f"  {name:40s} {unit:6s} {better:6s} bound {bound}  {doc}")
    print("per-layer (result line under --trace 1), per traced pass or per call:")
    for m in c["per_layer"]:
        parts = m["name"].split(".")
        doc = (LAYER_DOC.get(m["name"]) or SUFFIX_DOC.get(parts[-1])
               or SUFFIX_DOC.get(parts[-2], ""))
        print(f"  {m['name']:52s} {m['unit']:6s} {doc}")
    print("workloads:")
    for w in c["workloads"]:
        print(f"  {w['name']:16s} {w['why']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", dest="workload_list", default=[])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int,
                        help="measuring time of a run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", action="store_true",
                        help="run every workload --runs times with seeds from --first-seed")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(OUT / "suite.json"))
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    parser.add_argument("--list-metrics", action="store_true")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "cfmmrep" / "__init__.py", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"error: {', '.join(map(str, missing))} not found; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.compare:
        return cmd_compare(args)
    if args.list_metrics:
        return cmd_list_metrics(args)
    if args.seconds is None:
        args.seconds = contract()["run_seconds"]
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    OUT.mkdir(exist_ok=True)
    if args.suite:
        return cmd_suite(args)
    if len(args.workload_list) != 1 or args.seed is None:
        parser.error("a run needs one --workload and a --seed")
    args.workload = args.workload_list[0]
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
