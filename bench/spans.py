"""Per-layer tracing from outside the program.

While a Tracer is installed, the module attributes and class methods that
cfmmrep calls through are replaced by timing wrappers; uninstalling puts the
originals back.  Each wrapper pushes a frame on a stack, so a call knows
its parent layer, and on return adds its duration to the parent's child
time.  A layer's self time is its duration minus that child time.

Hot leaf layers (millions of calls) are only aggregated per (layer, route,
parent layer) into a call count, a total time and a self time.  Coarse
layers are aggregated the same way and also kept as spans (id, parent span,
name, start, end, pass) in memory until the run writes them out.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _route_g(profile, p, opts=None, method="auto"):
    if method != "quadrature" and profile.g_closed_form is not None:
        return "closed" if profile.payoff.catalog is not None else "exact"
    return "quadrature"


def _route_g_inverse(profile, r2):
    return "closed" if profile.g_inverse_closed_form is not None else "bisection"


def _route_psi(tf, r1, r2):
    return "closed" if tf.profile.psi_closed_form is not None else "numeric"


def patch_table():
    """(owner, attribute, layer, route function, keep spans) per call site.

    A function imported by name into several modules is patched in each,
    since each module calls through its own global.
    """
    from cfmmrep import (cfmm, checks, cli, payoffs, quadrature, replication, rng,
                         simulate)

    profile = replication.ReplicationProfile
    table = [
        (rng.SplitMix64, "normal", "rng.normal", None, False),
        (rng, "norm_inv", "normal.norm_inv", None, False),
        (profile, "g", "replication.g", _route_g, False),
        (profile, "g_inverse_value", "replication.g_inverse", _route_g_inverse, False),
        (profile, "__init__", "replication.profile_build", None, True),
        (cli, "main", "cli.main", None, True),
    ]
    for module in (simulate, checks):
        table += [
            (module, "gbm_path", "simulate.gbm_path", None, True),
            (module, "run_arbitrage", "simulate.run_arbitrage", None, True),
            (module, "arbitrage_to_price", "cfmm.arbitrage_to_price", None, False),
        ]
    for module in (cfmm, checks, cli):
        table += [
            (module, "trading_function_eval", "cfmm.trading_function_eval", _route_psi, False),
            (module, "trading_function_infimum", "cfmm.trading_function_infimum", None, True),
        ]
    for module in (checks, cli):
        table.append((module, "run_verification", "checks.run_verification", None, True))
    for module in (payoffs, cli):
        table.append((module, "parse_payoff_file", "payoffs.parse_payoff_file", None, True))
    table.append((checks, "portfolio_value_integral",
                  "replication.portfolio_value_integral", None, True))
    for module in (quadrature, replication):
        table.append((module, "adaptive_simpson", "quadrature.adaptive_simpson", None, False))
    return table


class Tracer:
    """Collects per-layer counts and times while installed."""

    def __init__(self):
        # frame: [layer, child seconds, id of the nearest enclosing span]
        self.stack = []
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.spans = []
        self.pass_id = 0
        self.integrand_evals = 0
        self.nonconverged = 0
        self._saved = []

    def _wrap(self, fn, layer, route_of, keep_span):
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            route = route_of(*args, **kwargs) if route_of is not None else ""
            parent = stack[-1] if stack else None
            span_id = len(spans) + 1 if keep_span else (parent[2] if parent else 0)
            if keep_span:
                spans.append(None)  # reserve the id; filled in on return
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                entry = agg[layer, route, parent[0] if parent else ""]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if keep_span:
                    spans[span_id - 1] = (span_id, parent[2] if parent else 0,
                                          layer, start, end, self.pass_id)

        return wrapper

    def _wrap_simpson(self, fn):
        """adaptive_simpson, also counting integrand calls and unconverged results."""
        def run(f, a, b, *rest, **kwargs):
            def counted(x):
                self.integrand_evals += 1
                return f(x)

            result = fn(counted, a, b, *rest, **kwargs)
            if not result.converged:
                self.nonconverged += 1
            return result

        return self._wrap(run, "quadrature.adaptive_simpson", None, False)

    def install(self):
        for owner, attr, layer, route_of, keep_span in patch_table():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if layer == "quadrature.adaptive_simpson":
                wrapper = self._wrap_simpson(original)
            else:
                wrapper = self._wrap(original, layer, route_of, keep_span)
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reading the aggregate ---------------------------------------------

    def totals(self, layer, route=None, parent=None):
        """(calls, total s, self s) summed over matching aggregate entries."""
        calls = total = own = 0.0
        for (name, r, p), (n, t, s) in self.agg.items():
            if name == layer and route in (None, r) and parent in (None, p):
                calls += n
                total += t
                own += s
        return calls, total, own


def layer_metrics(tracer: Tracer, passes: int, traced_wall_s: float) -> dict:
    """Per-layer metrics, per traced pass or per call; name -> (value, unit)."""
    out = {}

    def per_call(total, calls, scale):
        return total / calls * scale if calls else 0.0

    def calls_and_time(layer, unit, scale, suffix="", route=None, own=False):
        calls, total, self_s = tracer.totals(layer, route)
        out[f"{layer}.calls{suffix}"] = (calls / passes, "count")
        key = ("self_" if own else "") + unit
        out[f"{layer}.{key}{suffix}"] = (per_call(self_s if own else total, calls, scale), unit)

    calls_and_time("rng.normal", "us", 1e6)
    calls, total, _ = tracer.totals("normal.norm_inv")
    out["normal.norm_inv.us"] = (per_call(total, calls, 1e6), "us")
    calls_and_time("simulate.gbm_path", "ms", 1e3, own=True)
    calls_and_time("simulate.run_arbitrage", "ms", 1e3, own=True)
    calls_and_time("cfmm.arbitrage_to_price", "us", 1e6)
    calls, _, self_s = tracer.totals("cfmm.arbitrage_to_price")
    out["cfmm.arbitrage_to_price.self_us"] = (per_call(self_s, calls, 1e6), "us")

    for route in ("closed", "numeric"):
        calls_and_time("cfmm.trading_function_eval", "us", 1e6, "." + route, route)
    _, step_s, _ = tracer.totals("cfmm.arbitrage_to_price")
    _, psi_in_step_s, _ = tracer.totals("cfmm.trading_function_eval",
                                        parent="cfmm.arbitrage_to_price")
    out["cfmm.trading_function_eval.share_of_step"] = (
        psi_in_step_s / step_s if step_s else 0.0, "share")

    for route in ("closed", "bisection"):
        calls_and_time("replication.g_inverse", "us", 1e6, "." + route, route)
    inv_calls, _, _ = tracer.totals("replication.g_inverse")
    g_in_inv, _, _ = tracer.totals("replication.g", parent="replication.g_inverse")
    out["replication.g_inverse.g_evals_per_call"] = (
        g_in_inv / inv_calls if inv_calls else 0.0, "count")

    for route in ("closed", "exact", "quadrature"):
        calls_and_time("replication.g", "us", 1e6, "." + route, route)
    _, quad_s, _ = tracer.totals("replication.g", "quadrature")
    out["replication.g.share_of_pass.quadrature"] = (
        quad_s / traced_wall_s if traced_wall_s else 0.0, "share")

    calls_and_time("quadrature.adaptive_simpson", "us", 1e6)
    simpson_calls = tracer.totals("quadrature.adaptive_simpson")[0]
    out["quadrature.adaptive_simpson.integrand_evals"] = (
        tracer.integrand_evals / passes, "count")
    out["quadrature.adaptive_simpson.evals_per_call"] = (
        tracer.integrand_evals / simpson_calls if simpson_calls else 0.0, "count")
    out["quadrature.adaptive_simpson.nonconverged"] = (tracer.nonconverged / passes, "count")

    calls_and_time("cfmm.trading_function_infimum", "ms", 1e3)
    calls_and_time("replication.portfolio_value_integral", "ms", 1e3)
    calls_and_time("replication.profile_build", "ms", 1e3)
    calls_and_time("checks.run_verification", "s", 1.0, own=True)
    calls_and_time("cli.main", "ms", 1e3, own=True)
    calls_and_time("payoffs.parse_payoff_file", "ms", 1e3)
    out["trace.spans_per_pass"] = (len(tracer.spans) / passes, "count")
    return out
