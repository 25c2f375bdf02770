"""Command-line front end.

Subcommands: replicate (tabulate p, f, g, V), trading-function (tabulate
the invariant over risky reserves), simulate (Monte Carlo arbitrage
earnings), verify (invariant checks), catalog (list payoff families).
Tables are CSV with 17-significant-digit numbers, so values round-trip.

Exit codes: 0 success, 1 validation or verification failure, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .cfmm import TradingFunction, trading_function_eval, trading_function_infimum
from .checks import run_verification, sample_price_range
from .errors import CfmmRepError, PayoffParseError
from .payoffs import (
    FAMILIES,
    PayoffSpec,
    PriceInterval,
    family,
    make_catalog_payoff,
    natural_interval,
    parse_payoff_document,
    parse_payoff_file,
)
from .replication import ReplicationProfile, g_inverse
from .simulate import GbmParams, earnings_mean_stderr, monte_carlo_reports


def _parse_bound(text: str) -> float:
    if text == "inf":
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise PayoffParseError(f"expected a number or 'inf', got {text!r}") from None


def load_payoff(cfg: argparse.Namespace) -> PayoffSpec:
    """Resolve --payoff (file path or catalog:NAME plus --param) to a spec
    on an interval of nonzero width."""
    if cfg.payoff_source.startswith("catalog:"):
        doc = {}
        for item in cfg.params:
            key, sep, value = item.partition("=")
            if not sep:
                raise PayoffParseError(f"--param expects key=value, got {item!r}")
            if key in ("catalog", "alpha", "beta"):
                raise PayoffParseError(f"--param {key} is not a catalog parameter")
            doc[key] = _parse_bound(value)
        doc["catalog"] = cfg.payoff_source[len("catalog:"):]
        if cfg.alpha is not None:
            doc["alpha"] = cfg.alpha
        if cfg.beta is not None:
            doc["beta"] = cfg.beta
        spec = parse_payoff_document(doc)
    else:
        if cfg.params:
            raise PayoffParseError("--param only applies to catalog payoffs")
        with open(cfg.payoff_source, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise PayoffParseError(
                    f"{cfg.payoff_source} is not UTF-8 text: {exc.reason}") from None
        spec = parse_payoff_file(text)
        if cfg.alpha is not None or cfg.beta is not None:
            interval = PriceInterval(
                cfg.alpha if cfg.alpha is not None else spec.interval.alpha,
                cfg.beta if cfg.beta is not None else spec.interval.beta)
            if spec.catalog is not None:
                spec = make_catalog_payoff(spec.catalog, interval)
            else:
                spec = PayoffSpec(spec.segments, spec.jumps, interval)
    if spec.interval.alpha == spec.interval.beta:
        raise PayoffParseError(
            f"replication interval [{spec.interval.alpha}, {spec.interval.beta}] "
            "is empty: alpha must be below beta")
    return spec


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(cfg: argparse.Namespace, lines) -> None:
    text = "".join(line + "\n" for line in lines)
    if cfg.out is None or cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _price_grid(profile: ReplicationProfile, n: int):
    """Log-spaced prices: from alpha when positive, else from the first
    breakpoint; capped at beta or a 100x span.  Each is clamped to
    [alpha, beta], which rounding in exp and log can overstep by an ulp."""
    alpha, beta = profile.interval.alpha, profile.interval.beta
    bps = profile.payoff.breakpoints
    if profile.interval.bounded:
        hi = beta
    else:
        hi = max(max(bps, default=1.0), alpha, 1.0) * 100.0
    lo = alpha if alpha > 0.0 else (min(bps) if bps else hi / 100.0)
    if not lo < hi:
        lo = hi / 100.0
    step = (math.log(hi) - math.log(lo)) / (n - 1)
    return [min(max(math.exp(math.log(lo) + i * step), alpha), beta) for i in range(n)]


def cmd_replicate(cfg: argparse.Namespace) -> int:
    profile = ReplicationProfile(load_payoff(cfg))
    lines = ["p,f,g,V"]
    for p in _price_grid(profile, cfg.grid):
        f = profile.payoff.value(p)
        g = profile.g(p)
        lines.append(f"{_fmt(p)},{_fmt(f)},{_fmt(g)},{_fmt(f + p * g)}")
    _write(cfg, lines)
    return 0


def cmd_trading_function(cfg: argparse.Namespace) -> int:
    profile = ReplicationProfile(load_payoff(cfg))
    tf = TradingFunction(profile)
    r2_hi = profile.g_alpha
    if math.isinf(r2_hi):
        lo, _ = sample_price_range(profile)
        r2_hi = profile.g(lo)
        print(f"warning: risky reserve range is unbounded; tabulating up to "
              f"g({_fmt(lo)}) = {_fmt(r2_hi)}", file=sys.stderr)
    header = "r2,g_inv,psi_at_zero_r1" + (",psi_inf" if cfg.check_infimum else "")
    lines = [header]
    mismatch = False
    for i in range(cfg.grid):
        r2 = min(r2_hi * i / (cfg.grid - 1), r2_hi)  # the last row is exactly r2_hi
        try:
            psi = trading_function_eval(tf, 0.0, r2)
        except CfmmRepError as exc:
            print(f"warning: skipping r2={_fmt(r2)}: {exc}", file=sys.stderr)
            continue
        row = f"{_fmt(r2)},{_fmt(g_inverse(profile, r2))},{_fmt(psi)}"
        if cfg.check_infimum:
            psi_inf = trading_function_infimum(tf, 0.0, r2, 512)
            row += f",{_fmt(psi_inf)}"
            if abs(psi - psi_inf) > 1e-6 * max(1.0, abs(psi), abs(psi_inf)):
                mismatch = True
                print(f"mismatch at r2={_fmt(r2)}: psi={psi!r} inf={psi_inf!r}",
                      file=sys.stderr)
        lines.append(row)
    _write(cfg, lines)
    return 1 if mismatch else 0


def cmd_simulate(cfg: argparse.Namespace) -> int:
    payoff = load_payoff(cfg)
    profile = ReplicationProfile(payoff)
    params = GbmParams(p_start=cfg.p_start, sigma=cfg.sigma, horizon=cfg.horizon,
                       steps=cfg.steps, seed=cfg.seed)
    # One report at a time; the rows are written only once every path has run.
    lines, totals = ["path_id,w,payoff_term,path_term"], []
    for i, rep in enumerate(monte_carlo_reports(profile, params, cfg.paths)):
        totals.append(rep.total_w)
        lines.append(f"{i},{_fmt(rep.total_w)},{_fmt(rep.payoff_term)},"
                     f"{_fmt(rep.path_term)}")
    mean, stderr = earnings_mean_stderr(totals)
    _write(cfg, lines)

    # A cut interval clamps the paths and changes the expected earnings.
    theory = ""
    earnings = family(payoff.catalog).earnings if payoff.catalog is not None else None
    if earnings is not None and payoff.interval == natural_interval(payoff.catalog):
        theory = _fmt(earnings(cfg.sigma, cfg.horizon))
    print(f"{_fmt(mean)},{_fmt(stderr)},{theory}")
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    profile = ReplicationProfile(load_payoff(cfg))
    results = run_verification(profile, seed=cfg.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_catalog(cfg: argparse.Namespace) -> int:
    entries = FAMILIES
    if cfg.catalog_entry is not None:
        name = cfg.catalog_entry.removeprefix("catalog:")
        entries = [fam for fam in FAMILIES if fam.name == name]
        if not entries:
            print(f"unknown catalog payoff {name!r}", file=sys.stderr)
            return 2
    for fam in entries:
        params, constraint, closed = fam.help
        print(f"{fam.name}")
        print(f"  parameters: {params}")
        print(f"  validity:   {constraint}")
        print(f"  closed forms: {closed}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmmrep",
        description="Build and probe replicating market makers for monotone payoffs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_payoff_flags(p):
        p.add_argument("--payoff", required=True, dest="payoff_source",
                       help="payoff JSON file, or catalog:NAME with --param")
        p.add_argument("--param", action="append", default=[], dest="params",
                       metavar="KEY=VALUE", help="catalog parameter (repeatable)")
        p.add_argument("--alpha", type=_parse_bound, default=None,
                       help="lower price bound override")
        p.add_argument("--beta", type=_parse_bound, default=None,
                       help="upper price bound override (number or 'inf')")

    p = sub.add_parser("replicate", help="tabulate p, f, g, V as CSV")
    add_payoff_flags(p)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--out", default=None)

    p = sub.add_parser("trading-function", help="tabulate the invariant over r2")
    add_payoff_flags(p)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--out", default=None)
    p.add_argument("--check-infimum", action="store_true",
                   help="cross-check against the infimum oracle; exit 1 on mismatch")

    p = sub.add_parser("simulate", help="Monte Carlo arbitrage earnings")
    add_payoff_flags(p)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--p-start", type=float, default=1.0, dest="p_start",
                   help="initial price of the simulated paths")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run invariant checks against a payoff")
    add_payoff_flags(p)
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("catalog", help="list built-in payoff families")
    p.add_argument("catalog_entry", nargs="?", default=None, metavar="name",
                   help="show one family in detail")
    return parser


_COMMANDS = {
    "replicate": cmd_replicate,
    "trading-function": cmd_trading_function,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "catalog": cmd_catalog,
}


# Built on the first call and reused: a parse leaves the parser unchanged
# (an appended --param list is a copy of its default), and building one
# costs about 1 ms.
_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.command == "replicate" or args.command == "trading-function":
        if args.grid < 2:
            parser.error("--grid must be at least 2")
    try:
        return _COMMANDS[args.command](args)
    except (PayoffParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CfmmRepError, ArithmeticError, ValueError) as exc:
        # Library errors, and float overflow on inputs near the float range.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
