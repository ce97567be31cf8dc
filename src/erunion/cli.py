"""Command-line interface.

Subcommands: ``nmin`` (minimum union size), ``probbound`` (probability lower
bound), ``tables`` (reference tables as CSV), ``mc`` (Monte-Carlo run with
analytic bounds side by side), ``oracle`` (exact enumeration vs closed
forms). Every subcommand supports ``--json``. Exit codes: 0 success,
2 domain/validation error, 3 capability error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__, tables
from .bounds import (bound_report, connectivity_probability_bound,
                     expected_lambda2_bounds, n_min, n_min_asymptotic,
                     union_effective_params)
from .errors import CapabilityError, InfeasibleError, ValidationError
from .graphs import ModelParams, sample_union, write_edgelist
from .moments import eigenvalue_moment
from .montecarlo import McConfig, run_mc
from .oracle import enumerate_exact
from .rng import trial_seed

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CAPABILITY = 3


def _dump_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _printed_size(value: int) -> int | float:
    """A union size as printed: a float beyond 2**53, where JSON readers lose
    integer precision (such doubles are integer-valued anyway)."""
    return value if value <= 2 ** 53 else float(value)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return value


def _cmd_nmin(args) -> int:
    params = ModelParams(args.n, args.p)
    asym = n_min_asymptotic(args.p)
    res = n_min(params)  # InfeasibleError propagates to main()
    rounded_up = _printed_size(res.rounded_up)
    if args.json:
        _dump_json({"n": args.n, "p": args.p, "exact_real": res.exact_real,
                    "rounded_up": rounded_up, "asymptotic": asym})
    elif args.csv:
        print("n,p,exact_real,rounded_up,asymptotic")
        print(f"{args.n},{args.p},{res.exact_real!r},{rounded_up},{asym!r}")
    else:
        print(f"n={args.n} p={args.p}")
        print(f"N_min exact value : {res.exact_real}")
        print(f"N_min (rounded up): {rounded_up}")
        print(f"large-n asymptote : {asym} (~{_printed_size(round(asym))})")
    return EXIT_OK


def _cmd_probbound(args) -> int:
    params = ModelParams(args.n, args.p)
    res = connectivity_probability_bound(params, args.N)
    n_min_rounded = _printed_size(res.n_min_rounded)
    if res.status == "below_n_min":
        if args.json:
            _dump_json({"n": args.n, "p": args.p, "N": args.N,
                        "status": res.status, "n_min": n_min_rounded,
                        "value": None})
        print(f"error: N={args.N} is below N_min={n_min_rounded}; "
              f"the bound is not certified", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        _dump_json({"n": args.n, "p": args.p, "N": args.N, "status": res.status,
                    "value": res.value, "n_min": n_min_rounded,
                    "theta": res.theta, "lambda_min": res.lambda_min})
    else:
        print(f"{res.value:.{args.precision}f}")
    return EXIT_OK


def _cmd_tables(args) -> int:
    if args.which == 1:
        rows = tables.table1()
        if args.json:
            _dump_json({"table": 1, "ns": list(tables.TABLE1_NS),
                        "rows": [{"p": p, "n_min": vals} for p, vals in rows]})
        else:
            print("p," + ",".join(str(n) for n in tables.TABLE1_NS))
            for p, vals in rows:
                print(f"{p}," + ",".join(str(v) for v in vals))
        return EXIT_OK

    # tables 2 and 3: one varied column (p or N) and the probability bound
    if args.which == 2:
        rows = tables.table2()
        fixed = {"n": tables.TABLE2_N, "N": tables.TABLE2_UNION}
        column = "p"
    else:
        rows = tables.table3()
        fixed = {"n": tables.TABLE3_N, "p": tables.TABLE3_P}
        column = "N"
    if args.json:
        _dump_json({"table": args.which, **fixed,
                    "rows": [{column: x, "prob_lower_bound": v} for x, v in rows]})
    else:
        print(f"{column},prob_lower_bound")
        for x, v in rows:
            print(f"{x},{v:.{args.precision}f}")
    return EXIT_OK


def _cmd_mc(args) -> int:
    params = ModelParams(args.n, args.p)
    config = McConfig(params=params, num_graphs=args.N, trials=args.trials,
                      master_seed=args.seed, workers=args.workers)
    report = bound_report(params, args.N)  # rejects degenerate inputs before sampling
    estimate = run_mc(config)
    if args.dump_graphs is not None:
        outdir = Path(args.dump_graphs)
        outdir.mkdir(parents=True, exist_ok=True)
        for t in range(args.trials):
            g = sample_union(params, args.N, trial_seed(args.seed, t))
            with open(outdir / f"trial_{t:06d}.edges", "w") as fp:
                write_edgelist(g, fp)
    # the worker count is an execution detail and is deliberately absent:
    # identical seeds must give identical JSON for any worker count
    payload = {
        "config": {"n": args.n, "p": args.p, "num_graphs": args.N,
                   "trials": args.trials, "master_seed": args.seed},
        "estimate": dataclasses.asdict(estimate),
        "bounds": dataclasses.asdict(report),
    }
    _dump_json(payload)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    u = union_effective_params(ModelParams(args.n, args.p), args.N)
    hat = ModelParams(args.n, u.p_hat)
    report = enumerate_exact(hat)
    analytic = {k: eigenvalue_moment(hat, k) for k in (1, 2, 3, 4)}
    max_rel = max(abs(report.eigenvalue_moments[k] - analytic[k]) / abs(analytic[k])
                  for k in (1, 2, 3, 4))
    e_lo, e_hi = expected_lambda2_bounds(u)
    payload = {
        "n": args.n,
        "p": args.p,
        "num_graphs": args.N,
        "effective_p": report.p,
        "exact": {
            "eigenvalue_moments": report.eigenvalue_moments,
            "expected_trace_lk": report.expected_trace_lk,
            "expected_lambda2": report.expected_lambda2,
            "prob_connected": report.prob_connected,
            "prob_lambda2_ge_lambda_min": report.prob_lambda2_ge_lambda_min,
            "weight_total": report.weight_total,
        },
        "analytic_moments": analytic,
        "max_rel_moment_error": max_rel,
        "expected_lambda2_bounds": {"lower": e_lo, "upper": e_hi},
    }
    _dump_json(payload)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erunion",
        description="Connectivity bounds for unions of Erdos-Renyi random graphs")
    parser.add_argument("--version", action="version", version=f"erunion {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_nmin = sub.add_parser("nmin", help="minimum union size for the expected-connectivity criterion")
    p_nmin.add_argument("--n", type=int, required=True)
    p_nmin.add_argument("--p", type=float, required=True)
    fmt = p_nmin.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_nmin.set_defaults(func=_cmd_nmin)

    p_prob = sub.add_parser("probbound", help="lower bound on P[lambda_2(union) >= lambda_min]")
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--p", type=float, required=True)
    p_prob.add_argument("--N", type=int, required=True)
    p_prob.add_argument("--json", action="store_true")
    p_prob.add_argument("--precision", type=_nonnegative_int, default=3)
    p_prob.set_defaults(func=_cmd_probbound)

    p_tab = sub.add_parser("tables", help="regenerate a reference table as CSV")
    p_tab.add_argument("which", type=int, choices=(1, 2, 3))
    p_tab.add_argument("--json", action="store_true")
    p_tab.add_argument("--precision", type=_nonnegative_int, default=3)
    p_tab.set_defaults(func=_cmd_tables)

    p_mc = sub.add_parser("mc", help="Monte-Carlo run with analytic bounds (JSON report)")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--p", type=float, required=True)
    p_mc.add_argument("--N", type=int, required=True)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument("--workers", type=int, default=1,
                      help="worker threads, at most one per usable CPU, sharing the "
                           "trial chunks on one OpenBLAS thread (default: 1)")
    p_mc.add_argument("--json", action="store_true")  # JSON is already the output format
    p_mc.add_argument("--dump-graphs", metavar="DIR", default=None,
                      help="write each trial's union graph as an edge-list file (debugging)")
    p_mc.set_defaults(func=_cmd_mc)

    p_or = sub.add_parser("oracle", help="exact enumeration vs closed forms (JSON report)")
    p_or.add_argument("--n", type=int, required=True)
    p_or.add_argument("--p", type=float, required=True)
    p_or.add_argument("--N", type=int, default=1)
    p_or.add_argument("--json", action="store_true")  # JSON is already the output format
    p_or.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
