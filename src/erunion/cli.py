"""Command-line interface.

Subcommands: ``nmin`` (minimum union size), ``probbound`` (probability lower
bound), ``tables`` (reference tables as CSV), ``mc`` (Monte-Carlo run with
analytic bounds side by side), ``oracle`` (exact enumeration vs closed
forms). Every subcommand supports ``--json``. Exit codes: 0 success,
2 domain/validation error, 3 capability error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, rng, tables
from .bounds import INFEASIBLE_N2, bound_report, n_min, n_min_asymptotic
from .errors import CapabilityError, InfeasibleError, ValidationError
from .graphs import ModelParams, pair_arrays
from .moments import eigenvalue_moment
from .montecarlo import McConfig, run_mc
from .oracle import exact_union_report

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_CAPABILITY = 3

# no float64 has more than 1074 decimals after the point (2**-1074 has
# exactly that many), so a larger precision would print only more zeros
MAX_PRECISION = 1074


def _dump_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _printed_size(value: int | None) -> int | float | None:
    """A union size as printed: a float beyond 2**53, where JSON readers lose
    integer precision (such doubles are integer-valued anyway); None as is."""
    return float(value) if value is not None and value > 2 ** 53 else value


def _precision(text: str) -> int:
    """A ``--precision`` value: decimals after the point, at most
    :data:`MAX_PRECISION`."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value <= MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"must be an integer from 0 to {MAX_PRECISION}, got {text!r}")
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
    rep = bound_report(ModelParams(args.n, args.p), args.N)
    n_min_rounded = _printed_size(rep.n_min)
    if rep.prob_status in ("infeasible", "below_n_min"):
        if args.json:
            _dump_json({"n": args.n, "p": args.p, "N": args.N,
                        "status": rep.prob_status, "n_min": n_min_rounded,
                        "value": None})
        message = (INFEASIBLE_N2 if rep.prob_status == "infeasible" else
                   f"N={args.N} is below N_min={n_min_rounded}; the bound is not certified")
        print(f"error: {message}", file=sys.stderr)
        return EXIT_DOMAIN
    if args.json:
        _dump_json({"n": args.n, "p": args.p, "N": args.N, "status": rep.prob_status,
                    "value": rep.prob_lower, "n_min": n_min_rounded,
                    "theta": rep.theta, "lambda_min": rep.lambda_min})
    else:
        print(f"{rep.prob_lower:.{args.precision}f}")
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
    if args.dump_graphs is not None:
        # a path that cannot be a directory fails at once; the directory is
        # made only after the run, so that a refused run leaves none behind
        outdir = Path(args.dump_graphs)
        nearest = next(path for path in (outdir, *outdir.parents) if os.path.exists(path))
        if not nearest.is_dir():
            raise ValidationError(f"--dump-graphs: not a directory: {str(nearest)!r}")
    estimate = run_mc(config)
    if args.dump_graphs is not None:
        # trial t's union from the two calls run_mc makes for it; its pairs
        # come ascending, hence in lexicographic order
        p_hat, _ = params.effective_probabilities(args.N)
        a, b = pair_arrays(args.n)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
            for t in range(args.trials):
                _, pair = rng.rare_pairs(rng.trial_seeds_np(args.seed, t, 1),
                                         params.num_pairs, p_hat)
                if rng.missing_is_rare(p_hat):
                    pair = np.delete(np.arange(params.num_pairs), pair)
                edges = "".join(f"{i} {j}\n" for i, j in zip(a[pair].tolist(), b[pair].tolist()))
                (outdir / f"trial_{t:06d}.edges").write_text(f"n={args.n}\n{edges}")
        except OSError as exc:
            raise ValidationError(f"--dump-graphs: {exc}") from exc
    # the worker count is an execution detail and is deliberately absent:
    # identical seeds must give identical JSON for any worker count
    payload = {
        "config": {"n": args.n, "p": args.p, "num_graphs": args.N,
                   "trials": args.trials, "master_seed": args.seed},
        "estimate": vars(estimate),
        "bounds": {**vars(report), "n_min": _printed_size(report.n_min)},
    }
    _dump_json(payload)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    params = ModelParams(args.n, args.p)
    bounds = bound_report(params, args.N)  # rejects degenerate inputs before enumerating
    report = exact_union_report(params, args.N)
    hat = ModelParams(args.n, report.p)
    analytic = {k: eigenvalue_moment(hat, k) for k in (1, 2, 3, 4)}
    max_rel = max(abs(report.eigenvalue_moments[k] - analytic[k]) / abs(analytic[k])
                  for k in (1, 2, 3, 4))
    payload = {
        "n": args.n,
        "p": args.p,
        "num_graphs": args.N,
        "effective_p": report.p,
        "exact": {k: v for k, v in vars(report).items() if k not in ("n", "p")},
        "analytic_moments": analytic,
        "max_rel_moment_error": max_rel,
        "expected_lambda2_bounds": {"lower": bounds.e_lambda2_lower,
                                    "upper": bounds.e_lambda2_upper},
        "var_lambda2_bounds": {"lower": bounds.var_lambda2_lower,
                               "upper": bounds.var_lambda2_upper},
    }
    _dump_json(payload)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
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
    p_prob.add_argument("--precision", type=_precision, default=3)
    p_prob.set_defaults(func=_cmd_probbound)

    p_tab = sub.add_parser("tables", help="regenerate a reference table as CSV")
    p_tab.add_argument("which", type=int, choices=(1, 2, 3))
    p_tab.add_argument("--json", action="store_true")
    p_tab.add_argument("--precision", type=_precision, default=3)
    p_tab.set_defaults(func=_cmd_tables)

    p_mc = sub.add_parser("mc", help="Monte-Carlo run with analytic bounds (JSON report)")
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--p", type=float, required=True)
    p_mc.add_argument("--N", type=int, required=True)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument("--workers", type=int, default=1,
                      help="workers, at most one per usable CPU: the calling thread and "
                           "W - 1 more, sharing the trial chunks (default: 1)")
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout left; what is left to write, the flush at exit
        # included, goes to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValidationError, InfeasibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPABILITY
    except MemoryError:
        print("error: out of memory; try fewer --trials or a smaller --n",
              file=sys.stderr)
        return EXIT_CAPABILITY


if __name__ == "__main__":
    sys.exit(main())
