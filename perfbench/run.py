#!/usr/bin/env python3
"""Benchmark for erunion: Monte-Carlo unions, the exact sweep, and a traced run.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload mc-dense --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``mc-dense``, ``mc-threshold`` and
``exact-sweep``; the reason for each is recorded in ``BENCHMARK.json``. A run
sets the workload up in this process, times set-up again in fresh
interpreters (``setup_s`` and ``peak_rss_mb`` are their medians), then runs
operations in a closed loop for ``--seconds``, checking every output.

Speed is taken per window of whole work (three ``mc`` calls, or one pass of
the sweep) at the 10th percentile over the run's windows: the host's speed
swings by about a fifth within seconds, and the fast windows track the
program rather than the load beside it. ``call_s_p50`` is the median
operation time within a window, taken the same way.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates traced
and untraced operations and reports the per-layer metrics (see
``tracing.py``). Every metric is printed by name with its unit; the last
stdout line is the JSON result. Spans and the host block go to
``.bench_out/`` at the repository root.
"""
from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import host  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
OUT_DIR = REPO / ".bench_out"

# fresh interpreters whose set-up is timed; setup_s and peak_rss_mb are medians
SETUP_REPEATS = 5
# idle time before each set-up probe: OpenBLAS threads spin for about 0.13 s
# after a call, and would compete with the probe for the two cores
PROBE_QUIET_S = 0.3
# extra time a run may take to complete its first window
FIRST_WINDOW_GRACE_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "points_per_s": "1/s",
    "call_s_p50": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rng.trial_seeds_us_per_trial": "us",
    "backend.union_mask_us_per_trial": "us",
    "backend.draws_per_trial": "count",
    "backend.draw_bytes_per_trial": "B",
    "graphs.laplacians_us_per_trial": "us",
    "graphs.laplacian_bytes_per_trial": "B",
    "spectral.eigvalsh_us_per_trial": "us",
    "spectral.eigvalsh_flops_per_trial": "flop",
    "montecarlo.run_mc_us_per_trial": "us",
    "montecarlo.self_us_per_trial": "us",
    "montecarlo.blocks_per_call": "count",
    "montecarlo.cpu_per_wall": "ratio",
    "montecarlo.worker_busy_ratio": "ratio",
    "montecarlo.disconnected_ratio": "ratio",
    "oracle.cold_s": "s",
    "oracle.enumerate_us": "us",
    "bounds.bound_report_us": "us",
    "bounds.negative_var_upper": "count",
    "tables.tables_us": "us",
    "cli.self_us_per_call": "us",
    "trace.overhead_ratio": "ratio",
}


def _bootstrap() -> None:
    if not (REPO / "src" / "erunion" / "__init__.py").is_file():
        sys.exit(f"error: no erunion package under {REPO / 'src'}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(REPO / "src"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set the workload up in a fresh process.

    Returns the seconds from spawning the interpreter to its ready line, and
    the process's peak RSS in MB once set up, which includes one warm-up
    operation at the workload's shape.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=REPO) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    word, _, rss = line.partition(" ")
    if word != "ready" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit {rc})")
    return t1 - t0, float(rss)


def _percentile_with_tail(times: list[float], q: float):
    """The q-quantile when at least ten samples lie beyond it, else None."""
    if len(times) * (1.0 - q) < 10:
        return None
    return statistics.quantiles(times, n=100, method="inclusive")[round(q * 100) - 1]


def _fast(values: list[float]) -> float:
    """10th percentile: the run's fast windows, which discount the host's load swings."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _report_failure(kind: str, exc: BaseException, failed: int) -> None:
    """Print the traceback of the first few failures to stderr."""
    if failed <= 3:
        print(f"operation {kind} failed:", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


def run(args) -> int:
    _bootstrap()
    wl = workloads.make(args.workload, args.seed)
    if args.setup_probe:
        wl.setup()
        print(f"ready {_peak_rss_mb()!r}", flush=True)
        return 0

    tracer = tracing.Tracer() if args.trace else None
    wl.setup(tracer)  # a failed set-up check ends the run with no result
    parent_setup_s = time.perf_counter() - _T_START

    # untraced runs time set-up in fresh processes spread over the run, at
    # window boundaries; the loop's deadline moves by the time they take
    probes: list[tuple[float, float]] = []
    probes_due = 0 if tracer else SETUP_REPEATS
    probe_gap = args.seconds / SETUP_REPEATS
    ops: list[tuple[str, bool, float, float]] = []  # kind, traced, start, end
    failed = 0
    t_begin = time.perf_counter()
    next_probe = t_begin
    deadline = t_begin + args.seconds
    while True:
        now = time.perf_counter()
        if len(probes) < probes_due and now >= next_probe and len(ops) % wl.ops_per_window == 0:
            time.sleep(PROBE_QUIET_S)
            probes.append(_setup_probe(args.workload, args.seed))
            paused = time.perf_counter() - now
            deadline += paused
            next_probe = now + paused + probe_gap
            continue
        if now >= deadline and (len(ops) >= wl.ops_per_window
                                or now >= deadline + FIRST_WINDOW_GRACE_S):
            break
        traced = tracer is not None and len(ops) % 2 == 1
        kind, fn = wl.next_op()
        if traced:
            tracer.op, tracer.phase = len(ops), "op"
            tracer.install()
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # counted against attempted; the loop goes on
            failed += 1
            _report_failure(kind, exc, failed)
        t1 = time.perf_counter()
        if traced:
            tracer.uninstall()
        ops.append((kind, traced, t0, t1))
    while len(probes) < probes_due:
        time.sleep(PROBE_QUIET_S)
        probes.append(_setup_probe(args.workload, args.seed))
    wall = time.perf_counter() - t_begin
    setup_s = [p[0] for p in probes]
    setup_rss = [p[1] for p in probes]

    # per complete window: its duration and the median time of its operations
    size = wl.ops_per_window
    window_s, window_p50 = [], []
    for k in range(len(ops) // size):
        chunk = ops[k * size:(k + 1) * size]
        window_s.append(chunk[-1][3] - chunk[0][2])
        window_p50.append(statistics.median(
            t1 - t0 for kind, _, t0, t1 in chunk if kind == wl.op_kind))
    op_times = [t1 - t0 for kind, traced, t0, t1 in ops if kind == wl.op_kind and not traced]
    counters = wl.counters()
    extra = {
        "fail_ratio": f"{failed}/{len(ops)}",
        "operations": len(ops),
        "wall_s_with_probes": wall,
        "windows": len(window_s),
        "parent_setup_s": parent_setup_s,
        "setup_samples_s": setup_s,
        "setup_peak_rss_mb": setup_rss,
        "run_peak_rss_mb": _peak_rss_mb(),
        "window_s_median": statistics.median(window_s) if window_s else None,
        "call_s_p90 (untraced ops)": _percentile_with_tail(op_times, 0.9),
    }
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "trials_per_s": wl.window_trials / _fast(window_s),
            "points_per_s": wl.window_points / _fast(window_s),
            "call_s_p50": _fast(window_p50),
            "peak_rss_mb": statistics.median(setup_rss),
        }
        units = END_TO_END
    else:
        traced_times = [t1 - t0 for kind, traced, t0, t1 in ops if kind == wl.op_kind and traced]
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["montecarlo.disconnected_ratio"] = counters["disconnected_ratio"]
        metrics["bounds.negative_var_upper"] = counters["negative_var_upper"]
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(traced_times) / statistics.fmean(op_times) - 1.0
            if traced_times and op_times else 0.0)
        units = PER_LAYER
        extra["absent_entry_points"] = tracer.absent
        extra["unused_layers"] = sorted(
            set(tracing.LAYERS) - {s[2] for s in tracer.spans if s[7] in ("op", "cold")})

    host_info = host.host_block(REPO)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}.trace{int(args.trace)}.json"
    with open(out_file, "w") as fp:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "host": host_info,
                   "metrics": metrics, "extra": extra,
                   "spans": tracer.spans if tracer else []}, fp)

    for name, value in metrics.items():
        print(f"{args.workload:13s} {name:36s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{args.workload:13s} {name:36s} {value}")
    print("host " + json.dumps(host_info, sort_keys=True))
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
