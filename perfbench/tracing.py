"""Layer spans recorded from outside the package.

Each layer's entry point is wrapped at the module attribute its caller looks
up, so nothing under ``src/`` changes. A wrapped call appends one span to an
in-memory list: ``(id, parent, layer, start, end, thread, op, phase, cpu_s,
work)``. ``parent`` is the innermost open span of the calling thread, or of
the main thread when a pool thread has none open (a ``run_mc`` block running
on a worker). ``work`` holds counts taken from the call's arguments and
result shapes. :func:`layer_metrics` reduces the spans to per-layer figures.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict


def _rows(a) -> int:
    return int(a.shape[0]) if getattr(a, "ndim", 0) >= 1 else 1


def _backend_work(args, result):
    seeds, num_pairs, rounds = args[0], args[1], args[2]
    return {"rows": len(seeds), "draws": len(seeds) * num_pairs * rounds}


def _spectral_work(args, result):
    a = args[0]
    rows = _rows(a) if getattr(a, "ndim", 2) == 3 else 1
    n = a.shape[-1]
    return {"rows": rows, "flops": rows * 4.0 / 3.0 * n ** 3}


def _run_mc_work(args, result):
    config = args[0]
    return {"trials": config.trials, "workers": config.workers}


def _no_work(args, result):
    return {}


# (layer, module, attribute, work counter)
ENTRY_POINTS = (
    ("cli", "erunion.cli", "main", _no_work),
    ("montecarlo", "erunion.cli", "run_mc", _run_mc_work),
    ("bounds", "erunion.cli", "bound_report", _no_work),
    ("bounds", "erunion.bounds", "bound_report", _no_work),
    ("tables", "erunion.tables", "table1", _no_work),
    ("tables", "erunion.tables", "table2", _no_work),
    ("tables", "erunion.tables", "table3", _no_work),
    ("rng", "erunion.rng", "trial_seeds_np", lambda a, r: {"rows": len(r)}),
    ("backend", "erunion.backend", "union_mask_block", _backend_work),
    ("graphs", "erunion.montecarlo", "laplacians_from_masks",
     lambda a, r: {"rows": _rows(r), "bytes": int(r.nbytes)}),
    ("spectral", "numpy.linalg", "eigvalsh", _spectral_work),
    ("oracle", "erunion.oracle", "enumerate_exact", lambda a, r: {"n": a[0].n}),
)

LAYERS = ("rng", "backend", "graphs", "spectral", "montecarlo", "bounds",
          "oracle", "tables", "cli")


class Tracer:
    """Wrappers for every entry point, switched on and off between operations."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self.phase = "setup"
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches = []
        for layer, modname, attr, work in ENTRY_POINTS:
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            self._patches.append((mod, attr, fn, self._wrap(layer, fn, work)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def _wrap(self, layer, fn, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            sid = next(self._ids)
            stack.append(sid)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._record(sid, parent, layer, t0, cpu0, {"raised": 1})
                raise
            finally:
                stack.pop()
            self._record(sid, parent, layer, t0, cpu0, work(args, result))
            return result
        return traced

    def _record(self, sid, parent, layer, t0, cpu0, work) -> None:
        t1 = time.perf_counter()
        cpu = time.process_time() - cpu0
        self.spans.append((sid, parent, layer, t0, t1, threading.get_ident(),
                           self.op, self.phase, cpu, work))

    def install(self) -> None:
        for mod, attr, _, wrapped in self._patches:
            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures from the spans of measured operations and cold builds.

    A layer with no spans there (absent, or unused by the workload) reads 0.
    Per-trial figures divide by the rows the layer processed: seeds, masks,
    Laplacians or matrices solved, one per Monte-Carlo trial.
    """
    spans = [s for s in spans if s[7] in ("op", "cold")]
    by_layer = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_layer[s[2]].append(s)
        if s[1] is not None:
            children[s[1]].append(s)

    def op_spans(layer):
        return [s for s in by_layer[layer] if s[7] == "op"]

    def mean_us(layer):
        calls = op_spans(layer)
        return ratio(1e6 * sum(s[4] - s[3] for s in calls), len(calls))

    def work(layer, key):
        return sum(s[9].get(key, 0) for s in by_layer[layer])

    def ratio(a, b):
        return a / b if b else 0.0

    def self_time(s):
        return (s[4] - s[3]) - _covered([(c[3], c[4]) for c in children[s[0]]], s[3], s[4])

    def per_row_us(layer):
        total = sum(s[4] - s[3] for s in by_layer[layer])
        return ratio(1e6 * total, work(layer, "rows"))

    mc = op_spans("montecarlo")
    mc_trials = sum(s[9].get("trials", 0) for s in mc)
    mc_wall = sum(s[4] - s[3] for s in mc)
    busy = sum(c[4] - c[3] for s in mc for c in children[s[0]])
    capacity = sum((s[4] - s[3]) * s[9].get("workers", 1) for s in mc)
    blocks = [max(Counter(c[2] for c in children[s[0]]).values(), default=0) for s in mc]
    cold_n6 = [s for s in by_layer["oracle"] if s[7] == "cold" and s[9].get("n") == 6]
    cli = op_spans("cli")
    rows_drawn = work("backend", "rows")

    return {
        "rng.trial_seeds_us_per_trial": per_row_us("rng"),
        "backend.union_mask_us_per_trial": per_row_us("backend"),
        "backend.draws_per_trial": ratio(work("backend", "draws"), rows_drawn),
        # the NumPy kernel materialises every draw as a uint64
        "backend.draw_bytes_per_trial": ratio(8 * work("backend", "draws"), rows_drawn),
        "graphs.laplacians_us_per_trial": per_row_us("graphs"),
        "graphs.laplacian_bytes_per_trial": ratio(work("graphs", "bytes"), work("graphs", "rows")),
        "spectral.eigvalsh_us_per_trial": per_row_us("spectral"),
        "spectral.eigvalsh_flops_per_trial": ratio(work("spectral", "flops"), work("spectral", "rows")),
        "montecarlo.run_mc_us_per_trial": ratio(1e6 * mc_wall, mc_trials),
        "montecarlo.self_us_per_trial": ratio(1e6 * sum(self_time(s) for s in mc), mc_trials),
        "montecarlo.blocks_per_call": ratio(sum(blocks), len(blocks)),
        "montecarlo.cpu_per_wall": ratio(sum(s[8] for s in mc), mc_wall),
        "montecarlo.worker_busy_ratio": ratio(busy, capacity),
        "oracle.cold_s": cold_n6[0][4] - cold_n6[0][3] if cold_n6 else 0.0,
        "oracle.enumerate_us": mean_us("oracle"),
        "bounds.bound_report_us": mean_us("bounds"),
        # one regeneration of tables 1-3 calls each table function once
        "tables.tables_us": 3 * mean_us("tables"),
        "cli.self_us_per_call": ratio(1e6 * sum(self_time(s) for s in cli), len(cli)),
    }
