"""The three workloads: two Monte-Carlo unions through the CLI and the exact sweep.

A workload has ``setup()``, which imports the package, fills its lazy caches
and runs the set-up checks, and ``next_op()``, which returns the kind and the
callable of the next operation. An operation raises :class:`CheckFailed` when
its output is wrong. Every input derives from the workload seed.

A window is a fixed run of ``ops_per_window`` consecutive operations that
carries ``window_trials`` trials and ``window_points`` points; throughput and
latency are taken per window. ``op_kind`` names the operation whose time is
the latency.
"""
from __future__ import annotations

import contextlib
import io
import json
import random

# (n, p, N) of the threshold union and its trials per call, also used by the
# worker-identity check: two blocks at the seed's block sizing (52 trials each)
THRESHOLD_SHAPE = (200, 0.007, 4)
THRESHOLD_TRIALS = 104

# mc calls per window: about 0.5 s of work on mc-dense, 2 s on mc-threshold
MC_CALLS_PER_WINDOW = 3

# exact soundness grid: n in 3..6, p in 0.01..0.99, N in {1, 2, 3, 5, 10, 20}
GRID_NS = (3, 4, 5, 6)
GRID_PS = tuple(k / 100 for k in range(1, 100))
GRID_UNIONS = (1, 2, 3, 5, 10, 20)


class CheckFailed(Exception):
    """An operation's output failed a correctness check."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _in_unit(x) -> bool:
    return isinstance(x, (int, float)) and 0.0 <= x <= 1.0


def cli_stdout(argv) -> str:
    """Run ``erunion.cli.main`` in-process and return what it printed."""
    import erunion.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = erunion.cli.main(argv)
    _require(rc == 0, f"erunion {' '.join(argv)} exited with {rc}")
    return buf.getvalue()


def mc_argv(n, p, num_graphs, trials, seed, workers) -> list[str]:
    return ["mc", "--n", str(n), "--p", repr(p), "--N", str(num_graphs),
            "--trials", str(trials), "--seed", str(seed), "--workers", str(workers)]


def check_mc(payload: dict, n, p, num_graphs, trials, seed) -> None:
    """Statistical checks on an ``mc`` report; reads only config, estimate, bounds."""
    _require(payload["config"] == {"n": n, "p": p, "num_graphs": num_graphs,
                                   "trials": trials, "master_seed": seed},
             f"config echoed wrongly: {payload['config']}")
    est, bounds = payload["estimate"], payload["bounds"]
    ci = est["ci_halfwidths"]
    _require(est["trials"] == trials, "estimate covers the wrong trial count")
    hw = ci["mean_lambda2"]
    _require(hw is not None and hw >= 0.0, f"mean half-width {hw!r}")
    lo = bounds["e_lambda2_lower"] - 4.0 * hw
    hi = bounds["e_lambda2_upper"] + 4.0 * hw
    _require(lo <= est["mean_lambda2"] <= hi,
             f"mean_lambda2 {est['mean_lambda2']} outside [{lo}, {hi}]")
    for key in ("prob_connected", "prob_ge_lambda_min"):
        _require(_in_unit(est[key]) and _in_unit(ci[key]), f"{key} or its CI outside [0, 1]")
    _require(bounds["prob_lower"] is None or _in_unit(bounds["prob_lower"]),
             f"prob_lower {bounds['prob_lower']} outside [0, 1]")
    _require(est["var_lambda2"] >= 0.0, f"var_lambda2 {est['var_lambda2']} < 0")


class McWorkload:
    """Repeated ``erunion mc`` calls of a fixed size through ``erunion.cli.main``.

    ``trials`` is a whole number of blocks at the seed's block sizing, so one
    operation is one call of whole blocks; it stays fixed if blocking changes.
    """

    op_kind = "mc"
    ops_per_window = MC_CALLS_PER_WINDOW
    window_points = MC_CALLS_PER_WINDOW

    def __init__(self, seed: int, shape: tuple[int, float, int],
                 trials: int, workers: int) -> None:
        self.shape = shape
        self.trials, self.workers = trials, workers
        self.rnd = random.Random(seed)
        self.window_trials = MC_CALLS_PER_WINDOW * trials
        self.trials_done = 0
        self.disconnected = 0
        self.negative_var_upper = 0

    def _call(self, trials, seed, workers, shape=None):
        n, p, num_graphs = shape or self.shape
        out = cli_stdout(mc_argv(n, p, num_graphs, trials, seed, workers))
        payload = json.loads(out)
        check_mc(payload, n, p, num_graphs, trials, seed)
        return out, payload

    def setup(self, tracer=None) -> None:
        import erunion.cli  # noqa: F401  (import cost belongs to set-up)

        # worker identity: stdout must not depend on the worker count
        seed = self.rnd.getrandbits(63)
        one, _ = self._call(THRESHOLD_TRIALS, seed, 1, THRESHOLD_SHAPE)
        two, _ = self._call(THRESHOLD_TRIALS, seed, 2, THRESHOLD_SHAPE)
        _require(one == two, "mc stdout differs between 1 and 2 workers")
        # warm-up at the workload's own shape
        self._call(self.trials, self.rnd.getrandbits(63), self.workers)

    def _op(self) -> None:
        _, payload = self._call(self.trials, self.rnd.getrandbits(63), self.workers)
        est = payload["estimate"]
        self.trials_done += self.trials
        self.disconnected += self.trials - round(est["prob_connected"] * self.trials)
        self.negative_var_upper += payload["bounds"]["var_lambda2_upper"] < 0.0

    def next_op(self):
        return self.op_kind, self._op

    def counters(self) -> dict:
        return {"disconnected_ratio": self.disconnected / max(1, self.trials_done),
                "negative_var_upper": self.negative_var_upper}


class ExactSweep:
    """Exact enumeration against the closed forms over the n <= 6 grid.

    Each pass regenerates tables 1-3 through the CLI, then visits every grid
    point in an order shuffled by the workload seed. A window is one pass.
    """

    op_kind = "point"

    def __init__(self, seed: int) -> None:
        self.rnd = random.Random(seed)
        self.points: list[tuple[int, float, int]] = []
        self.queue: list[tuple[int, float, int]] = []
        self.tables_ref: list[str] = []
        self.negative_var_upper = 0

    def setup(self, tracer=None) -> None:
        import erunion.bounds
        import erunion.oracle
        from erunion.errors import ValidationError
        from erunion.graphs import ModelParams
        from erunion.moments import eigenvalue_moment

        # called through the module attributes, which the tracer wraps
        self.oracle, self.bounds = erunion.oracle, erunion.bounds
        self.ModelParams, self.eigenvalue_moment = ModelParams, eigenvalue_moment

        # cold oracle builds, paid once by every `erunion oracle` process
        if tracer is not None:
            tracer.phase = "cold"
            tracer.install()
        try:
            for n in GRID_NS:
                erunion.oracle.enumerate_exact(ModelParams(n, 0.5))
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.phase = "setup"

        for n in GRID_NS:
            for p in GRID_PS:
                for num in GRID_UNIONS:
                    try:
                        erunion.bounds.union_effective_params(ModelParams(n, p), num)
                    except ValidationError:  # p_hat rounds to 1 in double precision
                        continue
                    self.points.append((n, p, num))
        self.ops_per_window = 1 + len(self.points)
        self.window_points = len(self.points)
        # an exact point weighs all 2**M labelled graphs, the analogue of M-C trials
        self.window_trials = sum(1 << (n * (n - 1) // 2) for n, _, _ in self.points)
        self.tables_ref = [cli_stdout(["tables", str(k)]) for k in (1, 2, 3)]
        for text in self.tables_ref:  # a header and five rows each
            _require(len(text.splitlines()) == 6, "table has the wrong row count")
        for point in self.points[:: len(self.points) // 8]:
            self._check_point(point)

    def _tables(self) -> None:
        for k, ref in zip((1, 2, 3), self.tables_ref):
            text = cli_stdout(["tables", str(k)])
            _require(text == ref, f"table {k} changed between passes")
            if k > 1:
                for line in text.splitlines()[1:]:
                    _require(_in_unit(float(line.split(",")[1])), f"table {k} value outside [0, 1]")

    def _check_point(self, point):
        """Exact report vs bounds and closed forms at one grid point; returns the bounds."""
        n, p, num = point
        params = self.ModelParams(n, p)
        exact = self.oracle.exact_union_report(params, num)
        rep = self.bounds.bound_report(params, num)
        hat = self.ModelParams(n, self.bounds.union_effective_params(params, num).p_hat)
        where = f"(n={n}, p={p}, N={num})"
        _require(rep.e_lambda2_lower - 1e-12 <= exact.expected_lambda2
                 <= rep.e_lambda2_upper + 1e-12, f"E[lambda2] outside its bounds at {where}")
        for k in (1, 2, 3, 4):
            closed = self.eigenvalue_moment(hat, k)
            _require(abs(exact.eigenvalue_moments[k] - closed) <= 1e-10 * abs(closed),
                     f"moment {k} disagrees with the closed form at {where}")
        _require(rep.prob_lower is None or rep.prob_lower <= exact.prob_lambda2_ge_lambda_min,
                 f"prob_lower exceeds the exact probability at {where}")
        _require(abs(exact.weight_total - 1.0) <= 1e-12, f"weight_total off 1 at {where}")
        return rep

    def _point(self, point) -> None:
        rep = self._check_point(point)
        self.negative_var_upper += rep.var_lambda2_upper < 0.0

    def next_op(self):
        if not self.queue:
            self.queue = self.points[:]
            self.rnd.shuffle(self.queue)
            return "tables", self._tables
        point = self.queue.pop()
        return self.op_kind, lambda: self._point(point)

    def counters(self) -> dict:
        return {"disconnected_ratio": 0.0,
                "negative_var_upper": self.negative_var_upper}


# reasons for each workload are recorded in BENCHMARK.json
NAMES = ("mc-dense", "mc-threshold", "exact-sweep")


def make(name: str, seed: int):
    # trials per call: two blocks at the seed's block sizing (68 trials at
    # n=50 N=50), so that two workers would each take one block
    if name == "mc-dense":
        return McWorkload(seed, (50, 0.1, 50), trials=136, workers=1)
    if name == "mc-threshold":
        return McWorkload(seed, THRESHOLD_SHAPE, trials=THRESHOLD_TRIALS, workers=2)
    if name == "exact-sweep":
        return ExactSweep(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
