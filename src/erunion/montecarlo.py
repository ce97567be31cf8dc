"""Monte-Carlo estimation of union algebraic connectivity.

Trial t draws its own counter-based stream (see :mod:`erunion.rng`) so the
sample set is a pure function of the configuration: results are bit-identical
for any worker count. Each trial's union is drawn as one G(n, p_hat) graph,
one draw per pair, so trial t's union graph equals
``sample_union(params, num_graphs, rng.trial_seed(master_seed, t))``.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng
from .bounds import BoundReport, bound_report
from .errors import CapabilityError, ValidationError
from .graphs import ModelParams, laplacians_from_masks
from .spectral import EPS_ZERO, SPECTRAL_N_CEILING, line_graph_lambda_min

Z95 = 1.959963984540054

# slack for the lambda_2 >= lambda_min indicator: path-shaped unions attain
# lambda_min exactly and the eigensolver sits ~1e-16 off the closed form
LAMBDA_MIN_SLACK = 1e-9

# per-block eigensolver workspace (Laplacian entries); it also bounds the
# block's draws, one per pair (< n^2/2). Block size is a pure function of
# the configuration so blocking never affects results
_EIG_BUDGET = 1 << 22


@dataclass(frozen=True)
class McConfig:
    """One Monte-Carlo run: union of num_graphs G(n, p) samples per trial."""

    params: ModelParams
    num_graphs: int
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.num_graphs, int) or self.num_graphs < 1:
            raise ValidationError(f"num_graphs must be a positive integer, got {self.num_graphs!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValidationError(f"trials must be a positive integer, got {self.trials!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ValidationError(f"workers must be a positive integer, got {self.workers!r}")


@dataclass(frozen=True)
class McEstimate:
    """Empirical moments and indicator frequencies of lambda_2 over the trials."""

    mean_lambda2: float
    var_lambda2: float
    prob_connected: float
    prob_ge_lambda_min: float
    ci_halfwidths: dict
    trials: int
    ci_reliable: bool

    def to_dict(self) -> dict:
        return {
            "mean_lambda2": self.mean_lambda2,
            "var_lambda2": self.var_lambda2,
            "prob_connected": self.prob_connected,
            "prob_ge_lambda_min": self.prob_ge_lambda_min,
            "ci_halfwidths": dict(self.ci_halfwidths),
            "trials": self.trials,
            "ci_reliable": self.ci_reliable,
        }


def wilson_interval(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (well-behaved near 0/1)."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    centre = (phat + z2 / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials))
    return max(0.0, centre - half), min(1.0, centre + half)


def run_mc(config: McConfig) -> McEstimate:
    """Sample, union, and eigensolve every trial; aggregate deterministically.

    Per trial: draw the union's edge mask at p_hat from the trial's stream,
    assemble the Laplacian, take the second-smallest eigenvalue. Aggregation
    reads the per-trial array in trial order, so any worker count gives
    bit-identical results.
    """
    params = config.params
    n = params.n
    if n > SPECTRAL_N_CEILING:
        raise CapabilityError(
            f"n={n} exceeds the dense eigensolver ceiling ({SPECTRAL_N_CEILING})")
    p_hat, _ = params.effective_probabilities(config.num_graphs)
    num_pairs = params.num_pairs
    lam_min = line_graph_lambda_min(n)
    trials = config.trials

    lambda2s = np.empty(trials)
    block = max(1, _EIG_BUDGET // (n * n))
    starts = range(0, trials, block)

    def run_block(start: int) -> None:
        stop = min(start + block, trials)
        seeds = rng.trial_seeds_np(config.master_seed, start, stop - start)
        masks = rng.edge_masks(seeds, num_pairs, p_hat)
        laps = laplacians_from_masks(masks, n)
        lambda2s[start:stop] = np.linalg.eigvalsh(laps)[:, 1]

    if config.workers == 1:
        for s in starts:
            run_block(s)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            list(pool.map(run_block, starts))

    mean = float(np.sum(lambda2s)) / trials
    if trials > 1:
        var = float(np.sum((lambda2s - mean) ** 2)) / (trials - 1)
    else:
        var = 0.0
    n_conn = int(np.count_nonzero(lambda2s > EPS_ZERO))
    n_ge = int(np.count_nonzero(lambda2s >= lam_min - LAMBDA_MIN_SLACK))

    ci_reliable = trials >= 2
    if ci_reliable:
        mean_hw = Z95 * math.sqrt(var / trials)
        # distribution-free variance CI from the fourth central moment
        m4c = float(np.sum((lambda2s - mean) ** 4)) / trials
        var_hw = Z95 * math.sqrt(max(m4c - var * var, 0.0) / trials)
    else:
        mean_hw = None
        var_hw = None

    def prop_hw(successes: int) -> float:
        lo, hi = wilson_interval(successes, trials)
        return (hi - lo) / 2.0

    ci = {
        "mean_lambda2": mean_hw,
        "var_lambda2": var_hw,
        "prob_connected": prop_hw(n_conn),
        "prob_ge_lambda_min": prop_hw(n_ge),
    }
    return McEstimate(mean_lambda2=mean, var_lambda2=var,
                      prob_connected=n_conn / trials,
                      prob_ge_lambda_min=n_ge / trials,
                      ci_halfwidths=ci, trials=trials, ci_reliable=ci_reliable)


@dataclass(frozen=True)
class SweepRow:
    config: McConfig
    estimate: McEstimate | None
    bounds: BoundReport | None
    error: str | None = None


def sweep(configs) -> list[SweepRow]:
    """Run each configuration and pair it with its analytic bounds.

    Per-config errors are recorded in the row instead of aborting the sweep;
    input order is preserved.
    """
    rows: list[SweepRow] = []
    for cfg in configs:
        try:
            est = run_mc(cfg)
            rep = bound_report(cfg.params, cfg.num_graphs)
            rows.append(SweepRow(config=cfg, estimate=est, bounds=rep))
        except Exception as exc:  # deliberate: sweep must not abort
            rows.append(SweepRow(config=cfg, estimate=None, bounds=None,
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows
