"""Connectivity bounds for unions of G(n, p) samples.

A union of N independent G(n, p) graphs is itself G(n, p_hat) with
p_hat = 1 - (1-p)^N. Mean-variance order-statistic bounds applied to the
n-1 nonzero-indexed Laplacian eigenvalues give expectation and variance
bounds for the algebraic connectivity lambda_2 of the union; from these
follow the minimum union size ``n_min`` whose expected connectivity
criterion meets the line-graph floor, and a Paley-Zygmund lower bound on
P[lambda_2 >= lambda_min].

Why the probability bound is sound. Paley-Zygmund bounds P[lambda_2 >
theta E[lambda_2]] from below, and :func:`bound_report` takes
theta = lambda_min / (n p_hat). Since theta E[lambda_2] <= lambda_min,
that event contains {lambda_2 >= lambda_min} rather than being contained in
it, so Paley-Zygmund alone bounds the wrong event. The bound is sound only
because no graph has lambda_2 in (0, lambda_min):

- a value is certified only when the lower bound mean_lb on E[lambda_2] is
  positive, and theta > 0, so theta E[lambda_2] >= theta mean_lb > 0;
- hence {lambda_2 > theta E[lambda_2]} is contained in {lambda_2 > 0},
  the event that the union is connected;
- by Fiedler (1973), every connected n-node graph has lambda_2 >=
  lambda_min = 2(1 - cos(pi/n)), so {connected} = {lambda_2 >= lambda_min}.

So the Paley-Zygmund value is also a lower bound on P[lambda_2 >= lambda_min],
the probability the paper names.

Numerics. The closed forms are evaluated without cancellation, so no clamp is
needed: var2 = m4 - m2^2 as n p q (8 + (n-2) p (21 + (8n-21) p)) in
:mod:`erunion.moments`, m2 - (n p_hat)^2 as 2 n p_hat q_hat, the Var[lambda_2]
upper bound m2 - max(raw, 0)^2 as 2 n p_hat q_hat + s (n p_hat + raw) when the
raw E[lambda_2] lower bound is positive (s = sqrt(2n(n-2) p_hat q_hat) =
n p_hat - raw) and as m2 otherwise, and lambda_min as 2 sin^2(pi/n) /
(1 + cos(pi/n)). The paper's Var[lambda_2] lower bound is then 0 for every
n >= 3 and 4 p_hat q_hat at n = 2, equal to the upper bound there (proof in
:func:`_variance_bounds`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError, ValidationError
from .graphs import ModelParams
from .moments import _square_moments
from .spectral import line_graph_lambda_min

INFEASIBLE_N2 = ("n = 2: expected connectivity cannot reach the line-graph "
                 "floor for any union size")


@dataclass(frozen=True)
class UnionParams:
    """Effective single-graph parameters of a union of num_graphs G(n, p) samples."""

    base: ModelParams
    num_graphs: int
    p_hat: float
    q_hat: float


@dataclass(frozen=True)
class NminResult:
    """Minimum union size: real-valued bound and its ceiling."""

    exact_real: float
    rounded_up: int


@dataclass(frozen=True)
class BoundReport:
    """Analytic bounds for one (params, num_graphs) configuration.

    prob_status says what prob_lower is: "certified" (a value in [0, 1]),
    "below_n_min" (num_graphs < n_min; None), "zero_lower_bound" (the
    E[lambda_2] lower bound is not positive; 0.0) or "infeasible" (n = 2, where
    no union size reaches the floor; None, and n_min is None too).
    """

    e_lambda2_lower: float
    e_lambda2_upper: float
    var_lambda2_lower: float
    var_lambda2_upper: float
    lambda_min: float
    theta: float | None
    prob_lower: float | None
    prob_status: str
    n_min: int | None


def union_effective_params(params: ModelParams, num_graphs: int) -> UnionParams:
    """p_hat = 1 - (1-p)^N, see :meth:`ModelParams.effective_probabilities`."""
    p_hat, q_hat = params.effective_probabilities(num_graphs)
    return UnionParams(base=params, num_graphs=num_graphs, p_hat=p_hat, q_hat=q_hat)


def _e_lambda2_spread(n: int, p_hat: float, q_hat: float) -> float:
    # the mean-variance bound E[X_(1)] >= mu - sigma sqrt(m-1) on the least of
    # m = n-1 variables, here the nonzero-indexed eigenvalues with sigma^2 =
    # 2 n p q, so the bound on E[lambda_2] is n p_hat minus this spread
    return math.sqrt(2.0 * n * p_hat * q_hat) * math.sqrt(n - 2)


def _e_lambda2_lower_raw(n: int, p_hat: float, q_hat: float) -> float:
    return n * p_hat - _e_lambda2_spread(n, p_hat, q_hat)


def _variance_bounds(n: int, p_hat: float, q_hat: float, raw: float, m2: float,
                     var2: float) -> tuple[float, float]:
    """Var[lambda_2] bounds from the raw E[lambda_2] lower bound and (m2, var2) at p_hat.

    The paper's lower bound is m2 - sigma2 sqrt(n-2) - (n p_hat)^2 with
    m2 - (n p_hat)^2 = 2 n p_hat q_hat. With sigma2^2 = var2 = n p_hat q_hat
    (8 + (n-2) p_hat (21 + (8n-21) p_hat)) it is negative exactly when
    4 n p_hat q_hat < (n-2) (8 + 21 (n-2) p_hat + (n-2) (8n-21) p_hat^2).
    For n >= 3 that always holds, since 4 n p_hat <= 21 (n-2)^2 p_hat, so the
    clamped lower bound is 0 for every n >= 3; at n = 2 it is 4 p_hat q_hat,
    and so is the upper bound.
    """
    var1 = 2.0 * n * p_hat * q_hat  # m2 - (n p_hat)^2
    lower = max(var1 - math.sqrt(var2) * math.sqrt(n - 2), 0.0)
    # lambda_2 >= 0, so E[lambda_2]^2 >= max(raw, 0)^2; with s = n p_hat - raw,
    # m2 - raw^2 = var1 + s (n p_hat + raw), a sum of nonnegative terms
    if raw <= 0.0:
        return lower, m2
    return lower, var1 + _e_lambda2_spread(n, p_hat, q_hat) * (n * p_hat + raw)


def _nmin_log_argument(n: int, lam: float) -> float:
    """Argument of the n_min logarithm at lambda_min = lam, evaluated without
    cancellation.

    Written as (2n(n-2) + 4nu - 2n(n-2)*(sqrt(1+x) - 1)) / (6n^2 - 8n) with
    u = lambda_min/2 and x = (4u - 8u^2/n)/(n-2); equivalent to
    (4n^2 + 4n(1-cos(pi/n)) - tau(n) - 8n) / (6n^2 - 8n) where
    tau(n) = sqrt(16n^2(n-2)u + 32n(2-n)u^2 + 4n^2(n-2)^2).
    """
    u = 0.5 * lam
    x = (4.0 * u - 8.0 * u * u / n) / (n - 2)
    s = x / (1.0 + math.sqrt(1.0 + x))  # sqrt(1+x) - 1, cancellation-free
    num = 2.0 * n * (n - 2) + 4.0 * n * u - 2.0 * n * (n - 2) * s
    den = 6.0 * n * n - 8.0 * n
    return num / den


def _require_finite_union_size(value: float, p: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"p={p!r} is too small: the minimum union size "
                              f"overflows double precision")


def _n_min_real(n: int, p: float, lam: float) -> float:
    if n == 2:
        # the variance term vanishes and the criterion needs p_hat = 1
        raise InfeasibleError(INFEASIBLE_N2)
    exact = math.log(_nmin_log_argument(n, lam)) / math.log1p(-p)
    _require_finite_union_size(exact, p)
    return exact


def n_min(params: ModelParams) -> NminResult:
    """Smallest union size whose expected-connectivity criterion reaches the
    line-graph floor, as a real-valued bound and its ceiling."""
    exact = _n_min_real(params.n, params.p, line_graph_lambda_min(params.n))
    return NminResult(exact_real=exact, rounded_up=math.ceil(exact))


def n_min_asymptotic(p: float) -> float:
    """Large-n limit of the minimum union size: -log(3) / log(1-p)."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0, 1), got {p!r}")
    asym = -math.log(3.0) / math.log1p(-p)
    _require_finite_union_size(asym, p)
    return asym


def paley_zygmund_bound(mean_lb: float, second_moment_ub: float, theta: float) -> float:
    """Second-moment lower bound (1-theta)^2 * mean_lb^2 / second_moment_ub
    on P[Z > theta E[Z]] for a nonnegative Z, with E[Z] lower-bounded by
    mean_lb and E[Z^2] upper-bounded by second_moment_ub (both substitutions
    preserve the inequality direction)."""
    if not 0.0 <= theta <= 1.0:
        raise ValidationError(f"theta must lie in [0, 1], got {theta!r}")
    if second_moment_ub <= 0.0:
        raise ValidationError(f"second_moment_ub must be positive, got {second_moment_ub!r}")
    return (1.0 - theta) ** 2 * mean_lb * mean_lb / second_moment_ub


def bound_report(params: ModelParams, num_graphs: int) -> BoundReport:
    """All analytic bounds for one configuration in a single record, each
    scalar helper called once.

    The probability bound is certified for num_graphs >= n_min only. Its
    Paley-Zygmund value bounds P[lambda_2 > theta E[lambda_2]] with
    theta = lambda_min / (n p_hat). A certified bound has mean_lb > 0, so
    that event lies inside {connected}, which by Fiedler's theorem is
    {lambda_2 >= lambda_min} (see the module docstring).
    """
    n = params.n
    p_hat, q_hat = params.effective_probabilities(num_graphs)
    lam = line_graph_lambda_min(n)
    raw = _e_lambda2_lower_raw(n, p_hat, q_hat)
    m2, var2 = _square_moments(n, p_hat)
    var_lo, var_hi = _variance_bounds(n, p_hat, q_hat, raw, m2, var2)
    theta = prob = rounded = None
    try:
        rounded = math.ceil(_n_min_real(n, params.p, lam))
    except InfeasibleError:  # n = 2: no union size has a bound
        status = "infeasible"
    else:
        if num_graphs < rounded:
            status = "below_n_min"
        elif raw <= 0.0:
            # p_hat below the (2n-4)/(3n-4) positivity threshold: nothing to certify
            status, prob = "zero_lower_bound", 0.0
        else:
            status, theta = "certified", lam / (n * p_hat)
            prob = min(max(paley_zygmund_bound(raw, m2, theta), 0.0), 1.0)
    return BoundReport(e_lambda2_lower=max(raw, 0.0), e_lambda2_upper=n * p_hat,
                       var_lambda2_lower=var_lo, var_lambda2_upper=var_hi,
                       lambda_min=lam, theta=theta, prob_lower=prob,
                       prob_status=status, n_min=rounded)
