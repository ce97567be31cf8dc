"""Connectivity bounds for unions of G(n, p) samples.

A union of N independent G(n, p) graphs is itself G(n, p_hat) with
p_hat = 1 - (1-p)^N. Mean-variance order-statistic bounds applied to the
n-1 nonzero-indexed Laplacian eigenvalues give expectation and variance
bounds for the algebraic connectivity lambda_2 of the union; from these
follow the minimum union size ``n_min`` whose expected connectivity
criterion meets the line-graph floor, and a Paley-Zygmund lower bound on
P[lambda_2 >= lambda_min].

Why the probability bound is sound. Paley-Zygmund bounds P[lambda_2 >
theta E[lambda_2]] from below, and :func:`connectivity_probability_bound`
takes theta = lambda_min / (n p_hat). Since theta E[lambda_2] <= lambda_min,
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
:mod:`erunion.moments`, m2 - (n p_hat)^2 as 2 n p_hat q_hat, and lambda_min as
2 sin^2(pi/n) / (1 + cos(pi/n)). The paper's Var[lambda_2] lower bound is then
0 for every n >= 3 and 4 p_hat q_hat at n = 2 (proof in
:func:`lambda2_variance_bounds`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleError, ValidationError
from .graphs import ModelParams
from .moments import eigenvalue_moment, eigenvalue_variances
from .spectral import line_graph_lambda_min


@dataclass(frozen=True)
class UnionParams:
    """Effective single-graph parameters of a union of num_graphs G(n, p) samples."""

    base: ModelParams
    num_graphs: int
    p_hat: float
    q_hat: float


@dataclass(frozen=True)
class NminResult:
    """Minimum union size: real-valued bound, its ceiling, and the log argument."""

    exact_real: float
    rounded_up: int
    log_argument: float


@dataclass(frozen=True)
class VarianceBounds:
    lower: float
    upper: float


@dataclass(frozen=True)
class ProbBoundResult:
    """Outcome of the probability lower bound; value is None unless certified."""

    status: str              # "certified" | "below_n_min" | "zero_lower_bound"
    value: float | None
    n_min_rounded: int
    theta: float | None
    lambda_min: float


@dataclass(frozen=True)
class BoundReport:
    """Analytic bounds for one (params, num_graphs) configuration."""

    e_lambda2_lower: float
    e_lambda2_upper: float
    var_lambda2_lower: float
    var_lambda2_upper: float
    lambda_min: float
    theta: float | None
    prob_lower: float | None


def union_effective_params(params: ModelParams, num_graphs: int) -> UnionParams:
    """p_hat = 1 - (1-p)^N, see :meth:`ModelParams.effective_probabilities`."""
    p_hat, q_hat = params.effective_probabilities(num_graphs)
    return UnionParams(base=params, num_graphs=num_graphs, p_hat=p_hat, q_hat=q_hat)


def order_stat_expectation_bounds(mu: float, sigma: float, m: int,
                                  k: int) -> tuple[float, float]:
    """Mean bounds for the k-th order statistic of m variables with common
    mean mu and variance sigma^2:

        mu - sigma*sqrt((m-k)/k)  <=  E[X_(k)]  <=  mu + sigma*sqrt((k-1)/(m-k+1))
    """
    if sigma < 0.0:
        raise ValidationError(f"sigma must be nonnegative, got {sigma!r}")
    if not (isinstance(m, int) and isinstance(k, int) and 1 <= k <= m):
        raise ValidationError(f"need integers 1 <= k <= m, got k={k!r}, m={m!r}")
    lower = mu - sigma * math.sqrt((m - k) / k)
    upper = mu + sigma * math.sqrt((k - 1) / (m - k + 1))
    return lower, upper


def _e_lambda2_lower_raw(n: int, p_hat: float, q_hat: float) -> float:
    # first order statistic of the n-1 nonzero-indexed eigenvalues;
    # sigma*sqrt(n-2) with sigma^2 = 2 n p q equals sqrt(2n(n-2) p q)
    mu = n * p_hat
    sigma = math.sqrt(2.0 * n * p_hat * q_hat)
    lower, _ = order_stat_expectation_bounds(mu, sigma, m=n - 1, k=1)
    return lower


def expected_lambda2_bounds(u: UnionParams) -> tuple[float, float]:
    """Bounds on E[lambda_2] of the union: (max{n p_hat - sqrt(2n(n-2) p_hat q_hat), 0}, n p_hat)."""
    n = u.base.n
    lower = _e_lambda2_lower_raw(n, u.p_hat, u.q_hat)
    return max(lower, 0.0), n * u.p_hat


def lambda2_variance_bounds(u: UnionParams) -> VarianceBounds:
    """Bounds on Var[lambda_2] of the union from the second-moment sandwich.

    The paper's lower bound is m2 - sigma2 sqrt(n-2) - (n p_hat)^2 with
    m2 - (n p_hat)^2 = 2 n p_hat q_hat. With sigma2^2 = n p_hat q_hat
    (8 + (n-2) p_hat (21 + (8n-21) p_hat)) it is negative exactly when
    4 n p_hat q_hat < (n-2) (8 + 21 (n-2) p_hat + (n-2) (8n-21) p_hat^2).
    For n >= 3 that always holds, since 4 n p_hat <= 21 (n-2)^2 p_hat, so the
    clamped lower bound is 0 for every n >= 3; at n = 2 it is 4 p_hat q_hat.
    """
    n = u.base.n
    ms = eigenvalue_variances(ModelParams(n, u.p_hat))
    lower = 2.0 * n * u.p_hat * u.q_hat - ms.sigma2 * math.sqrt(n - 2)
    # lambda_2 >= 0, so E[lambda_2]^2 >= max(raw lower bound, 0)^2
    upper = ms.m2 - max(_e_lambda2_lower_raw(n, u.p_hat, u.q_hat), 0.0) ** 2
    return VarianceBounds(lower=max(lower, 0.0), upper=upper)


def _nmin_log_argument(n: int) -> float:
    """Argument of the n_min logarithm, evaluated without cancellation.

    Written as (2n(n-2) + 4nu - 2n(n-2)*(sqrt(1+x) - 1)) / (6n^2 - 8n) with
    u = lambda_min/2 and x = (4u - 8u^2/n)/(n-2); equivalent to
    (4n^2 + 4n(1-cos(pi/n)) - tau(n) - 8n) / (6n^2 - 8n) where
    tau(n) = sqrt(16n^2(n-2)u + 32n(2-n)u^2 + 4n^2(n-2)^2).
    """
    u = 0.5 * line_graph_lambda_min(n)
    x = (4.0 * u - 8.0 * u * u / n) / (n - 2)
    s = x / (1.0 + math.sqrt(1.0 + x))  # sqrt(1+x) - 1, cancellation-free
    num = 2.0 * n * (n - 2) + 4.0 * n * u - 2.0 * n * (n - 2) * s
    den = 6.0 * n * n - 8.0 * n
    return num / den


def _require_finite_union_size(value: float, p: float) -> None:
    if not math.isfinite(value):
        raise ValidationError(f"p={p!r} is too small: the minimum union size "
                              f"overflows double precision")


def n_min(params: ModelParams) -> NminResult:
    """Smallest union size whose expected-connectivity criterion reaches the
    line-graph floor, as a real-valued bound and its ceiling."""
    n = params.n
    if n == 2:
        # the variance term vanishes and the criterion needs p_hat = 1
        raise InfeasibleError("n = 2: expected connectivity cannot reach the "
                              "line-graph floor for any union size")
    root = _nmin_log_argument(n)
    exact = math.log(root) / math.log1p(-params.p)
    _require_finite_union_size(exact, params.p)
    return NminResult(exact_real=exact, rounded_up=math.ceil(exact), log_argument=root)


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


def connectivity_probability_bound(params: ModelParams, num_graphs: int) -> ProbBoundResult:
    """Lower bound on P[lambda_2(union) >= lambda_min], certified for
    num_graphs >= n_min only (otherwise an explicit below-threshold status).

    The Paley-Zygmund value bounds P[lambda_2 > theta E[lambda_2]] with
    theta = lambda_min / (n p_hat). A certified bound has mean_lb > 0, so
    that event lies inside {connected}, which by Fiedler's theorem is
    {lambda_2 >= lambda_min} (see the module docstring).
    """
    nm = n_min(params)
    lam = line_graph_lambda_min(params.n)
    if num_graphs < nm.rounded_up:
        return ProbBoundResult(status="below_n_min", value=None,
                               n_min_rounded=nm.rounded_up, theta=None, lambda_min=lam)
    u = union_effective_params(params, num_graphs)
    n = params.n
    mean_lb = _e_lambda2_lower_raw(n, u.p_hat, u.q_hat)
    if mean_lb <= 0.0:
        # p_hat below the (2n-4)/(3n-4) positivity threshold: nothing to certify
        return ProbBoundResult(status="zero_lower_bound", value=0.0,
                               n_min_rounded=nm.rounded_up, theta=None, lambda_min=lam)
    theta = lam / (n * u.p_hat)
    m2 = eigenvalue_moment(ModelParams(n, u.p_hat), 2)
    value = paley_zygmund_bound(mean_lb, m2, theta)
    return ProbBoundResult(status="certified", value=min(max(value, 0.0), 1.0),
                           n_min_rounded=nm.rounded_up, theta=theta, lambda_min=lam)


def bound_report(params: ModelParams, num_graphs: int) -> BoundReport:
    """All analytic bounds for one configuration in a single record."""
    u = union_effective_params(params, num_graphs)
    e_lo, e_hi = expected_lambda2_bounds(u)
    var = lambda2_variance_bounds(u)
    lam = line_graph_lambda_min(params.n)
    try:
        pb = connectivity_probability_bound(params, num_graphs)
    except InfeasibleError:  # n = 2: no union size has a bound
        theta = prob = None
    else:
        theta, prob = pb.theta, pb.value
    return BoundReport(e_lambda2_lower=e_lo, e_lambda2_upper=e_hi,
                       var_lambda2_lower=var.lower, var_lambda2_upper=var.upper,
                       lambda_min=lam, theta=theta, prob_lower=prob)
