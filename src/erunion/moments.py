"""Closed-form moments of G(n, p) Laplacian eigenvalues.

The k-th moment matrix of the Laplacian is a scalar multiple of (nI - J):
E[L^k] = c_k(n, p) * (nI - J) for k = 1..4. By the structured-matrix
spectrum, each of the n-1 nonzero-indexed eigenvalues then has k-th moment
n * c_k, while the structural zero eigenvalue contributes nothing.
"""
from __future__ import annotations

from .errors import ValidationError
from .graphs import ModelParams


def _coefficient(n: int, p: float, k: int) -> float:
    """Coefficient c_k with E[L^k] = c_k (nI - J)."""
    # Horner in p; the quartic benefits from it at large n
    if k == 1:
        return p
    if k == 2:
        return ((n - 2) * p + 2.0) * p
    if k == 3:
        return (((n - 2) * (n - 4) * p + 6.0 * (n - 2)) * p + 4.0) * p
    if k == 4:
        return ((((n - 7) * (n - 3) * (n - 2) * p
                  + 6.0 * (2 * n - 7) * (n - 2)) * p
                 + 25.0 * (n - 2)) * p + 8.0) * p
    raise ValidationError(f"moment order k must be in 1..4, got {k!r}")


def eigenvalue_moment(params: ModelParams, k: int) -> float:
    """k-th moment (k = 1..4) of each nonzero-indexed Laplacian eigenvalue: n * c_k."""
    return params.n * _coefficient(params.n, params.p, k)


def _square_moments(n: int, p: float) -> tuple[float, float]:
    """(m2, var2): mean and variance of a squared eigenvalue of G(n, p).

    var2 = m4 - m2^2 is evaluated as n p q (8 + (n-2) p (21 + (8n-21) p)), a
    sum of nonnegative terms for n >= 2, so rounding cannot make it negative.
    """
    var2 = n * p * (1.0 - p) * (8.0 + (n - 2) * p * (21.0 + (8 * n - 21) * p))
    return n * _coefficient(n, p, 2), var2
