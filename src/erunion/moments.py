"""Closed-form moments of G(n, p) Laplacian eigenvalues.

The k-th moment matrix of the Laplacian is a scalar multiple of (nI - J):
E[L^k] = c_k(n, p) * (nI - J) for k = 1..4. By the structured-matrix
spectrum, each of the n-1 nonzero-indexed eigenvalues then has k-th moment
n * c_k, while the structural zero eigenvalue contributes nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .graphs import ModelParams


@dataclass(frozen=True)
class MomentSet:
    """First four eigenvalue moments and the derived variances for one (n, p)."""

    m1: float
    m2: float
    m3: float
    m4: float
    var1: float      # Var of an eigenvalue: 2npq
    var2: float      # Var of a squared eigenvalue: m4 - m2^2
    sigma2: float    # sqrt(var2)


def _coefficient(n: int, p: float, k: int) -> float:
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


def laplacian_moment_matrix(params: ModelParams, k: int) -> float:
    """Coefficient c_k with E[L^k] = c_k (nI - J)."""
    return _coefficient(params.n, params.p, k)


def eigenvalue_moment(params: ModelParams, k: int) -> float:
    """k-th moment (k = 1..4) of each nonzero-indexed Laplacian eigenvalue: n * c_k."""
    return params.n * _coefficient(params.n, params.p, k)


def eigenvalue_variances(params: ModelParams) -> MomentSet:
    """All four moments plus Var of an eigenvalue (2npq) and of its square.

    var2 = m4 - m2^2 is evaluated as n p q (8 + (n-2) p (21 + (8n-21) p)), a
    sum of nonnegative terms for n >= 2, so rounding cannot make it negative.
    """
    n, p, q = params.n, params.p, params.q
    m = [eigenvalue_moment(params, k) for k in (1, 2, 3, 4)]
    var2 = n * p * q * (8.0 + (n - 2) * p * (21.0 + (8 * n - 21) * p))
    return MomentSet(m1=m[0], m2=m[1], m3=m[2], m4=m[3],
                     var1=2.0 * n * p * q, var2=var2, sigma2=math.sqrt(var2))
