"""Symmetric-matrix eigenvalues and reference spectra.

Eigenvalues come from LAPACK's symmetric driver (Householder
tridiagonalisation followed by divide-and-conquer, ``dsyevd`` via
``numpy.linalg.eigvalsh``), an unconditionally convergent method for real
symmetric input, accurate to ~1e-14 relative (far inside the 1e-9 contract).
Dense solves are intended for n up to :data:`SPECTRAL_N_CEILING`; the
analytic modules have no such ceiling.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

# an eigenvalue within this of zero counts as the structural zero of a Laplacian
EPS_ZERO = 1e-8

# slack for the lambda_2 >= lambda_min indicator: path-shaped graphs attain
# lambda_min exactly and the eigensolver sits ~1e-16 off the closed form
LAMBDA_MIN_SLACK = 1e-9

# documented ceiling for dense O(n^3) eigensolves
SPECTRAL_N_CEILING = 2000


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix, ascending.

    Raises :class:`ValidationError` when the input is not square or departs
    from symmetry by more than 1e-12 relative to its largest entry.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m - m.T))) > 1e-12 * scale:
        raise ValidationError("matrix is not symmetric to within 1e-12")
    return np.linalg.eigvalsh(m)


def lambda2(laplacian_matrix) -> float:
    """Algebraic connectivity: second-smallest eigenvalue of a graph Laplacian.

    Positive (above :data:`EPS_ZERO`) iff the graph is connected.
    """
    m = np.asarray(laplacian_matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise ValidationError(f"expected a square Laplacian of size >= 2, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if float(np.max(np.abs(m.sum(axis=1)))) > 1e-9 * scale:
        raise ValidationError("row sums are not zero: not a graph Laplacian")
    w = symmetric_eigenvalues(m)
    return float(w[1])


def structured_matrix_eigs(alpha: float, beta: float, n: int) -> tuple[float, float]:
    """Eigenvalues of (alpha-beta)I + beta*J: the simple one and the (n-1)-fold one.

    Returns ``(alpha + (n-1)*beta, alpha - beta)``.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    return alpha + (n - 1) * beta, alpha - beta


def line_graph_lambda_min(n: int) -> float:
    """Minimum algebraic connectivity over connected n-node graphs.

    Attained by the n-node path: 2(1 - cos(pi/n)).
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    return 2.0 * (1.0 - math.cos(math.pi / n))


def lambda2_indicators(lambda2s, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two lambda_2 indicators of n-node graphs, as boolean arrays.

    Returns ``(connected, ge_lambda_min)``: lambda_2 > :data:`EPS_ZERO`, and
    lambda_2 >= :func:`line_graph_lambda_min` (n) - :data:`LAMBDA_MIN_SLACK`.
    """
    lambda2s = np.asarray(lambda2s)
    return (lambda2s > EPS_ZERO,
            lambda2s >= line_graph_lambda_min(n) - LAMBDA_MIN_SLACK)
