"""Symmetric-matrix eigenvalues and reference spectra.

Eigenvalues come from LAPACK's symmetric driver (Householder
tridiagonalisation followed by divide-and-conquer, ``dsyevd`` via
``numpy.linalg.eigvalsh``), an unconditionally convergent method for real
symmetric input, accurate to ~1e-14 relative (far inside the 1e-9 contract).
Dense solves are intended for n up to :data:`SPECTRAL_N_CEILING`; the
analytic modules have no such ceiling.

Worker threads that each solve their own matrices run under
:func:`one_blas_thread`, so that OpenBLAS does not add its own threads on top
of them.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading

import numpy as np

from .errors import ValidationError

# an eigenvalue within this of zero counts as the structural zero of a
# Laplacian: lambda_2 > EPS_ZERO is the one connectivity indicator
EPS_ZERO = 1e-8

# documented ceiling for dense O(n^3) eigensolves
SPECTRAL_N_CEILING = 2000


# (get, set) thread-count entry points: plain OpenBLAS, then the 64-bit
# integer build that numpy wheels bundle
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@functools.cache
def _openblas_thread_controls():
    """``(get, set)`` of the thread count of the OpenBLAS this process has loaded.

    Found once per process among the files mapped into it; None when there
    is no OpenBLAS (MKL, Accelerate) or no ``/proc/self/maps`` (non-Linux).
    """
    try:
        with open("/proc/self/maps") as maps:
            # a line naming a file ends with its path
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


# the thread count is process-wide: the first of overlapping one_blas_thread
# bodies (in any threads) sets it to 1 and the last to leave restores it
_one_thread_lock = threading.Lock()
_one_thread_holders = 0
_one_thread_saved = 1


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread; restore the count after.

    The count is process-wide, so it covers every thread's solves while the
    body runs, and it is restored when the last of overlapping bodies ends.
    Does nothing when no OpenBLAS is loaded.
    """
    global _one_thread_holders, _one_thread_saved
    controls = _openblas_thread_controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    with _one_thread_lock:
        if _one_thread_holders == 0:
            _one_thread_saved = get()
            set_(1)
        _one_thread_holders += 1
    try:
        yield
    finally:
        with _one_thread_lock:
            _one_thread_holders -= 1
            if _one_thread_holders == 0:
                set_(_one_thread_saved)


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

    Attained by the n-node path: 2(1 - cos(pi/n)) (Fiedler 1973). So a graph
    has lambda_2 >= lambda_min exactly when it is connected.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    return 2.0 * (1.0 - math.cos(math.pi / n))

