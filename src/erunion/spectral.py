"""Symmetric-matrix eigenvalues and the line-graph floor lambda_min.

Eigenvalues come from LAPACK's symmetric drivers, which reduce the matrix to
tridiagonal form by Householder reflections, an unconditionally convergent
method for real symmetric input, accurate to ~1e-14 relative (far inside the
1e-9 contract). :func:`eigenvalue_at` is the one solver of the Monte-Carlo
path. Below :data:`DSYEVR_MIN_N` rows it takes every eigenvalue of a stack
at once by divide and conquer (``dsyevd`` via ``numpy.linalg.eigvalsh``);
from there up it finds the one eigenvalue asked for by bisection on the
tridiagonal matrix (``dsyevr`` with ``RANGE='I'``), one matrix at a time,
through the ILP64 ``scipy_dsyevr_64_`` of the OpenBLAS that numpy bundles,
looked up through ``numpy.linalg``'s own extension module. Its workspace
sizes are LAPACK's own, queried once per n and cached; its buffers are
allocated per call, so no thread keeps any state. Without that symbol
(MKL, Accelerate, a distro numpy) every stack goes to ``eigvalsh``.
No other module calls ``numpy.linalg`` or LAPACK. Dense solves are intended
for n up to :data:`SPECTRAL_N_CEILING`; the analytic modules have none.

The bits of an eigenvalue depend on the BLAS thread count, for ``dsyevr``
and, from about n = 220, for ``eigvalsh``, so every solve of
:data:`DSYEVR_MIN_N` rows or more runs under :func:`one_blas_thread`,
whichever driver takes it. This is the one place that sets the count:
smaller solves run at numpy's own count, with or without worker threads,
as their bits were not seen to depend on it (n = 2..55).
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

# matrices of at least this many rows are solved for one eigenvalue by
# dsyevr, and smaller ones by batched eigvalsh; the cutoff stays at 56
# until a benchmark run moves it (ROADMAP, item 15)
DSYEVR_MIN_N = 56

# (get, set) thread-count functions: plain OpenBLAS, then numpy wheels' ILP64 build
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@functools.cache
def _linalg_library() -> ctypes.CDLL:
    """numpy.linalg's extension module: symbols looked up through it resolve
    in the libraries it links, the BLAS and LAPACK that numpy.linalg calls."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


@functools.cache
def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of numpy's OpenBLAS, or None (MKL, Accelerate)."""
    lib = _linalg_library()
    for get_name, set_name in _OPENBLAS_THREAD_SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@functools.cache
def _dsyevr():
    """LAPACK ``dsyevr`` with 64-bit integers from numpy's OpenBLAS, or None.

    Arguments: JOBZ, RANGE, UPLO, N, A, LDA, VL, VU, IL, IU, ABSTOL, M, W, Z,
    LDZ, ISUPPZ, WORK, LWORK, IWORK, LIWORK, INFO, then the lengths of the
    three strings.
    """
    dsyevr = getattr(_linalg_library(), "scipy_dsyevr_64_", None)
    if dsyevr is not None:
        dsyevr.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 3
        dsyevr.restype = None
    return dsyevr


@functools.cache
def _dsyevr_sizes(n: int) -> tuple[int, int]:
    """LWORK and LIWORK as LAPACK's workspace query gives them at n.

    The outcome depends on them: on K_100 with k = 100 ``dsyevr`` converges
    with the sizes for n = 100 and fails with those for n = 300.
    """
    ints = np.array([n, n, 1, 1, 0, 1, -1, -1, 0, 0, 0], dtype=np.int64)
    # the query writes the sizes it needs into WORK(1) and IWORK(1)
    work, iwork = np.empty(1), np.empty(2, dtype=np.int64)
    _call_dsyevr(_dsyevr(), ints, np.zeros(4), 0, np.empty(n), work, iwork)
    return int(work[0]), int(iwork[1])


def _call_dsyevr(dsyevr, ints: np.ndarray, reals: np.ndarray, a: int, w: np.ndarray,
                 work: np.ndarray, iwork: np.ndarray) -> int:
    """One ``dsyevr`` call for eigenvalue IL = IU of the n x n C-contiguous
    matrix at address ``a`` (0 for the workspace query); returns LAPACK's INFO.

    ``ints`` holds N, LDA, IL, IU, M, LDZ, LWORK, LIWORK, INFO and ISUPPZ(2)
    as int64, ``reals`` VL, VU, ABSTOL and Z. The eigenvalue lands in
    ``w[0]``, and the matrix loses its upper triangle and diagonal. IWORK
    starts one element into ``iwork``: ``dstebz`` may write IBLOCK(0), the
    element before it, when it fails with RANGE='I'.
    """
    i, r = ints.ctypes.data, reals.ctypes.data
    # a symmetric C-order matrix is its own Fortran-order transpose, so
    # LAPACK's lower triangle is the C upper one
    dsyevr(b"N", b"I", b"L", i, a, i + 8, r, r + 8, i + 16, i + 24, r + 16, i + 32,
           w.ctypes.data, r + 24, i + 40, i + 72, work.ctypes.data, i + 48,
           iwork.ctypes.data + 8, i + 56, i + 64, 1, 1, 1)
    return int(ints[8])


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
    Does nothing when numpy's BLAS is not OpenBLAS.
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


def eigenvalue_at(stack: np.ndarray, k: int) -> np.ndarray:
    """The k-th smallest eigenvalue (k = 1..n) of each symmetric n x n matrix
    of a float64 stack.

    Below :data:`DSYEVR_MIN_N` rows, or without ``dsyevr``, this is
    ``numpy.linalg.eigvalsh(stack)[:, k - 1]``, bit for bit. From there up
    every solve runs on one BLAS thread, ``eigvalsh``'s too, and with
    ``dsyevr`` each matrix is solved alone and the stack is scratch: a
    C-contiguous matrix is solved in place, which destroys its upper
    triangle and diagonal, and any other is copied first. ``dsyevr``'s
    workspace takes the sizes LAPACK's query gives, cached per n, and is
    allocated for the call alone: no thread keeps state between calls.
    A matrix on which LAPACK reports a failure to converge (INFO > 0) is
    solved again by ``eigvalsh``.
    """
    rows = stack.shape[-1]
    # a bool or a float is no k: dsyevr would truncate it to one
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k <= rows:
        raise ValidationError(f"k must be an integer in 1..{rows}, got {k!r}")
    if rows < DSYEVR_MIN_N:
        return np.linalg.eigvalsh(stack)[:, k - 1]
    with one_blas_thread():
        dsyevr = _dsyevr()
        if dsyevr is None:
            return np.linalg.eigvalsh(stack)[:, k - 1]
        stack = np.asarray(stack, dtype=np.float64)
        values = np.empty(len(stack))
        lwork, liwork = _dsyevr_sizes(rows)
        ints = np.array([rows, rows, k, k, 0, 1, lwork, liwork, 0, 0, 0], dtype=np.int64)
        reals = np.zeros(4)
        w, work, iwork = np.empty(rows), np.empty(lwork), np.empty(liwork + 1, dtype=np.int64)
        for t, a in enumerate(stack):
            if not a.flags.c_contiguous:
                a = a.copy()
            diagonal = a.diagonal().copy()
            info = _call_dsyevr(dsyevr, ints, reals, a.ctypes.data, w, work, iwork)
            if info < 0:
                raise RuntimeError(f"dsyevr rejected argument {-info}")
            if info > 0:
                # eigvalsh reads the C lower triangle, which dsyevr kept
                np.fill_diagonal(a, diagonal)
                values[t] = np.linalg.eigvalsh(a)[k - 1]
            else:
                values[t] = w[0]
    return values


def line_graph_lambda_min(n: int) -> float:
    """Minimum algebraic connectivity over connected n-node graphs.

    Attained by the n-node path: 2(1 - cos(pi/n)) (Fiedler 1973). So a graph
    has lambda_2 >= lambda_min exactly when it is connected. Evaluated as
    2 sin^2(pi/n) / (1 + cos(pi/n)) to avoid cancellation at large n.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"n must be an integer >= 2, got {n!r}")
    t = math.pi / n
    return 2.0 * math.sin(t) ** 2 / (1.0 + math.cos(t))

