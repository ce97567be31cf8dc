"""Symmetric-matrix eigenvalues and the line-graph floor lambda_min.

Eigenvalues come from LAPACK's symmetric drivers, which reduce the matrix to
tridiagonal form by Householder reflections, an unconditionally convergent
method for real symmetric input, accurate to ~1e-14 relative (far inside the
1e-9 contract). :func:`eigenvalue_at` is the one solver of the Monte-Carlo
path. Below :data:`DSYEVR_MIN_N` rows it takes every eigenvalue of a stack
at once by divide and conquer (``dsyevd`` via ``numpy.linalg.eigvalsh``);
from there up it finds the one eigenvalue asked for by bisection on the
tridiagonal matrix (``dsyevr`` with ``RANGE='I'``), one matrix at a time,
through the ILP64 ``scipy_dsyevr_64_`` of the OpenBLAS that numpy bundles.
Without that symbol (MKL, Accelerate, a distro numpy) every stack goes to
``eigvalsh``. Dense solves are intended for n up to
:data:`SPECTRAL_N_CEILING`; the analytic modules have no such ceiling.

The bits of a ``dsyevr`` eigenvalue depend on the BLAS thread count, so its
solves always run under :func:`one_blas_thread`. Worker threads that each
solve their own matrices run under it too, so that OpenBLAS does not add
its own threads on top of them.
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
# dsyevr, and smaller ones by batched eigvalsh; measured per matrix at
# p = 0.25 and 0.75, dsyevr is the faster from about n = 36 (ROADMAP,
# Baseline), and the cutoff stays at 56 until ROADMAP item 9 moves it
DSYEVR_MIN_N = 56

# (get, set) thread-count entry points: plain OpenBLAS, then the 64-bit
# integer build that numpy wheels bundle
_OPENBLAS_THREAD_SYMBOLS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
)


@functools.cache
def _openblas():
    """The OpenBLAS library this process has loaded, with its ``(get, set)``
    thread-count functions.

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
                return lib, get, set_
    return None


def _openblas_thread_controls():
    """``(get, set)`` of the thread count of the OpenBLAS this process has loaded."""
    found = _openblas()
    return None if found is None else found[1:]


@functools.cache
def _dsyevr():
    """LAPACK ``dsyevr`` with 64-bit integers from numpy's OpenBLAS, or None.

    Arguments: JOBZ, RANGE, UPLO, N, A, LDA, VL, VU, IL, IU, ABSTOL, M, W, Z,
    LDZ, ISUPPZ, WORK, LWORK, IWORK, LIWORK, INFO, then the lengths of the
    three strings.
    """
    found = _openblas()
    dsyevr = getattr(found[0], "scipy_dsyevr_64_", None) if found else None
    if dsyevr is not None:
        dsyevr.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 18 + [ctypes.c_size_t] * 3
        dsyevr.restype = None
    return dsyevr


class _DsyevrWorkspace:
    """One thread's ``dsyevr`` arguments and workspace for n x n matrices.

    Its sizes are those LAPACK asks for at n, as the outcome depends on
    them: on K_100 with k = 100 ``dsyevr`` converges with the sizes for
    n = 100 and fails with those for n = 300.
    """

    def __init__(self, dsyevr, n: int):
        self.dsyevr, self.n = dsyevr, n
        # N, LDA, IL, IU, M, LDZ, LWORK, LIWORK, INFO; VL, VU, ABSTOL = 0
        self.ints = np.array([n, n, 1, 1, 0, 1, -1, -1, 0], dtype=np.int64)
        self.reals = np.zeros(3)
        self.w, self.z, self.isuppz = np.empty(n), np.empty(1), np.empty(2, dtype=np.int64)
        # the workspace query writes the sizes it needs into WORK(1) and IWORK(1)
        self.work, self.iwork = np.empty(1), np.empty(2, dtype=np.int64)
        self.solve(None)
        self.ints[6:8] = int(self.work[0]), self.iwork[1]
        # dstebz may write IBLOCK(0), the element before IWORK, when it fails
        # with RANGE='I', so IWORK starts one element into its array
        self.work, self.iwork = np.empty(self.ints[6]), np.empty(self.ints[7] + 1, dtype=np.int64)

    def solve(self, a: np.ndarray | None, k: int = 1) -> int:
        """Put the k-th smallest eigenvalue of the n x n C-contiguous ``a`` in
        ``w[0]``, destroying its upper triangle and diagonal; returns LAPACK's
        INFO. ``a`` is None for the workspace query."""
        ints, reals = self.ints.ctypes.data, self.reals.ctypes.data
        pointer = 0 if a is None else a.ctypes.data
        self.ints[2:4] = k
        # a symmetric C-order matrix is its own Fortran-order transpose, so
        # LAPACK's lower triangle is the C upper one
        self.dsyevr(b"N", b"I", b"L", ints, pointer, ints + 8, reals, reals + 8, ints + 16,
                    ints + 24, reals + 16, ints + 32, self.w.ctypes.data, self.z.ctypes.data,
                    ints + 40, self.isuppz.ctypes.data, self.work.ctypes.data, ints + 48,
                    self.iwork.ctypes.data + 8, ints + 56, ints + 64, 1, 1, 1)
        return int(self.ints[8])


_local = threading.local()


def _workspace(dsyevr, n: int) -> _DsyevrWorkspace:
    """This thread's ``dsyevr`` workspace for n x n matrices (the last n it solved)."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.n != n or ws.dsyevr is not dsyevr:
        ws = _local.workspace = _DsyevrWorkspace(dsyevr, n)
    return ws


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


def eigenvalue_at(stack: np.ndarray, k: int) -> np.ndarray:
    """The k-th smallest eigenvalue (k = 1..n) of each symmetric n x n matrix
    of a float64 stack.

    Below :data:`DSYEVR_MIN_N` rows, or without ``dsyevr``, this is
    ``numpy.linalg.eigvalsh(stack)[:, k - 1]``, bit for bit. From there up
    each matrix is solved alone by ``dsyevr``, on one BLAS thread, and the
    stack is scratch: a C-contiguous matrix is solved in place, which
    destroys its upper triangle and diagonal, and any other is copied first.
    A matrix on which LAPACK reports a failure to converge (INFO > 0) is
    solved again by ``eigvalsh``.
    """
    rows = stack.shape[-1]
    if not 1 <= k <= rows:
        raise ValidationError(f"k must be in 1..{rows}, got {k!r}")
    dsyevr = _dsyevr() if rows >= DSYEVR_MIN_N else None
    if dsyevr is None:
        return np.linalg.eigvalsh(stack)[:, k - 1]
    stack = np.asarray(stack, dtype=np.float64)
    values = np.empty(len(stack))
    with one_blas_thread():
        ws = _workspace(dsyevr, rows)
        for t, a in enumerate(stack):
            if not a.flags.c_contiguous:
                a = a.copy()
            diagonal = a.diagonal().copy()
            info = ws.solve(a, k)
            if info < 0:
                raise RuntimeError(f"dsyevr rejected argument {-info}")
            if info > 0:
                # eigvalsh reads the C lower triangle, which dsyevr kept
                np.fill_diagonal(a, diagonal)
                values[t] = np.linalg.eigvalsh(a)[k - 1]
            else:
                values[t] = ws.w[0]
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

