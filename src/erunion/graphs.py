"""G(n, p) parameters, the pair enumeration, and the one Laplacian builder.

Nodes are labelled 0..n-1. Admissible node pairs are enumerated in
lexicographic order (0,1), (0,2), ..., (0,n-1), (1,2), ... (:func:`pair_arrays`);
this order fixes both the sampling draw order and the bitmask encoding used
by the enumeration oracle. A sampled graph is the index array of its pairs
in the rarer state, present or missing, as :func:`erunion.rng.rare_pairs`
draws them; a union of N samples is drawn as one G(n, p_hat) sample
(:meth:`ModelParams.effective_probabilities`). Trial t of ``mc`` draws its
union from the stream seeded by ``rng.trial_seeds_np(master_seed, t, 1)``,
both in :func:`erunion.run_mc` and for ``mc --dump-graphs``; see
:mod:`erunion.rng` for the stream definition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError

_REAL_TYPES = (int, float, np.floating)


@dataclass(frozen=True)
class ModelParams:
    """G(n, p): n labelled nodes, each admissible edge present with probability p."""

    n: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise ValidationError(f"n must be an integer >= 2, got {self.n!r}")
        if self.n > 2**53:
            # the message leaves out n, which may have hundreds of digits
            raise ValidationError("n must be at most 2**53: the closed forms take n "
                                  "as a float64")
        if not isinstance(self.p, _REAL_TYPES) or not 0.0 < self.p < 1.0:
            raise ValidationError(f"p must be a real in the open interval (0, 1), got {self.p!r}")
        if type(self.p) is not float:  # a numpy p would carry its dtype into every bound
            object.__setattr__(self, "p", float(self.p))

    @property
    def q(self) -> float:
        """Complement probability 1 - p."""
        return 1.0 - self.p

    @property
    def num_pairs(self) -> int:
        """Number of admissible edges n(n-1)/2."""
        return self.n * (self.n - 1) // 2

    def effective_probabilities(self, num_graphs: int) -> tuple[float, float]:
        """(p_hat, q_hat) of a union of num_graphs samples: p_hat = 1 - (1-p)^N.

        Evaluated through log1p/expm1 for stability; exactly (p, q) for one
        graph. Raises :class:`ValidationError` when p_hat rounds to 1 in
        double precision.
        """
        if not isinstance(num_graphs, int) or isinstance(num_graphs, bool) or num_graphs < 1:
            raise ValidationError(f"num_graphs must be a positive integer, got {num_graphs!r}")
        if num_graphs == 1:
            return self.p, self.q
        log_q = math.log1p(-self.p)
        try:
            exponent = num_graphs * log_q
        except OverflowError:  # N beyond float range; the message leaves out its digits
            raise ValidationError(
                f"effective probability degenerates in double precision "
                f"(p={self.p}, N beyond float range gives p_hat=1.0)") from None
        p_hat = -math.expm1(exponent)
        if not 0.0 < p_hat < 1.0:
            raise ValidationError(
                f"effective probability degenerates in double precision "
                f"(p={self.p}, N={num_graphs} gives p_hat={p_hat})")
        return p_hat, math.exp(exponent)


@lru_cache(maxsize=4)
def pair_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographic pair endpoints as two int32 index arrays (row, col).

    int32 halves the cached index and every endpoint gather against int64: an
    entry is 4 n (n - 1) bytes, 155 KB at n = 200 and 16 MB at n = 2000. It
    is safe up to the dense eigensolver's ceiling, n = 2000: every index is
    below n, and a flat index into one n x n matrix below n^2 = 4e6 < 2^31.
    The cache keeps the last 4 n asked for, read-only, as every caller
    shares them.
    """
    pairs = tuple(index.astype(np.int32) for index in np.triu_indices(n, 1))
    for index in pairs:
        index.flags.writeable = False
    return pairs


def laplacians_from_pairs(batch: np.ndarray, a: np.ndarray, b: np.ndarray, present: bool,
                          rows: int, n: int) -> np.ndarray:
    """Batched graph Laplacians L = D - A of ``rows`` graphs on n nodes, from
    the pairs in one state.

    Pair k joins nodes ``a[k] != b[k]`` of graph ``batch[k]``, each pair
    listed at most once. The listed pairs are present when ``present`` is
    true and missing otherwise; every other pair is in the other state. The
    entry of a missing pair is -0.0 and the diagonal holds the degrees. The
    only Laplacian builder of the package. All entries are small integers,
    hence exact in float64, and each matrix depends on its own pairs alone.
    """
    lap = np.full((rows, n, n), -0.0 if present else -1.0)
    flat = lap.reshape(-1)
    counts = np.zeros(rows * n, dtype=np.int64)
    for u, v in ((a, b), (b, a)):
        # row of node u in the stack of rows * n matrix rows, then, in place,
        # the flat index of its entry in column v: one index array at a time
        index = batch * n + u
        counts += np.bincount(index, minlength=rows * n)
        index *= n
        index += v
        flat[index] = -1.0 if present else -0.0
        del index
    lap.reshape(rows, n * n)[:, ::n + 1] = (counts if present else n - 1 - counts).reshape(rows, n)
    return lap
