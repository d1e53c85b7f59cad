"""Dense tensor substrate: float64 arrays, serial BLAS products, residuals,
and a seeded deterministic random stream.

All numeric state in this package is a row-major ``numpy.ndarray`` of
``float64``.  The featurizer, the invariant layer and the equivariant layer
are BLAS matrix products (``numpy.matmul``), whose results repeat exactly
for a fixed BLAS build and thread count, and can differ in the last digits
across them.  Their largest products go through :func:`serial_matmul`,
which keeps each BLAS call small enough to run on the calling thread.  The
parallelism is coarse instead: :func:`magep.layers.stack_forward` runs a
batch's row blocks on several threads, each block's BLAS calls serial, as
numpy releases the interpreter lock inside them.
"""

from __future__ import annotations

import math
import zlib
from functools import cached_property

import numpy as np

from .errors import DimensionError

__all__ = [
    "tensor",
    "serial_matmul",
    "rel_residual",
    "Rng",
]


def tensor(data) -> np.ndarray:
    """Coerce ``data`` to a float64 array."""
    return np.asarray(data, dtype=np.float64)


# OpenBLAS runs a GEMM of up to this many multiply-adds on the calling thread.
# Larger ones it spreads over every core; with OpenBLAS 0.3.31 on a 2-vCPU
# Xeon VM the switch lay between 0.8M and 1.6M multiply-adds.
SERIAL_MADDS = 1 << 18


def serial_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.matmul(a, b, out=out)`` issued as BLAS calls of at most
    ``SERIAL_MADDS`` multiply-adds each, so that every call runs on the
    calling thread.

    The contracted axis is cut into chunks whose products are summed into
    ``out``.  At the layer sizes here a threaded GEMM saves little time but
    keeps a second core spinning for the whole forward, which doubles its CPU
    time and ties its speed to the load on that core.  Threads over rows are
    another matter: :func:`magep.layers.stack_forward` runs row blocks on
    several threads, each doing its own work with its own BLAS calls kept
    serial, so no core spins waiting and no BLAS thread pool nests inside
    them.  A product whose output rows times columns alone exceed the budget
    goes to BLAS whole.
    """
    if a.ndim == 1:
        return serial_matmul(a[None], b, None if out is None else out[..., None, :])[..., 0, :]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    step = SERIAL_MADDS // (m * n)
    if step >= k or step == 0:
        return np.matmul(a, b, out=out)
    out = np.matmul(a[..., :step], b[..., :step, :], out=out)
    for s in range(step, k, step):
        out += np.matmul(a[..., s:s + step], b[..., s:s + step, :])
    return out


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm relative residual between two arrays of equal shape.

    Returns ``max|a - b| / max(max|a|, max|b|)``, or 0 when both arrays
    vanish, or ``inf`` when the ratio is NaN (a NaN or infinite entry), so
    that a ``max`` over residuals cannot drop it.  Used by every property
    suite in the package.
    """
    a = tensor(a)
    b = tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"residual of mismatched shapes {a.shape} and {b.shape}")
    if a.size == 0:
        return 0.0
    num = float(np.abs(a - b).max())
    den = float(max(np.abs(a).max(), np.abs(b).max()))
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    ratio = num / den
    return math.inf if math.isnan(ratio) else ratio


class Rng:
    """Deterministic random stream with reproducible sub-streams.

    Backed by numpy's PCG64 bit generator seeded through ``SeedSequence``:
    the same ``(seed, *keys)`` tuple yields the same stream on every
    platform.  Sub-streams are derived with :meth:`child`, which folds the
    given keys (ints, or strings hashed with crc32) into the seed material.
    The generator is built at the first draw, so a stream that only derives
    children, or draws nothing, costs no seeding.
    """

    def __init__(self, seed: int, _keys: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._keys = _keys

    @cached_property
    def _gen(self) -> np.random.Generator:
        entropy = (self.seed & 0xFFFFFFFFFFFFFFFF,) + self._keys
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def child(self, *keys: int | str) -> "Rng":
        """A new independent stream derived from this seed and ``keys``."""
        folded = tuple(
            zlib.crc32(k.encode()) if isinstance(k, str) else int(k) & 0xFFFFFFFFFFFFFFFF
            for k in keys
        )
        return Rng(self.seed, self._keys + folded)

    def uniform(self, lo: float, hi: float, size=None) -> np.ndarray:
        if lo > hi:
            raise ValueError(f"uniform bounds out of order: lo={lo} > hi={hi}")
        if lo == hi:
            return np.full(() if size is None else size, float(lo))
        return self._gen.uniform(lo, hi, size=size)

    def random(self, size=None) -> np.ndarray:
        """Uniform in ``[0, 1)``: ``uniform(lo, hi)`` is ``lo + (hi - lo) * random()``."""
        return self._gen.random(size)

    def gaussian(self, mean: float, std: float, size=None) -> np.ndarray:
        if std <= 0:
            raise ValueError(f"gaussian std must be positive, got {std}")
        return self._gen.normal(mean, std, size=size)

    def log_uniform(self, lo: float, hi: float, size=None) -> np.ndarray:
        """Uniform in log-space over ``[lo, hi]``; requires ``0 < lo <= hi``."""
        if lo <= 0:
            raise ValueError(f"log_uniform needs lo > 0, got {lo}")
        if lo > hi:
            raise ValueError(f"log_uniform bounds out of order: lo={lo} > hi={hi}")
        return np.exp(self.uniform(np.log(lo), np.log(hi), size=size))

    def signs(self, size=None) -> np.ndarray:
        """Fair +-1 samples."""
        return 2.0 * self._gen.integers(0, 2, size=size).astype(np.float64) - 1.0

    def integers(self, lo: int, hi: int, size=None):
        """Integers in ``[lo, hi]`` inclusive."""
        return self._gen.integers(lo, hi + 1, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """A uniform random permutation of ``0..n-1`` (Fisher-Yates)."""
        return self._gen.permutation(n)

    def choice(self, seq):
        return seq[int(self._gen.integers(0, len(seq)))]
