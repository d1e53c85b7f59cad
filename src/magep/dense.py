"""Dense tensor substrate: float64 arrays, per-channel products, index
contractions, and a seeded deterministic random stream.

All numeric state in this package is a row-major ``numpy.ndarray`` of
``float64``; the helpers here add the shape validation and error reporting
the rest of the package relies on.  :func:`contract` evaluates with
``numpy.einsum`` with path optimization disabled, so its reduction order is
the fixed left-to-right order of the spec string; no layer uses it.  The
featurizer, the invariant layer and the equivariant layer are BLAS matrix
products (``numpy.matmul``), whose results repeat exactly for a fixed BLAS
build and thread count, and can differ in the last digits across them.
Their largest products go through :func:`serial_matmul`, which keeps each
BLAS call small enough to run on the calling thread.
"""

from __future__ import annotations

import zlib
from typing import Sequence

import numpy as np

from .errors import DimensionError, SpecError

__all__ = [
    "tensor",
    "channel_matmul",
    "serial_matmul",
    "contract",
    "rel_residual",
    "Rng",
]


def tensor(data) -> np.ndarray:
    """Coerce ``data`` to a float64 array."""
    return np.asarray(data, dtype=np.float64)


def channel_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel matrix product: ``out[c] = a[c] @ b[c]``.

    ``a`` has shape ``[..., m, k]`` and ``b`` shape ``[..., k, n]``; all
    leading (channel/batch) extents must match exactly, no broadcasting.
    """
    a = tensor(a)
    b = tensor(b)
    if a.ndim < 3 or b.ndim < 3:
        raise DimensionError(
            f"channel_matmul needs rank >= 3 operands, got shapes {a.shape} and {b.shape}"
        )
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"channel_matmul shape mismatch: {a.shape} x {b.shape}"
        )
    return np.matmul(a, b)


# OpenBLAS runs a GEMM of up to this many multiply-adds on the calling thread.
# Larger ones it spreads over every core; with OpenBLAS 0.3.31 on a 2-vCPU
# Xeon VM the switch lay between 0.8M and 1.6M multiply-adds.
SERIAL_MADDS = 1 << 18


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.matmul(a, b)`` issued as BLAS calls of at most ``SERIAL_MADDS``
    multiply-adds each, so that every call runs on the calling thread.

    The contracted axis is cut into chunks whose products are summed.  At
    the layer sizes here a threaded GEMM saves little time but keeps a
    second core spinning for the whole forward, which doubles its CPU time
    and ties its speed to the load on that core.  A product whose output
    rows times columns alone exceed the budget goes to BLAS whole.
    """
    if a.ndim == 1:
        return serial_matmul(a[None], b)[..., 0, :]
    m, k = a.shape[-2:]
    n = b.shape[-1]
    step = SERIAL_MADDS // (m * n)
    if step >= k or step == 0:
        return np.matmul(a, b)
    out = np.matmul(a[..., :step], b[..., :step, :])
    for s in range(step, k, step):
        out += np.matmul(a[..., s:s + step], b[..., s:s + step, :])
    return out


def _parse_spec(spec: str, n_operands: int) -> tuple[list[str], str]:
    spec = spec.replace("→", "->").replace(" ", "")
    if "->" not in spec:
        raise SpecError(f"contraction spec {spec!r} lacks '->'")
    lhs, out = spec.split("->", 1)
    groups = lhs.split(",")
    if len(groups) != n_operands:
        raise SpecError(
            f"contraction spec {spec!r} names {len(groups)} operands, got {n_operands}"
        )
    letters = set("".join(groups))
    for ch in letters | set(out):
        if not ch.isalpha():
            raise SpecError(f"contraction spec {spec!r} has invalid index {ch!r}")
    for ch in out:
        if ch not in letters:
            raise SpecError(
                f"output index {ch!r} of spec {spec!r} is absent from the inputs"
            )
    if len(set(out)) != len(out):
        raise SpecError(f"output indices of spec {spec!r} repeat")
    return groups, out


def contract(spec: str, operands: Sequence[np.ndarray]) -> np.ndarray:
    """Generic index contraction, e.g. ``contract("ij,jk->ik", (a, b))``.

    The output equals the sum over all non-output letters of the product of
    operand entries.  Accepts ``->`` or a unicode arrow in ``spec``.
    Evaluation order is the fixed order of the spec string (no path
    optimization), so sums reassociate identically on every run.
    """
    arrays = [tensor(op) for op in operands]
    groups, out = _parse_spec(spec, len(arrays))
    extents: dict[str, int] = {}
    for group, arr in zip(groups, arrays):
        if len(group) != arr.ndim:
            raise SpecError(
                f"operand group {group!r} names {len(group)} axes, operand has shape {arr.shape}"
            )
        for ch, ext in zip(group, arr.shape):
            if extents.setdefault(ch, ext) != ext:
                raise DimensionError(
                    f"index {ch!r} has extents {extents[ch]} and {ext} "
                    f"in contraction over shapes {[a.shape for a in arrays]}"
                )
    return np.einsum(",".join(groups) + "->" + out, *arrays, optimize=False)


def rel_residual(a: np.ndarray, b: np.ndarray) -> float:
    """Max-norm relative residual between two arrays of equal shape.

    Returns ``max|a - b| / max(max|a|, max|b|)``, or 0 when both arrays
    vanish.  Used by every property suite in the package.
    """
    a = tensor(a)
    b = tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"residual of mismatched shapes {a.shape} and {b.shape}")
    if a.size == 0:
        return 0.0
    num = float(np.max(np.abs(a - b)))
    den = float(max(np.max(np.abs(a)), np.max(np.abs(b))))
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


class Rng:
    """Deterministic random stream with reproducible sub-streams.

    Backed by numpy's PCG64 bit generator seeded through ``SeedSequence``:
    the same ``(seed, *keys)`` tuple yields the same stream on every
    platform.  Sub-streams are derived with :meth:`child`, which folds the
    given keys (ints, or strings hashed with crc32) into the seed material.
    """

    def __init__(self, seed: int, _keys: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._keys = _keys
        entropy = (self.seed & 0xFFFFFFFFFFFFFFFF,) + _keys
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

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
