"""Architecture descriptors and weight-space elements.

A weight space is fixed by the layer count ``L``, the per-layer widths
``n_0 .. n_L``, and a channel dimension ``d`` shared by all weights and
biases (``d = 1`` for plain MLPs, ``d = kernel size`` for convolutional
weights).  An element holds one weight tensor per layer, shaped
``[batch?, d, n_i, n_{i-1}]``, and one bias tensor ``[batch?, d, n_i]``.

Every element stores its entries in one contiguous array, a vector per
row, with its tensors as views; a dataset of unbatched elements is thus
stacked with one concatenation per block (see :func:`map_blocks`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Callable, Sequence

import numpy as np

from . import jsonio
from .dense import Rng, tensor
from .errors import ValidationError

__all__ = [
    "WeightSpec",
    "WeightObject",
    "Uniform",
    "Gaussian",
    "dim",
    "random_weights",
    "STACK_BLOCK",
    "map_blocks",
    "save",
    "load",
]

WEIGHT_FORMAT = "magep-weights/1"

# Objects per stacked batch in :func:`map_blocks`.  One block amortizes the
# per-call overhead of the batched numerics; stacking a whole dataset at once
# would hold a second copy of all of its weights.
STACK_BLOCK = 256


def _count(name: str, value, least: int = 1) -> int:
    """``value`` as an ``int >= least``; anything else raises ``ValidationError``."""
    integer = type(value) is int or (
        not isinstance(value, bool) and hasattr(type(value), "__index__")
    )
    if not integer or value < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class WeightSpec:
    """Layer count, widths ``n_0..n_L`` and channel dimension ``d``.

    ``L = 1`` is rejected: the first and last layers play distinct roles in
    every layer formula of this package, so at least one hidden layer must
    exist.
    """

    L: int
    n: tuple[int, ...]
    d: int = 1

    def __post_init__(self):
        try:
            widths = tuple(self.n)
        except TypeError:
            raise ValidationError(f"widths must be a sequence, got n={self.n!r}") from None
        object.__setattr__(self, "L", _count("layer count L", self.L, least=2))
        object.__setattr__(self, "n", tuple(_count("each of the widths", v) for v in widths))
        object.__setattr__(self, "d", _count("channel dimension d", self.d))
        if len(self.n) != self.L + 1:
            raise ValidationError(
                f"width list must have L+1={self.L + 1} entries, got {len(self.n)}"
            )

    def weight_shape(self, i: int) -> tuple[int, int, int]:
        """Unbatched shape of the layer-``i`` weight, ``i`` in ``1..L``."""
        return (self.d, self.n[i], self.n[i - 1])

    def bias_shape(self, i: int) -> tuple[int, int]:
        return (self.d, self.n[i])

    @cached_property
    def _layout(self) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
        """``(start, stop, shape)`` of W^1..W^L, then b^1..b^L, in each row
        of the flat array of a :class:`WeightObject`."""
        shapes = [self.weight_shape(i) for i in range(1, self.L + 1)]
        shapes += [self.bias_shape(i) for i in range(1, self.L + 1)]
        layout, start = [], 0
        for shape in shapes:
            stop = start + prod(shape)
            layout.append((start, stop, shape))
            start = stop
        return tuple(layout)


def dim(spec: WeightSpec) -> int:
    """Total scalar entry count: sum of d*n_i*n_{i-1} + d*n_i over layers."""
    return spec._layout[-1][1]


@dataclass(frozen=True, eq=False)
class WeightObject:
    """One weight-space element, optionally batched.

    ``W[i-1]`` and ``b[i-1]`` hold layer ``i``; prefer the 1-based accessors
    :meth:`weight` and :meth:`bias`, which match the layer indexing used
    throughout the numerics.

    Every entry lives in ``flat``, one C-contiguous float64 array of shape
    ``[dim(spec)]``, or ``[batch, dim(spec)]`` when batched.  Each row holds
    W^1..W^L, then b^1..b^L, each row-major.  ``W`` and ``b`` are views of
    ``flat``, so a write to one shows in the other.  Construction copies the
    given tensors into a fresh array: changing them afterwards leaves the
    object as it was.
    """

    spec: WeightSpec
    W: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]
    batch: int | None = field(default=None)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        W = tuple(tensor(w) for w in self.W)
        b = tuple(tensor(v) for v in self.b)
        spec = self.spec
        if len(W) != spec.L or len(b) != spec.L:
            raise ValidationError(
                f"expected {spec.L} weight and bias tensors, got {len(W)} and {len(b)}"
            )
        batch = _batch(self.batch)
        prefix = _lead(batch)
        for k, (a, (_, _, shape)) in enumerate(zip(W + b, spec._layout)):
            if a.shape != prefix + shape:
                what = f"layer {k + 1} weight" if k < spec.L else f"layer {k + 1 - spec.L} bias"
                raise ValidationError(f"{what} has shape {a.shape}, expected {prefix + shape}")
        _assign(self, spec, batch, _join(spec, W + b, batch))

    @classmethod
    def _derived(cls, spec: WeightSpec, W, b, batch: int | None = None) -> "WeightObject":
        """Package-internal constructor for float64 tensors whose shapes the
        caller derived from ``spec``: they are not checked again."""
        return cls._viewing(spec, batch, _join(spec, W + b, batch))

    @classmethod
    def _viewing(cls, spec: WeightSpec, batch: int | None, flat: np.ndarray) -> "WeightObject":
        """Package-internal constructor around ``flat``, a C-contiguous float64
        array of shape ``[batch?, dim(spec)]`` that the caller hands over
        (or, for :meth:`rows`, shares)."""
        obj = object.__new__(cls)
        _assign(obj, spec, batch, flat)
        return obj

    def __reduce__(self):
        # Copies and unpickled objects are rebuilt by the constructor, so
        # their W and b are again views of their own array.
        return (type(self), (self.spec, self.W, self.b, self.batch))

    def weight(self, i: int) -> np.ndarray:
        return self.W[i - 1]

    def bias(self, i: int) -> np.ndarray:
        return self.b[i - 1]

    def rows(self, lo: int, hi: int) -> "WeightObject":
        """Rows ``lo..hi-1`` of a batched object, as views."""
        if self.batch is None:
            raise ValidationError("rows() needs a batched weight object")
        flat = self.flat[lo:hi]
        return WeightObject._viewing(self.spec, len(flat), flat)

    def map(self, fn) -> "WeightObject":
        """Apply ``fn`` to every weight and bias tensor; each result must
        keep its tensor's shape."""
        old = self.W + self.b
        new = tuple(tensor(fn(a)) for a in old)
        if any(a.shape != c.shape for a, c in zip(old, new)):
            raise ValidationError("map() must keep the shape of every tensor")
        return WeightObject._viewing(self.spec, self.batch, _join(self.spec, new, self.batch))

    def allclose(self, other: "WeightObject", atol: float = 0.0, rtol: float = 0.0) -> bool:
        if self.spec != other.spec or self.batch != other.batch:
            return False
        return np.allclose(self.flat, other.flat, atol=atol, rtol=rtol)

    def equal(self, other: "WeightObject") -> bool:
        """Bit-exact equality."""
        if self.spec != other.spec or self.batch != other.batch:
            return False
        return np.array_equal(self.flat, other.flat)

    @classmethod
    def zeros(cls, spec: WeightSpec, batch: int | None = None) -> "WeightObject":
        batch = _batch(batch)
        return cls._viewing(spec, batch, np.zeros(_lead(batch) + (dim(spec),)))


def _batch(batch) -> int | None:
    return None if batch is None else _count("batch", batch)


def _lead(batch: int | None) -> tuple[int, ...]:
    return () if batch is None else (batch,)


def _join(spec: WeightSpec, tensors, batch: int | None) -> np.ndarray:
    """A fresh flat array holding ``tensors``, W^1..W^L then b^1..b^L.  The
    per-row sizes are explicit, so zero rows join like any other count."""
    sizes = [_lead(batch) + (stop - start,) for start, stop, _ in spec._layout]
    return np.concatenate([a.reshape(size) for a, size in zip(tensors, sizes)], axis=-1)


def _assign(obj: WeightObject, spec: WeightSpec, batch: int | None, flat: np.ndarray) -> None:
    """Set the fields of ``obj``; ``W`` and ``b`` become views of ``flat``."""
    lead = _lead(batch)
    parts = [flat[..., start:stop].reshape(lead + shape) for start, stop, shape in spec._layout]
    W, b = tuple(parts[: spec.L]), tuple(parts[spec.L :])
    obj.__dict__.update(spec=spec, W=W, b=b, batch=batch, flat=flat)


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not -np.inf < self.lo <= self.hi < np.inf:
            raise ValidationError(f"uniform bounds must be finite, lo <= hi: {self.lo}, {self.hi}")

    def sample(self, rng: Rng, size) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Gaussian:
    mean: float
    std: float

    def __post_init__(self):
        if not (np.isfinite(self.mean) and 0 < self.std < np.inf):
            raise ValidationError(f"gaussian needs finite mean, 0 < std: {self.mean}, {self.std}")

    def sample(self, rng: Rng, size) -> np.ndarray:
        return rng.gaussian(self.mean, self.std, size)


def random_weights(
    spec: WeightSpec,
    rng: Rng,
    dist: Uniform | Gaussian = Uniform(-1.0, 1.0),
    batch: int | None = None,
) -> WeightObject:
    """Draw every entry i.i.d. from ``dist``; deterministic given the seed.

    The stream fills W^1..W^L, then b^1..b^L, each row-major; an unbatched
    object draws its whole vector in that order with one call.  A batched
    one draws each tensor for all rows in turn, then stores them with one
    concatenation.
    """
    batch = _batch(batch)
    if batch is None:
        return WeightObject._viewing(spec, None, dist.sample(rng, (dim(spec),)))
    parts = [dist.sample(rng, (batch,) + shape) for _, _, shape in spec._layout]
    return WeightObject._viewing(spec, batch, _join(spec, parts, batch))


def map_blocks(
    objects: Sequence[WeightObject], fn: Callable[[WeightObject], np.ndarray]
) -> np.ndarray:
    """``fn`` applied to the objects stacked :data:`STACK_BLOCK` rows at a
    time, its rows gathered into one array ``[len(objects), ...]``.

    The objects must be unbatched and share one spec, and there must be at
    least one.  Row ``k`` of the ``j``-th block is
    ``objects[j * STACK_BLOCK + k]``.  Every block's ``flat`` is a view of one
    buffer that the whole call reuses, filled by one concatenation of the
    rows' flat vectors.  ``fn(block)`` returns one row per object of the
    block; those rows are copied into the result before the next block
    overwrites the buffer, so ``fn`` may return a view of the block but must
    not keep one.
    """
    if not objects:
        raise ValidationError("map_blocks needs at least one weight object")
    spec = objects[0].spec
    for u in objects:
        if u.batch is not None or (u.spec is not spec and u.spec != spec):
            raise ValidationError("stacking needs unbatched weight objects of one spec")
    buf = np.empty((min(len(objects), STACK_BLOCK), dim(spec)))
    out = None
    for lo in range(0, len(objects), STACK_BLOCK):
        rows = objects[lo : lo + STACK_BLOCK]
        flat = buf[: len(rows)]
        np.concatenate([u.flat for u in rows], out=flat.reshape(-1))
        got = fn(WeightObject._viewing(spec, len(rows), flat))
        if out is None:
            out = np.empty((len(objects),) + got.shape[1:], got.dtype)
        out[lo : lo + len(rows)] = got
    return out


_WEIGHT_KEYS = ("format", "L", "n", "d", "batch", "W", "b")


def save(obj: WeightObject, path) -> None:
    """Write ``obj`` as a self-describing JSON document (``.mgw.json``)."""
    spec = obj.spec
    doc = {
        "format": WEIGHT_FORMAT,
        "L": spec.L,
        "n": list(spec.n),
        "d": spec.d,
        "batch": obj.batch,
        "W": [w for w in obj.W],
        "b": [v for v in obj.b],
    }
    jsonio.dump_path(doc, path)


def load(path) -> tuple[WeightSpec, WeightObject]:
    """Read a ``.mgw.json`` document; inverse of :func:`save` bit-exactly."""
    doc = jsonio.exact_keys("top-level", jsonio.load_path(path), _WEIGHT_KEYS)
    if doc["format"] != WEIGHT_FORMAT:
        raise ValidationError(f"unsupported format {doc['format']!r}")
    spec = WeightSpec(L=doc["L"], n=doc["n"], d=doc["d"])
    batch = _batch(doc["batch"])
    prefix = _lead(batch)
    if not isinstance(doc["W"], list) or len(doc["W"]) != spec.L:
        raise ValidationError("W must list one tensor per layer")
    if not isinstance(doc["b"], list) or len(doc["b"]) != spec.L:
        raise ValidationError("b must list one tensor per layer")
    W = tuple(
        jsonio.finite(f"layer {i} weight", w, prefix + spec.weight_shape(i))
        for i, w in enumerate(doc["W"], 1)
    )
    b = tuple(
        jsonio.finite(f"layer {i} bias", v, prefix + spec.bias_shape(i))
        for i, v in enumerate(doc["b"], 1)
    )
    return spec, WeightObject._derived(spec, W, b, batch)
