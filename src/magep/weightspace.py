"""Architecture descriptors and weight-space elements.

A weight space is fixed by the layer count ``L``, the per-layer widths
``n_0 .. n_L``, and a channel dimension ``d`` shared by all weights and
biases (``d = 1`` for plain MLPs, ``d = kernel size`` for convolutional
weights).  An element holds one weight tensor per layer, shaped
``[batch?, d, n_i, n_{i-1}]``, and one bias tensor ``[batch?, d, n_i]``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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
    "stack_blocks",
    "save",
    "load",
]

WEIGHT_FORMAT = "magep-weights/1"

# Objects per stacked batch in :func:`stack_blocks`.  One block amortizes the
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


def dim(spec: WeightSpec) -> int:
    """Total scalar entry count: sum of d*n_i*n_{i-1} + d*n_i over layers."""
    return sum(
        spec.d * spec.n[i] * spec.n[i - 1] + spec.d * spec.n[i]
        for i in range(1, spec.L + 1)
    )


@dataclass(frozen=True)
class WeightObject:
    """One weight-space element, optionally batched.

    ``W[i-1]`` and ``b[i-1]`` hold layer ``i``; prefer the 1-based accessors
    :meth:`weight` and :meth:`bias`, which match the layer indexing used
    throughout the numerics.
    """

    spec: WeightSpec
    W: tuple[np.ndarray, ...]
    b: tuple[np.ndarray, ...]
    batch: int | None = field(default=None)

    def __post_init__(self):
        W = tuple(tensor(w) for w in self.W)
        b = tuple(tensor(v) for v in self.b)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        spec = self.spec
        if len(W) != spec.L or len(b) != spec.L:
            raise ValidationError(
                f"expected {spec.L} weight and bias tensors, got {len(W)} and {len(b)}"
            )
        prefix = (self.batch,) if self.batch is not None else ()
        for i in range(1, spec.L + 1):
            want_w = prefix + spec.weight_shape(i)
            want_b = prefix + spec.bias_shape(i)
            if W[i - 1].shape != want_w:
                raise ValidationError(
                    f"layer {i} weight has shape {W[i - 1].shape}, expected {want_w}"
                )
            if b[i - 1].shape != want_b:
                raise ValidationError(
                    f"layer {i} bias has shape {b[i - 1].shape}, expected {want_b}"
                )

    def weight(self, i: int) -> np.ndarray:
        return self.W[i - 1]

    def bias(self, i: int) -> np.ndarray:
        return self.b[i - 1]

    def rows(self, lo: int, hi: int) -> "WeightObject":
        """Rows ``lo..hi-1`` of a batched object, as views."""
        if self.batch is None:
            raise ValidationError("rows() needs a batched weight object")
        W = tuple(w[lo:hi] for w in self.W)
        return WeightObject(self.spec, W, tuple(v[lo:hi] for v in self.b), W[0].shape[0])

    def map(self, fn) -> "WeightObject":
        """Apply ``fn`` to every weight and bias tensor."""
        return WeightObject(
            self.spec,
            tuple(fn(w) for w in self.W),
            tuple(fn(v) for v in self.b),
            self.batch,
        )

    def allclose(self, other: "WeightObject", atol: float = 0.0, rtol: float = 0.0) -> bool:
        if self.spec != other.spec or self.batch != other.batch:
            return False
        return all(
            np.allclose(a, b, atol=atol, rtol=rtol)
            for a, b in zip(self.W + self.b, other.W + other.b)
        )

    def equal(self, other: "WeightObject") -> bool:
        """Bit-exact equality."""
        if self.spec != other.spec or self.batch != other.batch:
            return False
        return all(
            np.array_equal(a, b) for a, b in zip(self.W + self.b, other.W + other.b)
        )

    @classmethod
    def zeros(cls, spec: WeightSpec, batch: int | None = None) -> "WeightObject":
        prefix = (batch,) if batch is not None else ()
        return cls(
            spec,
            tuple(np.zeros(prefix + spec.weight_shape(i)) for i in range(1, spec.L + 1)),
            tuple(np.zeros(prefix + spec.bias_shape(i)) for i in range(1, spec.L + 1)),
            batch,
        )


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValidationError(f"uniform bounds out of order: {self.lo} > {self.hi}")

    def sample(self, rng: Rng, size) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size)


@dataclass(frozen=True)
class Gaussian:
    mean: float
    std: float

    def __post_init__(self):
        if self.std <= 0:
            raise ValidationError(f"gaussian std must be positive, got {self.std}")

    def sample(self, rng: Rng, size) -> np.ndarray:
        return rng.gaussian(self.mean, self.std, size)


def random_weights(
    spec: WeightSpec,
    rng: Rng,
    dist: Uniform | Gaussian = Uniform(-1.0, 1.0),
    batch: int | None = None,
) -> WeightObject:
    """Draw every entry i.i.d. from ``dist``; deterministic given the seed."""
    prefix = (batch,) if batch is not None else ()
    W = tuple(
        dist.sample(rng, prefix + spec.weight_shape(i)) for i in range(1, spec.L + 1)
    )
    b = tuple(
        dist.sample(rng, prefix + spec.bias_shape(i)) for i in range(1, spec.L + 1)
    )
    return WeightObject(spec, W, b, batch)


def stack_blocks(objects: Sequence[WeightObject]) -> Iterator[WeightObject]:
    """Batched objects of up to :data:`STACK_BLOCK` consecutive rows each.

    The inputs must be unbatched and share one spec; row ``k`` of the
    ``j``-th block is ``objects[j * STACK_BLOCK + k]``.
    """
    if not objects:
        return
    spec = objects[0].spec
    for u in objects:
        if u.spec != spec or u.batch is not None:
            raise ValidationError("stacking needs unbatched weight objects of one spec")
    for lo in range(0, len(objects), STACK_BLOCK):
        rows = objects[lo : lo + STACK_BLOCK]
        yield WeightObject(
            spec,
            tuple(np.stack(layer) for layer in zip(*(u.W for u in rows))),
            tuple(np.stack(layer) for layer in zip(*(u.b for u in rows))),
            batch=len(rows),
        )


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
    batch = None if doc["batch"] is None else _count("batch", doc["batch"])
    prefix = (batch,) if batch is not None else ()
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
    return spec, WeightObject(spec, W, b, batch)
