"""Monomial matrices and the weight-space symmetry group.

A monomial (generalized permutation) matrix is stored factored as a pair
``(scales, perm)`` representing ``D @ P``, where ``D = diag(scales)`` and
``P`` is the permutation matrix of ``perm`` (``P x`` picks entry
``perm^{-1}(i)`` into slot ``i``).  The symmetry group of a weight space
keeps the input and output layers fixed and applies one monomial factor per
hidden layer; the "positive" variant uses strictly positive scales (the
symmetry group of ReLU-family networks), the "sign" variant uses scales in
``{-1, +1}`` (odd activations such as tanh and sin).

Acting with ``g`` on a weight object rewires every layer consistently:

    (g W)^(i)[j, k] = d_i[j] / d_{i-1}[k] * W^(i)[pi_i^{-1}(j), pi_{i-1}^{-1}(k)]
    (g b)^(i)[j]    = d_i[j] * b^(i)[pi_i^{-1}(j)]

applied identically over channel and batch axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import Rng, tensor
from .errors import DimensionError, ValidationError
from .weightspace import WeightObject, WeightSpec

__all__ = [
    "VARIANT_POSITIVE",
    "VARIANT_SIGN",
    "VARIANTS",
    "MonomialElement",
    "GroupElement",
    "identity",
    "identity_monomial",
    "sample_monomial",
    "sample",
    "compose",
    "invert",
    "act",
    "act_layers",
]

VARIANT_POSITIVE = "positive"
VARIANT_SIGN = "sign"
VARIANTS = (VARIANT_POSITIVE, VARIANT_SIGN)

DEFAULT_SCALE_RANGE = (0.25, 4.0)


def _scale_range(scale_range) -> tuple[float, float]:
    """``(lo, hi)`` as floats with ``0 < lo <= hi < inf``; anything else
    raises ``ValidationError``."""
    try:
        lo, hi = (float(v) for v in scale_range)
    except (TypeError, ValueError):
        raise ValidationError(f"scale range must be a pair lo, hi, got {scale_range!r}") from None
    if not 0.0 < lo <= hi < math.inf:
        raise ValidationError(f"scale range must be finite with 0 < lo <= hi, got {scale_range}")
    return lo, hi


def _check_scales(scales: np.ndarray) -> np.ndarray:
    if not (np.isfinite(scales) & (scales != 0.0)).all():
        raise ValidationError("monomial scales must be finite and non-zero")
    return scales


def _known_variant(variant: str) -> str:
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    return variant


@dataclass(frozen=True)
class MonomialElement:
    """One factored monomial matrix ``diag(scales) @ P_perm``.

    ``perm`` maps source slot ``j`` to target slot ``perm[j]`` (0-based).
    The constructor copies both arrays, and they and ``inv_perm`` are
    read-only, so the inverse permutation is computed once per factor and
    can never go stale.
    """

    scales: np.ndarray
    perm: np.ndarray

    def __post_init__(self):
        scales = np.array(self.scales, dtype=np.float64)
        perm = np.array(self.perm, dtype=np.intp)
        if scales.ndim != 1 or perm.ndim != 1 or scales.shape != perm.shape:
            raise ValidationError(
                f"scales and perm must be equal-length vectors, got {scales.shape} and {perm.shape}"
            )
        _check_scales(scales)
        inv_perm = np.argsort(perm)
        if not np.array_equal(perm[inv_perm], np.arange(perm.size)):
            raise ValidationError(f"perm {perm.tolist()} is not a permutation")
        self._own(scales, perm, inv_perm)

    @classmethod
    def _derived(cls, scales: np.ndarray, perm: np.ndarray, inv_perm: np.ndarray) -> "MonomialElement":
        """A factor from fresh arrays whose validity the caller's arithmetic
        guarantees: no checks, no copies."""
        m = object.__new__(cls)
        m._own(scales, perm, inv_perm)
        return m

    def _own(self, scales: np.ndarray, perm: np.ndarray, inv_perm: np.ndarray) -> None:
        for name, value in (("scales", scales), ("perm", perm), ("inv_perm", inv_perm)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Copies and unpickled factors go through the checking constructor,
        # so their arrays are again read-only.
        return type(self), (self.scales, self.perm)

    @property
    def n(self) -> int:
        return self.scales.size

    def is_identity(self) -> bool:
        return bool(
            np.array_equal(self.perm, np.arange(self.n))
            and np.all(self.scales == 1.0)
        )

    def compose(self, other: "MonomialElement") -> "MonomialElement":
        """Monomial-matrix product ``self @ other``."""
        if self.n != other.n:
            raise DimensionError(f"monomial sizes differ: {self.n} vs {other.n}")
        scales = self.scales * other.scales[self.inv_perm]
        perm, inv_perm = self.perm[other.perm], other.inv_perm[self.inv_perm]
        return MonomialElement._derived(_check_scales(scales), perm, inv_perm)

    def invert(self) -> "MonomialElement":
        scales = _check_scales(1.0 / self.scales[self.perm])
        return MonomialElement._derived(scales, self.inv_perm, self.perm)

    def apply_rows(self, mat: np.ndarray) -> np.ndarray:
        """Left action ``(D @ P) @ mat`` on the second-to-last axis."""
        mat = tensor(mat)
        out = mat[..., self.inv_perm, :]
        return out * self.scales[:, None]

    def apply_cols_inverse(self, mat: np.ndarray) -> np.ndarray:
        """Right action ``mat @ (D @ P)^{-1}`` on the last axis."""
        mat = tensor(mat)
        return mat[..., self.inv_perm] / self.scales

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        m[np.arange(self.n), self.inv_perm] = self.scales
        return m

    def to_json(self) -> dict:
        """Report form: scales plus the 1-based permutation."""
        return {
            "scales": self.scales.tolist(),
            "perm": (self.perm + 1).tolist(),
        }


def identity_monomial(n: int) -> MonomialElement:
    perm = np.arange(n)
    return MonomialElement._derived(np.ones(n), perm, perm)


def sample_monomial(
    n: int,
    rng: Rng,
    variant: str = VARIANT_POSITIVE,
    scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE,
) -> MonomialElement:
    """One random monomial factor: log-uniform scales (positive variant) or
    fair signs (sign variant), and a uniform random permutation."""
    if _known_variant(variant) == VARIANT_POSITIVE:
        lo, hi = _scale_range(scale_range)
        # exp can round a draw at the top of a finite range up to inf.
        scales = _check_scales(rng.log_uniform(lo, hi, n))
    else:
        scales = rng.signs(n)
    perm = rng.permutation(n)
    return MonomialElement._derived(scales, perm, np.argsort(perm))


def _check_variant(m: MonomialElement, variant: str) -> None:
    if _known_variant(variant) == VARIANT_POSITIVE:
        if np.any(m.scales <= 0):
            raise ValidationError("positive variant requires all scales > 0")
    elif np.any(np.abs(m.scales) != 1.0):
        raise ValidationError("sign variant requires all scales in {-1, +1}")


@dataclass(frozen=True)
class GroupElement:
    """A symmetry-group element: one monomial factor per layer ``0..L``.

    The factors at layers 0 and L must be identities; hidden factors must
    satisfy the variant constraint.
    """

    variant: str
    layers: tuple[MonomialElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 3:
            raise ValidationError("a group element needs layers 0..L with L >= 2")
        if not self.layers[0].is_identity() or not self.layers[-1].is_identity():
            raise ValidationError("boundary factors (layers 0 and L) must be identities")
        for m in self.layers[1:-1]:
            _check_variant(m, self.variant)

    @classmethod
    def _derived(cls, variant: str, layers: tuple[MonomialElement, ...]) -> "GroupElement":
        """An element whose boundaries and variant the caller's construction
        guarantees: no checks."""
        g = object.__new__(cls)
        object.__setattr__(g, "variant", variant)
        object.__setattr__(g, "layers", layers)
        return g

    @property
    def L(self) -> int:
        return len(self.layers) - 1

    def layer(self, i: int) -> MonomialElement:
        return self.layers[i]

    def widths(self) -> tuple[int, ...]:
        return tuple(m.n for m in self.layers)

    def is_identity(self) -> bool:
        return all(m.is_identity() for m in self.layers)

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "layers": [m.to_json() for m in self.layers],
        }


def _check_same_structure(g: GroupElement, h: GroupElement) -> None:
    if g.variant != h.variant:
        raise ValidationError(f"variant mismatch: {g.variant!r} vs {h.variant!r}")
    if g.widths() != h.widths():
        raise DimensionError(f"layer widths differ: {g.widths()} vs {h.widths()}")


def identity(spec: WeightSpec, variant: str = VARIANT_POSITIVE) -> GroupElement:
    return GroupElement._derived(
        _known_variant(variant), tuple(identity_monomial(n) for n in spec.n)
    )


def sample(
    spec: WeightSpec,
    rng: Rng,
    variant: str = VARIANT_POSITIVE,
    scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE,
) -> GroupElement:
    """A random group element: identity at the boundary layers, random
    monomial factors at the hidden layers (``spec.L >= 2``, so
    :func:`sample_monomial` checks the variant)."""
    layers = [identity_monomial(spec.n[0])]
    for i in range(1, spec.L):
        layers.append(sample_monomial(spec.n[i], rng, variant, scale_range))
    layers.append(identity_monomial(spec.n[spec.L]))
    return GroupElement._derived(variant, tuple(layers))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Layerwise monomial product, so ``act(compose(g, h), U) == act(g, act(h, U))``."""
    _check_same_structure(g, h)
    return GroupElement._derived(
        g.variant, tuple(a.compose(b) for a, b in zip(g.layers, h.layers))
    )


def invert(g: GroupElement) -> GroupElement:
    return GroupElement._derived(g.variant, tuple(m.invert() for m in g.layers))


def act_layers(layers: tuple[MonomialElement, ...], U: WeightObject) -> WeightObject:
    """Raw action of per-layer monomial factors on a weight object.

    Does not require identity boundary factors; :func:`act` passes a group
    element's, which are identities by construction.  Kept separate so the
    unconstrained action is testable.
    """
    spec = U.spec
    if len(layers) != spec.L + 1 or any(m.n != spec.n[i] for i, m in enumerate(layers)):
        raise DimensionError(
            f"factor widths {[m.n for m in layers]} do not match spec widths {spec.n}"
        )
    W = []
    b = []
    for i in range(1, spec.L + 1):
        rows = layers[i]
        cols = layers[i - 1]
        ratio = rows.scales[:, None] / cols.scales[None, :]
        W.append(U.weight(i).take(rows.inv_perm, -2).take(cols.inv_perm, -1) * ratio)
        b.append(U.bias(i).take(rows.inv_perm, -1) * rows.scales)
    return WeightObject._derived(spec, tuple(W), tuple(b), U.batch)


def act(g: GroupElement, U: WeightObject) -> WeightObject:
    """Group action ``g U`` on a weight object sharing the same widths.

    A group element's boundary factors are identities by construction and
    its arrays are read-only, so the action never rewires the boundary
    layers; :func:`act_layers` checks the widths."""
    return act_layers(g.layers, U)
