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


@dataclass(frozen=True)
class MonomialElement:
    """One factored monomial matrix ``diag(scales) @ P_perm``.

    ``perm`` maps source slot ``j`` to target slot ``perm[j]`` (0-based).
    """

    scales: np.ndarray
    perm: np.ndarray

    def __post_init__(self):
        scales = tensor(self.scales)
        perm = np.asarray(self.perm, dtype=np.intp)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "perm", perm)
        if scales.ndim != 1 or perm.ndim != 1 or scales.shape != perm.shape:
            raise ValidationError(
                f"scales and perm must be equal-length vectors, got {scales.shape} and {perm.shape}"
            )
        if np.any(scales == 0.0):
            raise ValidationError("monomial scales must be non-zero")
        if not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValidationError(f"perm {perm.tolist()} is not a permutation")

    @property
    def n(self) -> int:
        return self.scales.size

    @property
    def inv_perm(self) -> np.ndarray:
        return np.argsort(self.perm)

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
        perm = self.perm[other.perm]
        return MonomialElement(scales, perm)

    def invert(self) -> "MonomialElement":
        return MonomialElement(1.0 / self.scales[self.perm], self.inv_perm)

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
    return MonomialElement(np.ones(n), np.arange(n))


def sample_monomial(
    n: int,
    rng: Rng,
    variant: str = VARIANT_POSITIVE,
    scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE,
) -> MonomialElement:
    """One random monomial factor: log-uniform scales (positive variant) or
    fair signs (sign variant), and a uniform random permutation."""
    if variant not in VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}")
    if variant == VARIANT_POSITIVE:
        lo, hi = scale_range
        if lo <= 0:
            raise ValidationError(f"scale range must be positive, got lo={lo}")
        if lo > hi:
            raise ValidationError(f"scale range out of order: {scale_range}")
        scales = rng.log_uniform(lo, hi, n)
    else:
        scales = rng.signs(n)
    return MonomialElement(scales, rng.permutation(n))


def _check_variant(m: MonomialElement, variant: str) -> None:
    if variant == VARIANT_POSITIVE:
        if np.any(m.scales <= 0):
            raise ValidationError("positive variant requires all scales > 0")
    elif variant == VARIANT_SIGN:
        if np.any(np.abs(m.scales) != 1.0):
            raise ValidationError("sign variant requires all scales in {-1, +1}")
    else:
        raise ValidationError(f"unknown variant {variant!r}")


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
    return GroupElement(variant, tuple(identity_monomial(n) for n in spec.n))


def sample(
    spec: WeightSpec,
    rng: Rng,
    variant: str = VARIANT_POSITIVE,
    scale_range: tuple[float, float] = DEFAULT_SCALE_RANGE,
) -> GroupElement:
    """A random group element: identity at the boundary layers, random
    monomial factors at the hidden layers."""
    layers = [identity_monomial(spec.n[0])]
    for i in range(1, spec.L):
        layers.append(sample_monomial(spec.n[i], rng, variant, scale_range))
    layers.append(identity_monomial(spec.n[spec.L]))
    return GroupElement(variant, tuple(layers))


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Layerwise monomial product, so ``act(compose(g, h), U) == act(g, act(h, U))``."""
    _check_same_structure(g, h)
    return GroupElement(
        g.variant, tuple(a.compose(b) for a, b in zip(g.layers, h.layers))
    )


def invert(g: GroupElement) -> GroupElement:
    return GroupElement(g.variant, tuple(m.invert() for m in g.layers))


def act_layers(layers: tuple[MonomialElement, ...], U: WeightObject) -> WeightObject:
    """Raw action of per-layer monomial factors on a weight object.

    Does not require identity boundary factors; :func:`act` adds that
    constraint.  Kept separate so the unconstrained action is testable.
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
        w = U.weight(i)[..., rows.inv_perm[:, None], cols.inv_perm[None, :]] * ratio
        W.append(w)
        b.append(U.bias(i)[..., rows.inv_perm] * rows.scales)
    return WeightObject._derived(spec, tuple(W), tuple(b), U.batch)


def act(g: GroupElement, U: WeightObject) -> WeightObject:
    """Group action ``g U`` on a weight object sharing the same widths."""
    if g.widths() != U.spec.n:
        raise DimensionError(
            f"group element widths {g.widths()} do not match spec widths {U.spec.n}"
        )
    # Invariant of the group: the boundary layers are never rewired.
    if not (g.layers[0].is_identity() and g.layers[-1].is_identity()):
        raise ValidationError("boundary factors must be identities")
    return act_layers(g.layers, U)
