"""Pointwise activations and their symmetry-variant compatibility.

Positively homogeneous activations (relu, leaky_relu) commute entrywise
with positive scaling; odd activations (tanh, sin) commute with sign
flips; abs is even and absolutely homogeneous, so stacks built on it stay
invariant under either variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .monomial import VARIANT_POSITIVE, VARIANT_SIGN

__all__ = ["Activation", "relu", "leaky_relu", "tanh", "sin", "abs_act"]

_KINDS = ("relu", "leaky_relu", "tanh", "sin", "abs")

_COMPATIBLE = {
    "relu": (VARIANT_POSITIVE,),
    "leaky_relu": (VARIANT_POSITIVE,),
    "tanh": (VARIANT_SIGN,),
    "sin": (VARIANT_SIGN,),
    "abs": (VARIANT_POSITIVE, VARIANT_SIGN),
}


@dataclass(frozen=True)
class Activation:
    kind: str
    alpha: float = 0.01

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown activation {self.kind!r}")
        if self.kind == "leaky_relu" and self.alpha <= 0:
            raise ValidationError(f"leaky_relu slope must be > 0, got {self.alpha}")

    def __call__(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The activation of ``x``, written into ``out`` when given; ``out``
        may be ``x`` itself, which applies it in place."""
        if self.kind == "relu":
            return np.maximum(x, 0.0, out=out)
        if self.kind == "leaky_relu":
            if out is None:
                return np.where(x >= 0, x, self.alpha * x)
            # The entries where ``x >= 0`` fails, negatives and NaN, become
            # ``alpha * x``; the others, -0.0 included, keep ``x``.
            if out is not x:
                np.copyto(out, x)
            return np.multiply(out, self.alpha, out=out, where=~(out >= 0))
        if self.kind == "tanh":
            return np.tanh(x, out=out)
        if self.kind == "sin":
            return np.sin(x, out=out)
        return np.abs(x, out=out)

    def compatible_with(self, variant: str) -> bool:
        return variant in _COMPATIBLE[self.kind]


relu = Activation("relu")
tanh = Activation("tanh")
sin = Activation("sin")
abs_act = Activation("abs")


def leaky_relu(alpha: float = 0.01) -> Activation:
    return Activation("leaky_relu", alpha)
