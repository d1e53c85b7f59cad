"""Closed-form toy fitting on invariant features.

For frozen connection matrices the invariant layer is linear in its
coefficient blocks, so fitting those blocks against any target reduces to
ridge regression on a fixed feature vector.  The features are exactly the
scalars the invariant layer contracts against, computed by
:func:`magep.stableterms.featurize` (re-exported here as ``featurize``) in
the canonical ``magep-feat/1`` order its docstring states, which is part of
the public contract.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import jsonio
from .dense import Rng
from .errors import ValidationError
from .stableterms import FEATURE_ORDER_VERSION, PsiParams, feature_count, featurize
from .weightspace import WeightObject, _count, map_blocks

__all__ = [
    "FEATURE_ORDER_VERSION",
    "FIT_FORMAT",
    "FitDataset",
    "FitResult",
    "feature_count",
    "featurize",
    "fit_ridge",
    "predict",
    "evaluate",
    "save_fit",
    "load_fit",
    "train_rows",
]

FIT_FORMAT = "magep-fit/1"


def train_rows(train_fraction: float, rows: int) -> int:
    """Rows of the train part when ``rows`` rows are split at ``train_fraction``."""
    return int(round(train_fraction * rows))


@dataclass(frozen=True)
class FitDataset:
    """Weight objects with target rows; all objects share one architecture."""

    objects: tuple[WeightObject, ...]
    targets: np.ndarray  # [N, T]

    def __post_init__(self):
        objects = tuple(self.objects)
        targets = np.asarray(self.targets, dtype=np.float64)
        if targets.ndim == 1:
            targets = targets[:, None]
        object.__setattr__(self, "objects", objects)
        object.__setattr__(self, "targets", targets)
        if len(objects) != targets.shape[0]:
            raise ValidationError(
                f"{len(objects)} objects but {targets.shape[0]} target rows"
            )
        if objects:
            spec = objects[0].spec
            for u in objects:
                if u.spec is not spec and u.spec != spec:
                    raise ValidationError("fit dataset must be spec-homogeneous")
                if u.batch is not None:
                    raise ValidationError("fit dataset rows must be unbatched")

    def __len__(self) -> int:
        return len(self.objects)

    def split(self, train_fraction: float, rng: Rng) -> tuple["FitDataset", "FitDataset"]:
        """Deterministic shuffled train/test split."""
        if not 0.0 < train_fraction < 1.0:
            raise ValidationError(f"train fraction must be in (0, 1), got {train_fraction}")
        order = rng.permutation(len(self))
        cut = train_rows(train_fraction, len(self))
        take = lambda idx: FitDataset(
            tuple(self.objects[i] for i in idx), self.targets[idx]
        )
        return take(order[:cut]), take(order[cut:])


@dataclass(frozen=True)
class FitResult:
    """Fitted coefficients in the canonical feature order."""

    phi: np.ndarray  # [F, T]
    lam: float
    train_mse: float
    test_mse: float | None = None
    rank_deficient: bool = False

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=np.float64))
        if self.phi.ndim != 2:
            raise ValidationError("phi must be a [features, targets] matrix")
        scalars = {"lambda": self.lam, "train_mse": self.train_mse}
        if self.test_mse is not None:
            scalars["test_mse"] = self.test_mse
        for label, x in scalars.items():
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValidationError(f"{label} must be a number, got {type(x).__name__}")
        if not 0.0 <= self.lam < np.inf:
            raise ValidationError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.train_mse < 0 or (self.test_mse is not None and self.test_mse < 0):
            raise ValidationError("mean squared errors cannot be negative")

    def with_test_mse(self, value: float) -> "FitResult":
        return FitResult(self.phi, self.lam, self.train_mse, value, self.rank_deficient)


def design_matrix(objects: Sequence[WeightObject], psi: PsiParams) -> np.ndarray:
    """Feature rows ``[N, F]`` of unbatched, spec-homogeneous objects.

    The objects are featurized in stacked blocks of up to ``STACK_BLOCK``
    rows, one batched call per block, and the rows are written into one
    preallocated result (see :func:`magep.weightspace.map_blocks`).  No
    objects give an empty ``[0, F]`` matrix.
    """
    if not objects:
        return np.zeros((0, feature_count(psi.spec)))
    return map_blocks(objects, lambda block: featurize(block, psi))


def fit_ridge(train: FitDataset, psi: PsiParams, lam: float) -> FitResult:
    """Minimize ``|X phi - y|^2 + lam |phi|^2`` exactly.

    For ``lam > 0`` the normal equations are solved by Cholesky; if the
    computed Gram matrix is numerically indefinite (exactly collinear
    features at degenerate widths), the same objective is re-solved through
    the augmented least-squares system, and the result is flagged.  For
    ``lam = 0`` the minimum-norm least-squares solution is returned, flagged
    when X is rank-deficient.
    """
    if len(train) < 1:
        raise ValidationError("fit needs at least one training row")
    if not 0.0 <= lam < np.inf:
        raise ValidationError(f"ridge strength must be finite and >= 0, got {lam}")
    X = design_matrix(train.objects, psi)
    y = train.targets
    F = X.shape[1]
    rank_deficient = False
    if lam == 0.0:
        phi, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
        rank_deficient = rank < F
    else:
        gram = X.T @ X + lam * np.eye(F)
        try:
            chol = np.linalg.cholesky(gram)
            phi = np.linalg.solve(chol.T, np.linalg.solve(chol, X.T @ y))
        except np.linalg.LinAlgError:
            aug = np.vstack([X, np.sqrt(lam) * np.eye(F)])
            rhs = np.vstack([y, np.zeros((F, y.shape[1]))])
            phi, _, rank, _ = np.linalg.lstsq(aug, rhs, rcond=None)
            rank_deficient = True
    train_mse = float(np.mean((X @ phi - y) ** 2))
    return FitResult(phi, float(lam), train_mse, None, rank_deficient)


def predict(result: FitResult, U: WeightObject, psi: PsiParams) -> np.ndarray:
    return featurize(U, psi) @ result.phi


def evaluate(result: FitResult, data: FitDataset, psi: PsiParams) -> float:
    """Mean squared residual of the fitted predictor over ``data``."""
    if len(data) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    X = design_matrix(data.objects, psi)
    return float(np.mean((X @ result.phi - data.targets) ** 2))


def save_fit(result: FitResult, path) -> None:
    """Write a fit result as a ``.mgfit.json`` document.

    ``phi`` is stored as one row per feature (``width`` columns each) so the
    matrix reloads unambiguously.
    """
    doc = {
        "format": FIT_FORMAT,
        "feature_order_version": FEATURE_ORDER_VERSION,
        "lambda": result.lam,
        "width": result.phi.shape[1],
        "phi": result.phi,
        "train_mse": result.train_mse,
        "test_mse": result.test_mse,
        "rank_deficient": result.rank_deficient,
    }
    jsonio.dump_path(doc, path)


_FIT_KEYS = (
    "format", "feature_order_version", "lambda", "width", "phi",
    "train_mse", "test_mse", "rank_deficient",
)


def load_fit(path) -> FitResult:
    """Read a ``.mgfit.json`` document; inverse of :func:`save_fit`.

    Unknown or missing keys, wrong-typed and non-finite values raise
    ``ValidationError``.
    """
    doc = jsonio.exact_keys("top-level", jsonio.load_path(path), _FIT_KEYS)
    if doc["format"] != FIT_FORMAT:
        raise ValidationError(f"unsupported format {doc['format']!r}")
    if doc["feature_order_version"] != FEATURE_ORDER_VERSION:
        raise ValidationError(
            f"unsupported feature order {doc['feature_order_version']!r}"
        )
    width = _count("width", doc["width"])
    phi = jsonio.finite("phi", doc["phi"])
    if phi.ndim != 2 or phi.shape[1] != width:
        raise ValidationError("phi payload does not match the declared width")
    if not isinstance(doc["rank_deficient"], bool):
        raise ValidationError("rank_deficient must be true or false")

    def number(key):
        value = jsonio.finite(key, doc[key])
        if value.ndim != 0:
            raise ValidationError(f"{key} must be a number")
        return float(value)

    test_mse = None if doc["test_mse"] is None else number("test_mse")
    return FitResult(phi, number("lambda"), number("train_mse"), test_mse, doc["rank_deficient"])
