"""Forward evaluation of the input networks whose weights form the data.

The function computed by an MLP with weights ``U`` and activation ``act``
is

    f(x; U) = W^(L) act( ... act(W^(1) x + b^(1)) ... ) + b^(L)

with no activation after the final affine layer.  It is invariant under
the symmetry group acting on ``U`` (for the activation's variant), which
makes it the ground-truth invariant functional used by the probes and toy
fitting targets.
"""

from __future__ import annotations

import numpy as np

from .activations import Activation
from .dense import tensor
from .errors import DimensionError, ValidationError
from .weightspace import WeightObject, map_blocks

__all__ = ["mlp_forward", "probe_targets"]


def mlp_forward(U: WeightObject, x: np.ndarray, act: Activation) -> np.ndarray:
    """Evaluate the MLP at ``x``; requires channel dimension d = 1.

    ``x`` is one point ``[n_0]``, giving a vector of length ``n_L``, or
    ``P`` points as rows ``[P, n_0]``, giving ``[P, n_L]``; a batched ``U``
    adds a leading batch axis.  The points are the columns of each layer's
    product, so one point is computed exactly as on its own.
    """
    spec = U.spec
    if spec.d != 1:
        raise ValidationError(f"mlp_forward supports d = 1 only, got d={spec.d}")
    points = tensor(x)
    if points.shape[-1:] != (spec.n[0],) or points.ndim > 2:
        raise DimensionError(f"input has shape {points.shape}, expected ([P,] {spec.n[0]})")
    h = points.T if points.ndim == 2 else points[:, None]
    for i in range(1, spec.L + 1):
        h = np.matmul(U.weight(i)[..., 0, :, :], h) + U.bias(i)[..., 0, :, None]
        if i < spec.L:
            h = act(h)
    return np.swapaxes(h, -1, -2) if points.ndim == 2 else h[..., 0]


def probe_targets(
    dataset: list[WeightObject], probes: list[np.ndarray], act: Activation
) -> np.ndarray:
    """Evaluate every network at every probe point.

    Row ``u`` concatenates ``mlp_forward(dataset[u], p, act)`` over the
    probes, giving a ``[len(dataset), len(probes) * n_L]`` matrix.  All
    objects must be unbatched and share one architecture, and every probe
    must have shape ``[n_0]``; the probes are checked before any network is
    evaluated.  The networks are evaluated in stacked blocks of up to
    ``STACK_BLOCK`` rows (see :func:`magep.weightspace.map_blocks`), with one
    forward per block that takes all probes as rows.
    """
    if not dataset:
        return np.zeros((0, 0))
    n0 = dataset[0].spec.n[0]
    points = np.empty((len(probes), n0))
    for k, p in enumerate(probes):
        p = tensor(p)
        if p.shape != (n0,):
            raise DimensionError(f"probe {k} has shape {p.shape}, expected ({n0},)")
        points[k] = p
    out = map_blocks(dataset, lambda block: mlp_forward(block, points, act))
    return out.reshape(len(dataset), -1)
