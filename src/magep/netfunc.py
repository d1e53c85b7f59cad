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
from .weightspace import WeightObject, stack_blocks

__all__ = ["mlp_forward", "probe_targets"]


def mlp_forward(U: WeightObject, x: np.ndarray, act: Activation) -> np.ndarray:
    """Evaluate the MLP at ``x``; requires channel dimension d = 1.

    Returns a vector of length ``n_L``, with a leading batch axis when
    ``U`` is batched.
    """
    spec = U.spec
    if spec.d != 1:
        raise ValidationError(f"mlp_forward supports d = 1 only, got d={spec.d}")
    x = tensor(x)
    if x.shape != (spec.n[0],):
        raise DimensionError(f"input has shape {x.shape}, expected ({spec.n[0]},)")
    h = x
    if U.batch is not None:
        h = np.broadcast_to(x, (U.batch, spec.n[0]))
    for i in range(1, spec.L):
        w = U.weight(i)[..., 0, :, :]
        b = U.bias(i)[..., 0, :]
        h = act(np.matmul(w, h[..., None])[..., 0] + b)
    w = U.weight(spec.L)[..., 0, :, :]
    b = U.bias(spec.L)[..., 0, :]
    return np.matmul(w, h[..., None])[..., 0] + b


def probe_targets(
    dataset: list[WeightObject], probes: list[np.ndarray], act: Activation
) -> np.ndarray:
    """Evaluate every network at every probe point.

    Row ``u`` concatenates ``mlp_forward(dataset[u], p, act)`` over the
    probes, giving a ``[len(dataset), len(probes) * n_L]`` matrix.  All
    objects must be unbatched and share one architecture.  The networks are
    evaluated in stacked blocks of up to ``STACK_BLOCK`` rows, each one
    concatenation of the objects' flat vectors (see
    :func:`magep.weightspace.stack_blocks`), with one batched forward per
    probe and block.
    """
    if not dataset:
        return np.zeros((0, 0))
    rows = []
    for block in stack_blocks(dataset):
        outs = [mlp_forward(block, p, act) for p in probes]
        rows.append(np.concatenate(outs, axis=-1) if outs else np.zeros((block.batch, 0)))
    return np.concatenate(rows)
