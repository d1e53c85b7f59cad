"""Helpers shared by the tests."""

import numpy as np

from magep.stableterms import PsiParams, psi_indices


def constant_psi(spec, value: float) -> PsiParams:
    """Connection matrices with every entry equal to ``value``, through the
    checking constructor."""
    keys, n0, nL = psi_indices(spec.L), spec.n[0], spec.n[-1]
    return PsiParams(
        spec,
        {k: np.full((1, nL), float(value)) for k in keys},
        {k: np.full((n0, nL), float(value)) for k in keys},
    )


def abs_psi(psi: PsiParams) -> PsiParams:
    """``psi`` with every entry replaced by its absolute value."""
    return PsiParams(
        psi.spec,
        {k: np.abs(v) for k, v in psi.bw.items()},
        {k: np.abs(v) for k, v in psi.ww.items()},
    )
