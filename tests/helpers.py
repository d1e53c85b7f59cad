"""Helpers shared by the tests."""

import threading
from dataclasses import dataclass

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


@dataclass
class MatmulTally:
    """What the ``np.matmul`` calls made while counting did: the calls, their
    multiply-adds (output entries times the contracted length) and the
    largest single matrix product among them, in multiply-adds."""

    calls: int = 0
    madds: int = 0
    largest: int = 0


def count_matmul(monkeypatch) -> MatmulTally:
    """Wrap ``np.matmul`` through ``monkeypatch`` and count every call into
    the returned tally, under a lock, so that calls from several threads all
    count."""
    real, tally, lock = np.matmul, MatmulTally(), threading.Lock()

    def counting(a, b, *args, **kwargs):
        out = real(a, b, *args, **kwargs)
        k = np.shape(a)[-1]
        m = np.shape(a)[-2] if np.ndim(a) > 1 else 1
        n = np.shape(b)[-1] if np.ndim(b) > 1 else 1
        with lock:
            tally.calls += 1
            tally.madds += np.size(out) * k
            tally.largest = max(tally.largest, m * k * n)
        return out

    monkeypatch.setattr(np, "matmul", counting)
    return tally
