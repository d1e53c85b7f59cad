"""Stable polynomial terms of a weight object.

Five families of polynomials in the entries of ``U = ([W], [b])`` transform
by left/right monomial factors under the symmetry group, which makes them
the building blocks of the equivariant and invariant layers:

    [W]^(s,t)       = W^(s) W^(s-1) ... W^(t+1)            (L >= s > t >= 0)
    [b]^(s)                                                 (L >= s > 0)
    [Wb]^(s,t)(t)   = [W]^(s,t) b^(t)                       (L >= s > t > 0)
    [bW]^(s)(L,t)   = b^(s) Psi^(s)(L,t) [W]^(L,t)          (L >= s > 0, L > t >= 0)
    [WW]^(s,0)(L,t) = [W]^(s,0) Psi^(s,0)(L,t) [W]^(L,t)    (same index set)

All products act per channel (and per batch row); channels never mix.  The
connection matrices ``Psi`` bridge the mismatched chain endpoints: the
``[bW]`` one is a row vector of width ``n_L``, the ``[WW]`` one an
``n_0 x n_L`` matrix, both shared across channels.  The upper index of the
middle chain defaults to ``L`` but is exposed as the ``upper`` argument so
compositions like ``[bW]^(s)(s,t) [W]^(t,r) = [bW]^(s)(s,r)`` are
expressible.

:func:`all_terms` evaluates every family at every index pair from their
definitions; the checks, the oracle and the tests read it.  :func:`featurize`
evaluates only the invariant scalars the invariant layer and the ridge fit
read, from O(L) prefix and suffix chains, which the equivariant layer shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .dense import Rng, tensor
from .errors import IndexRangeError, ValidationError
from .weightspace import WeightObject, WeightSpec

__all__ = [
    "FEATURE_ORDER_VERSION",
    "PsiParams",
    "StableTermSet",
    "w_indices",
    "wb_indices",
    "psi_indices",
    "w_chain",
    "wb_term",
    "bw_term",
    "ww_term",
    "all_terms",
    "feature_count",
    "featurize",
]

FEATURE_ORDER_VERSION = "magep-feat/1"


def w_indices(L: int) -> list[tuple[int, int]]:
    """Feasible ``(s, t)`` pairs for ``[W]^(s,t)``: ``L >= s > t >= 0``."""
    return [(s, t) for s in range(1, L + 1) for t in range(s)]


def wb_indices(L: int) -> list[tuple[int, int]]:
    """Feasible pairs for ``[Wb]^(s,t)(t)``: ``L >= s > t > 0``."""
    return [(s, t) for s in range(2, L + 1) for t in range(1, s)]


def psi_indices(L: int) -> list[tuple[int, int]]:
    """Feasible pairs for ``[bW]`` and ``[WW]``: ``s`` in 1..L, ``t`` in 0..L-1."""
    return [(s, t) for s in range(1, L + 1) for t in range(L)]


@dataclass(frozen=True)
class PsiParams:
    """Connection matrices for the ``[bW]`` and ``[WW]`` families.

    ``bw[(s, t)]`` has shape ``[1, n_L]`` and ``ww[(s, t)]`` shape
    ``[n_0, n_L]``, for every pair in :func:`psi_indices`.
    """

    spec: WeightSpec
    bw: Mapping[tuple[int, int], np.ndarray]
    ww: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        spec = self.spec
        keys = set(psi_indices(spec.L))
        bw = {k: tensor(v) for k, v in self.bw.items()}
        ww = {k: tensor(v) for k, v in self.ww.items()}
        object.__setattr__(self, "bw", bw)
        object.__setattr__(self, "ww", ww)
        if set(bw) != keys or set(ww) != keys:
            raise ValidationError(
                f"psi maps must cover exactly the pairs {sorted(keys)}"
            )
        n0, nL = spec.n[0], spec.n[spec.L]
        for k, v in bw.items():
            if v.shape != (1, nL):
                raise ValidationError(f"psi_bw{k} has shape {v.shape}, expected (1, {nL})")
        for k, v in ww.items():
            if v.shape != (n0, nL):
                raise ValidationError(
                    f"psi_ww{k} has shape {v.shape}, expected ({n0}, {nL})"
                )

    @classmethod
    def random(cls, spec: WeightSpec, rng: Rng) -> "PsiParams":
        """I.i.d. uniform(-1, 1) entries; the default (frozen) initialization."""
        n0, nL = spec.n[0], spec.n[spec.L]
        keys = psi_indices(spec.L)
        return cls(
            spec,
            {k: rng.uniform(-1.0, 1.0, (1, nL)) for k in keys},
            {k: rng.uniform(-1.0, 1.0, (n0, nL)) for k in keys},
        )

    @classmethod
    def constant(cls, spec: WeightSpec, value: float) -> "PsiParams":
        n0, nL = spec.n[0], spec.n[spec.L]
        keys = psi_indices(spec.L)
        return cls(
            spec,
            {k: np.full((1, nL), float(value)) for k in keys},
            {k: np.full((n0, nL), float(value)) for k in keys},
        )


@dataclass(frozen=True)
class StableTermSet:
    """Every stable-term family of one weight object, evaluated once.

    Keys follow the index conventions above; ``b[s]`` exposes the raw bias
    of layer ``s``.
    """

    spec: WeightSpec
    w: dict[tuple[int, int], np.ndarray]
    wb: dict[tuple[int, int], np.ndarray]
    bw: dict[tuple[int, int], np.ndarray]
    ww: dict[tuple[int, int], np.ndarray]
    b: dict[int, np.ndarray]


def _check_chain_indices(spec: WeightSpec, s: int, t: int) -> None:
    if not (spec.L >= s > t >= 0):
        raise IndexRangeError(
            f"chain indices must satisfy L >= s > t >= 0, got (s, t)=({s}, {t}) with L={spec.L}"
        )


def w_chain(U: WeightObject, s: int, t: int) -> np.ndarray:
    """``[W]^(s,t)``: left-to-right product of the layer weights s..t+1."""
    _check_chain_indices(U.spec, s, t)
    out = U.weight(t + 1)
    for i in range(t + 2, s + 1):
        out = np.matmul(U.weight(i), out)
    return out


def wb_term(U: WeightObject, s: int, t: int) -> np.ndarray:
    """``[Wb]^(s,t)(t) = [W]^(s,t) b^(t)``; needs ``t >= 1`` (layer 0 has no bias)."""
    if t < 1:
        raise IndexRangeError(f"[Wb] needs t > 0, got t={t}")
    _check_chain_indices(U.spec, s, t)
    chain = w_chain(U, s, t)
    return np.matmul(chain, U.bias(t)[..., None])[..., 0]


def _psi_row(psi, key: tuple[int, int], want_cols: int, family: str) -> np.ndarray:
    if isinstance(psi, PsiParams):
        table = psi.bw if family == "bw" else psi.ww
        if key not in table:
            raise KeyError(f"psi_{family} has no entry for (s, t)={key}")
        mat = table[key]
    else:
        mat = tensor(psi)
    if mat.ndim != 2 or mat.shape[1] != want_cols:
        raise ValidationError(
            f"psi_{family}{key} has shape {mat.shape}, expected (*, {want_cols})"
        )
    return mat


def bw_term(
    U: WeightObject, s: int, t: int, psi, upper: int | None = None
) -> np.ndarray:
    """``[bW]^(s)(upper,t) = b^(s) Psi [W]^(upper,t)`` with ``upper`` defaulting to L.

    ``psi`` is either a :class:`PsiParams` (looked up at ``(s, t)``,
    valid only for the default upper index) or a raw ``[1, n_upper]`` row.
    """
    spec = U.spec
    u = spec.L if upper is None else upper
    if not (spec.L >= s >= 1):
        raise IndexRangeError(f"[bW] needs L >= s >= 1, got s={s}")
    if not (u > t >= 0):
        raise IndexRangeError(f"[bW] needs upper > t >= 0, got upper={u}, t={t}")
    if isinstance(psi, PsiParams) and u != spec.L:
        raise ValidationError("PsiParams rows only fit the default upper index L")
    row = _psi_row(psi, (s, t), spec.n[u], "bw")
    if row.shape[0] != 1:
        raise ValidationError(f"psi_bw must be a single row, got shape {row.shape}")
    outer = U.bias(s)[..., None] * row[0]
    return np.matmul(outer, w_chain(U, u, t))


def ww_term(
    U: WeightObject, s: int, t: int, psi, upper: int | None = None
) -> np.ndarray:
    """``[WW]^(s,0)(upper,t) = [W]^(s,0) Psi [W]^(upper,t)``, ``upper`` defaulting to L."""
    spec = U.spec
    u = spec.L if upper is None else upper
    if not (spec.L >= s >= 1):
        raise IndexRangeError(f"[WW] needs L >= s >= 1, got s={s}")
    if not (u > t >= 0):
        raise IndexRangeError(f"[WW] needs upper > t >= 0, got upper={u}, t={t}")
    if isinstance(psi, PsiParams) and u != spec.L:
        raise ValidationError("PsiParams matrices only fit the default upper index L")
    mat = _psi_row(psi, (s, t), spec.n[u], "ww")
    if mat.shape[0] != spec.n[0]:
        raise ValidationError(
            f"psi_ww{(s, t)} has {mat.shape[0]} rows, expected n_0={spec.n[0]}"
        )
    left = np.matmul(w_chain(U, s, 0), mat)
    return np.matmul(left, w_chain(U, u, t))


def _check_psi_fits(spec: WeightSpec, psi: PsiParams) -> None:
    if psi.spec.n != spec.n or psi.spec.L != spec.L:
        raise ValidationError("psi was built for a different architecture")


def all_terms(U: WeightObject, psi: PsiParams) -> StableTermSet:
    """Evaluate every family at every feasible index pair.

    Chains are built by dynamic programming (``chain(s,t) = W^(s) chain(s-1,t)``),
    O(L^2) matrix products in total; each entry equals its direct-definition
    evaluation.
    """
    spec = U.spec
    _check_psi_fits(spec, psi)
    L = spec.L
    chains: dict[tuple[int, int], np.ndarray] = {}
    for t in range(L):
        chains[(t + 1, t)] = U.weight(t + 1)
        for s in range(t + 2, L + 1):
            chains[(s, t)] = np.matmul(U.weight(s), chains[(s - 1, t)])
    wb = {
        (s, t): np.matmul(chains[(s, t)], U.bias(t)[..., None])[..., 0]
        for s, t in wb_indices(L)
    }
    bw = {}
    ww = {}
    for s, t in psi_indices(L):
        outer = U.bias(s)[..., None] * psi.bw[(s, t)][0]
        bw[(s, t)] = np.matmul(outer, chains[(L, t)])
        ww[(s, t)] = np.matmul(np.matmul(chains[(s, 0)], psi.ww[(s, t)]), chains[(L, t)])
    b = {s: U.bias(s) for s in range(1, L + 1)}
    return StableTermSet(spec, chains, wb, bw, ww, b)


# The seven per-channel parts of the ``magep-feat/1`` order (see
# :func:`featurize`), each with its width per channel.  A per-layer part
# lists its entries for layers L-1 down to 1 in turn.  The layers name their
# packed blocks by these part names.
_FEATURE_PARTS = (
    ("WWLL", lambda spec: spec.n[-1] * spec.n[0]),  # [WW]^(L,0)(L,0)
    ("WL0", lambda spec: spec.n[-1] * spec.n[0]),  # [W]^(L,0)
    ("trWW", lambda spec: spec.L - 1),  # tr [WW]^(s,0)(L,s), per layer
    ("bWLL0", lambda spec: spec.n[-1] * spec.n[0]),  # [bW]^(L)(L,0)
    ("Wb", lambda spec: (spec.L - 1) * spec.n[-1]),  # [Wb]^(L,t)(t), per layer
    ("trbW", lambda spec: spec.L - 1),  # tr [bW]^(t)(L,t), per layer
    ("b", lambda spec: spec.n[-1]),  # [b]^(L)
)


def feature_count(spec: WeightSpec) -> int:
    """Number of invariant features, the trailing constant included."""
    return spec.d * sum(width(spec) for _, width in _FEATURE_PARTS) + 1


def _chains(U: WeightObject) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Suffix chains ``t -> [W]^(L,t)`` (t = 0..L-1) and prefix chains
    ``s -> [W]^(s,0)`` (s = 1..L), about 2L products; ``prefix[L]`` is
    ``suffix[0]``."""
    L = U.spec.L
    suffix = {L - 1: U.weight(L)}
    for t in range(L - 2, -1, -1):
        suffix[t] = np.matmul(suffix[t + 1], U.weight(t + 1))
    prefix = {1: U.weight(1)}
    for s in range(2, L):
        prefix[s] = np.matmul(U.weight(s), prefix[s - 1])
    prefix[L] = suffix[0]
    return suffix, prefix


def featurize(U: WeightObject, psi: PsiParams) -> np.ndarray:
    """Invariant feature vector of ``U``: ``[F]``, or ``[B, F]`` when batched.

    Canonical order (``magep-feat/1``), for each channel c = 1..d:
    (1) ``[WW]^(L,0)(L,0)`` row-major, (2) ``[W]^(L,0)``, (3) traces of
    ``[WW]^(s,0)(L,s)`` for s = L-1..1, (4) ``[bW]^(L)(L,0)``,
    (5) ``[Wb]^(L,t)(t)`` for t = L-1..1, (6) traces of ``[bW]^(t)(L,t)``
    for t = L-1..1, (7) ``[b]^(L)``; then one trailing constant 1.

    Only the suffix chains ``[W]^(L,t)`` and prefix chains ``[W]^(s,0)`` are
    formed, about 2L products.  The traces never form their square
    products: ``tr [WW]^(s,0)(L,s)`` is the entrywise sum of
    ``([W]^(s,0) Psi) * [W]^(L,s)^T``, and ``tr [bW]^(t)(L,t)`` is
    ``psi . [Wb]^(L,t)(t)``.
    """
    _check_psi_fits(U.spec, psi)
    return _features(U, psi, *_chains(U))


def _features(U: WeightObject, psi: PsiParams, suffix, prefix) -> np.ndarray:
    """:func:`featurize` on chains already built by :func:`_chains`."""
    spec, L, full = U.spec, U.spec.L, suffix[0]
    hidden = range(L - 1, 0, -1)  # the per-layer order of _FEATURE_PARTS
    wb = [np.matmul(suffix[t], U.bias(t)[..., None])[..., 0] for t in hidden]
    b_last = U.bias(L)
    flat = lambda m: m.reshape(m.shape[:-2] + (-1,))
    parts = dict(
        WWLL=flat(np.matmul(np.matmul(full, psi.ww[(L, 0)]), full)),
        WL0=flat(full),
        trWW=np.stack([
            np.einsum("...ij,...ji->...", np.matmul(prefix[s], psi.ww[(s, s)]), suffix[s])
            for s in hidden
        ], axis=-1),
        bWLL0=flat(b_last[..., :, None] * np.matmul(psi.bw[(L, 0)][0], full)[..., None, :]),
        Wb=np.concatenate(wb, axis=-1),
        trbW=np.stack([np.matmul(v, psi.bw[(t, t)][0]) for t, v in zip(hidden, wb)], axis=-1),
        b=b_last,
    )
    lead = b_last.shape[:-2]
    out = np.empty(lead + (feature_count(spec),))
    # The parts are written straight into the flat result, one copy.
    body = out[..., :-1].reshape(lead + (spec.d, -1), copy=False)
    np.concatenate([parts[name] for name, _ in _FEATURE_PARTS], axis=-1, out=body)
    out[..., -1] = 1.0
    return out
