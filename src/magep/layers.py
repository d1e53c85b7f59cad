"""Equivariant and invariant polynomial layers over weight spaces.

Both layers are linear combinations of stable polynomial terms with
coefficient blocks ``phi``.  Parameter sharing is enforced structurally:
coefficients that the symmetry constraints force to be index-independent
("bullet" coefficients) are stored once and multiplied against traces or
broadcasts, never materialized per index.

The equivariant map sends a ``d``-channel weight object to an ``e``-channel
one and splits into three cases.  At the last layer the weight row mixes
``[W]^(L,L-1)``, ``[WW]^(L,0)(L,L-1)`` and ``[bW]^(L)(L,L-1)`` across their
row index, and the bias row is the full eight-term sum over all boundary
terms, per-hidden-layer traces, and the bias.  At the first layer the four
terms mix across the column index.  At interior layers only scalar
(per-channel-pair) coefficients survive for the weight row, and the bias
row mixes ``[W]^(i,0)``, ``[WW]^(i,0)(L,0)``, ``[bW]^(i)(L,0)`` over the
input-width index plus per-``t`` ``[Wb]`` terms and the bias.

The forward reads only the O(L) terms these rows need, from the suffix
chains ``[W]^(L,t)`` and prefix chains ``[W]^(s,0)`` that the featurizer
builds, once per call; ``[bW]`` is formed as the outer product
``b^(s) (x) psi [W]^(L,t)`` and ``[Wb]^(i,t)`` by the recursion
``W^(i) [Wb]^(i-1,t)``.  The last-layer bias row is the invariant map
with ``d_out = n_L``: the feature rows times the ``phib_L_*`` blocks packed
in feature order.  Every other row is one batched BLAS matrix product: the
terms of a family sum are concatenated along the contracted axis, and their
coefficient blocks along the matching axis.  The first-layer rows and the
interior bias rows contract over one input channel at a time and sum the
channels.  The products with a long contracted axis (the feature rows times
the packed blocks, and the last weight row) go through
:func:`magep.dense.serial_matmul`, so every BLAS call runs on the calling
thread.

The invariant map sends a ``d``-channel weight object to an ``[e, d']``
array through the eight-term combination of the boundary-pinned terms,
the diagonal traces, and a constant.  It is linear in the invariant
features of :func:`magep.stableterms.featurize`, so it is evaluated as the
feature rows times the coefficient blocks packed in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from . import jsonio
from .activations import Activation
from .dense import Rng, serial_matmul, tensor
from .errors import ConfigurationError, ValidationError
from .stableterms import PsiParams, _chains, _features, featurize, in_feature_order, psi_indices
from .weightspace import WeightObject, WeightSpec

__all__ = [
    "EquivariantParams",
    "InvariantParams",
    "MiddleBlocks",
    "init_equivariant",
    "init_invariant",
    "equivariant_forward",
    "invariant_forward",
    "activation",
    "stack_forward",
    "equivariant_parameter_count",
    "invariant_parameter_count",
    "save_params",
    "load_params",
    "PARAMS_FORMAT",
    "ROW_BLOCK",
]

PARAMS_FORMAT = "magep-params/1"

# Rows per block in :func:`stack_forward`.  Rows are independent, so blocking
# changes no value; it bounds the size of the stack's intermediates.  At
# L=6, n=32, d=1->4->4 with 64 rows (glibc malloc) the unblocked stack mapped
# about 40 MB of fresh pages per call: 10K page faults, a fifth of its time,
# in a count that varied by a quarter from process to process.  In blocks of
# 8 rows the heap serves every block from memory it already holds, with no
# page faults; blocks of 12 rows fault again.
ROW_BLOCK = 8


def _expect(name: str, arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    arr = tensor(arr)
    if arr.shape != shape:
        raise ValidationError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


@dataclass(frozen=True)
class MiddleBlocks:
    """Coefficient blocks of one interior layer ``1 < i < L``."""

    w: np.ndarray        # [d, e]     for [W]^(i,i-1)
    ww: np.ndarray       # [d, e]     for [WW]^(i,0)(L,i-1)
    bw: np.ndarray       # [d, e]     for [bW]^(i)(L,i-1)
    b_w: np.ndarray      # [d, e, n0] for [W]^(i,0)
    b_ww: np.ndarray     # [d, e, n0] for [WW]^(i,0)(L,0)
    b_bw: np.ndarray     # [d, e, n0] for [bW]^(i)(L,0)
    b_wb: Mapping[int, np.ndarray]  # t -> [d, e] for [Wb]^(i,t)(t), 0 < t < i
    b_b: np.ndarray      # [d, e]     for [b]^(i)


@dataclass(frozen=True)
class EquivariantParams:
    spec: WeightSpec  # input architecture; spec.d is the input channel count
    e: int            # output channel count
    phiW_L_W: np.ndarray       # [e, d, nL, nL]
    phiW_L_WW: np.ndarray      # [e, d, nL, nL]
    phiW_L_bW: np.ndarray      # [e, d, nL, nL]
    phib_L_WWLL: np.ndarray    # [e, d, nL, n0, nL]
    phib_L_WL0: np.ndarray     # [e, d, nL, n0, nL]
    phib_L_bWLL0: np.ndarray   # [e, d, nL, n0, nL]
    phib_L_trWW: Mapping[int, np.ndarray]   # s -> [e, d, nL], 0 < s < L
    phib_L_Wb: Mapping[int, np.ndarray]     # t -> [e, d, nL, nL], 0 < t < L
    phib_L_trbW: Mapping[int, np.ndarray]   # t -> [e, d, nL], 0 < t < L
    phib_L_b: np.ndarray       # [e, d, nL, nL]
    phib_L_1: np.ndarray       # [e, nL]
    phiW_1_W: np.ndarray       # [d, e, n0, n0]
    phiW_1_WW: np.ndarray      # [d, e, n0, n0]
    phiW_1_bW: np.ndarray      # [d, e, n0, n0]
    phiW_1_b: np.ndarray       # [d, e, n0]
    phib_1_W: np.ndarray       # [d, e, n0]
    phib_1_WW: np.ndarray      # [d, e, n0]
    phib_1_bW: np.ndarray      # [d, e, n0]
    phib_1_b: np.ndarray       # [d, e]
    mid: Mapping[int, MiddleBlocks]  # i -> blocks, 1 < i < L
    psi: PsiParams

    def __post_init__(self):
        spec, e = self.spec, self.e
        d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
        if e < 1:
            raise ValidationError(f"output channel count must be >= 1, got {e}")
        for name in ("phiW_L_W", "phiW_L_WW", "phiW_L_bW"):
            object.__setattr__(self, name, _expect(name, getattr(self, name), (e, d, nL, nL)))
        for name in ("phib_L_WWLL", "phib_L_WL0", "phib_L_bWLL0"):
            object.__setattr__(self, name, _expect(name, getattr(self, name), (e, d, nL, n0, nL)))
        hidden = tuple(range(1, L))
        for attr, shape_of in (
            ("phib_L_trWW", lambda s: (e, d, nL)),
            ("phib_L_Wb", lambda t: (e, d, nL, nL)),
            ("phib_L_trbW", lambda t: (e, d, nL)),
        ):
            table = dict(getattr(self, attr))
            if tuple(sorted(table)) != hidden:
                raise ValidationError(f"{attr} must be keyed by hidden layers {hidden}")
            object.__setattr__(
                self,
                attr,
                {k: _expect(f"{attr}[{k}]", v, shape_of(k)) for k, v in table.items()},
            )
        object.__setattr__(self, "phib_L_b", _expect("phib_L_b", self.phib_L_b, (e, d, nL, nL)))
        object.__setattr__(self, "phib_L_1", _expect("phib_L_1", self.phib_L_1, (e, nL)))
        for name in ("phiW_1_W", "phiW_1_WW", "phiW_1_bW"):
            object.__setattr__(self, name, _expect(name, getattr(self, name), (d, e, n0, n0)))
        for name in ("phiW_1_b", "phib_1_W", "phib_1_WW", "phib_1_bW"):
            object.__setattr__(self, name, _expect(name, getattr(self, name), (d, e, n0)))
        object.__setattr__(self, "phib_1_b", _expect("phib_1_b", self.phib_1_b, (d, e)))
        mid = dict(self.mid)
        if tuple(sorted(mid)) != tuple(range(2, L)):
            raise ValidationError(f"mid must be keyed by layers {tuple(range(2, L))}")
        checked = {}
        for i, blk in mid.items():
            checked[i] = MiddleBlocks(
                w=_expect(f"mid[{i}].w", blk.w, (d, e)),
                ww=_expect(f"mid[{i}].ww", blk.ww, (d, e)),
                bw=_expect(f"mid[{i}].bw", blk.bw, (d, e)),
                b_w=_expect(f"mid[{i}].b_w", blk.b_w, (d, e, n0)),
                b_ww=_expect(f"mid[{i}].b_ww", blk.b_ww, (d, e, n0)),
                b_bw=_expect(f"mid[{i}].b_bw", blk.b_bw, (d, e, n0)),
                b_wb={
                    t: _expect(f"mid[{i}].b_wb[{t}]", v, (d, e))
                    for t, v in dict(blk.b_wb).items()
                },
                b_b=_expect(f"mid[{i}].b_b", blk.b_b, (d, e)),
            )
            if tuple(sorted(checked[i].b_wb)) != tuple(range(1, i)):
                raise ValidationError(
                    f"mid[{i}].b_wb must be keyed by t in 1..{i - 1}"
                )
        object.__setattr__(self, "mid", checked)
        if self.psi.spec.n != spec.n or self.psi.spec.L != spec.L:
            raise ValidationError("psi was built for a different architecture")

    @property
    def d(self) -> int:
        return self.spec.d

    def out_spec(self) -> WeightSpec:
        return WeightSpec(self.spec.L, self.spec.n, self.e)

    def blocks(self) -> dict[str, np.ndarray]:
        """Flat view of every stored coefficient block, keyed by name."""
        out: dict[str, np.ndarray] = {}
        for name in (
            "phiW_L_W", "phiW_L_WW", "phiW_L_bW",
            "phib_L_WWLL", "phib_L_WL0", "phib_L_bWLL0",
            "phib_L_b", "phib_L_1",
            "phiW_1_W", "phiW_1_WW", "phiW_1_bW", "phiW_1_b",
            "phib_1_W", "phib_1_WW", "phib_1_bW", "phib_1_b",
        ):
            out[name] = getattr(self, name)
        for attr in ("phib_L_trWW", "phib_L_Wb", "phib_L_trbW"):
            for k, v in getattr(self, attr).items():
                out[f"{attr}[{k}]"] = v
        for i, blk in self.mid.items():
            out[f"scalarsW[{i}].W"] = blk.w
            out[f"scalarsW[{i}].WW"] = blk.ww
            out[f"scalarsW[{i}].bW"] = blk.bw
            out[f"vecsb[{i}].W"] = blk.b_w
            out[f"vecsb[{i}].WW"] = blk.b_ww
            out[f"vecsb[{i}].bW"] = blk.b_bw
            for t, v in blk.b_wb.items():
                out[f"vecsb[{i}].Wb[{t}]"] = v
            out[f"vecsb[{i}].b"] = blk.b_b
        return out

    def last_bias_packed(self) -> np.ndarray:
        """The ``phib_L_*`` blocks as one ``[e, F, n_L]`` tensor in feature order.

        The last-layer bias row is the invariant map of the features with
        ``d_out = n_L``: ``b^(L)[i, j]`` is ``featurize(U) @ P[i, :, j]``.
        Built on every call, so in-place edits of the blocks take effect.
        """
        return _pack_features(
            self.spec.L,
            self.phib_L_WWLL,
            self.phib_L_WL0,
            self.phib_L_trWW,
            self.phib_L_bWLL0,
            self.phib_L_Wb,
            self.phib_L_trbW,
            self.phib_L_b,
            self.phib_L_1,
        )


@dataclass(frozen=True)
class InvariantParams:
    spec: WeightSpec
    e: int        # output channel count
    d_out: int    # embedding width of the output
    phi_WWLL: np.ndarray    # [d, e, nL, n0, d']
    phi_WL0: np.ndarray     # [d, e, nL, n0, d']
    phi_trWW: Mapping[int, np.ndarray]   # s -> [d, e, d']
    phi_bWLL0: np.ndarray   # [d, e, nL, n0, d']
    phi_Wb: Mapping[int, np.ndarray]     # t -> [d, e, nL, d']
    phi_trbW: Mapping[int, np.ndarray]   # t -> [d, e, d']
    phi_b: np.ndarray       # [d, e, nL, d']
    phi_1: np.ndarray       # [e, d']
    psi: PsiParams

    def __post_init__(self):
        spec, e, dp = self.spec, self.e, self.d_out
        d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
        if e < 1 or dp < 1:
            raise ValidationError(f"output dims must be >= 1, got e={e}, d_out={dp}")
        for name in ("phi_WWLL", "phi_WL0", "phi_bWLL0"):
            object.__setattr__(self, name, _expect(name, getattr(self, name), (d, e, nL, n0, dp)))
        hidden = tuple(range(1, L))
        for attr, shape_of in (
            ("phi_trWW", lambda s: (d, e, dp)),
            ("phi_Wb", lambda t: (d, e, nL, dp)),
            ("phi_trbW", lambda t: (d, e, dp)),
        ):
            table = dict(getattr(self, attr))
            if tuple(sorted(table)) != hidden:
                raise ValidationError(f"{attr} must be keyed by hidden layers {hidden}")
            object.__setattr__(
                self,
                attr,
                {k: _expect(f"{attr}[{k}]", v, shape_of(k)) for k, v in table.items()},
            )
        object.__setattr__(self, "phi_b", _expect("phi_b", self.phi_b, (d, e, nL, dp)))
        object.__setattr__(self, "phi_1", _expect("phi_1", self.phi_1, (e, dp)))
        if self.psi.spec.n != spec.n or self.psi.spec.L != spec.L:
            raise ValidationError("psi was built for a different architecture")

    @property
    def d(self) -> int:
        return self.spec.d

    def blocks(self) -> dict[str, np.ndarray]:
        out = {
            "phi_WWLL": self.phi_WWLL,
            "phi_WL0": self.phi_WL0,
            "phi_bWLL0": self.phi_bWLL0,
            "phi_b": self.phi_b,
            "phi_1": self.phi_1,
        }
        for attr in ("phi_trWW", "phi_Wb", "phi_trbW"):
            for k, v in getattr(self, attr).items():
                out[f"{attr}[{k}]"] = v
        return out

    def packed(self) -> np.ndarray:
        """All blocks as one ``[e, F, d_out]`` tensor in feature order.

        ``P[i, f, k]`` is the coefficient of feature ``f`` of
        :func:`magep.stableterms.featurize` in output ``[i, k]``.  Built on
        every call, so in-place edits of the blocks take effect.
        """
        ed = lambda a: a.swapaxes(0, 1)  # [d, e, ...] -> [e, d, ...]
        eds = lambda table: {k: ed(v) for k, v in table.items()}
        return _pack_features(
            self.spec.L,
            ed(self.phi_WWLL),
            ed(self.phi_WL0),
            eds(self.phi_trWW),
            ed(self.phi_bWLL0),
            eds(self.phi_Wb),
            eds(self.phi_trbW),
            ed(self.phi_b),
            self.phi_1,
        )


def _pack_features(L, ww, w, tr_ww, bw, wb, tr_bw, b, const) -> np.ndarray:
    """Coefficient blocks of an invariant map as one ``[e, F, m]`` tensor.

    The blocks are laid out ``[e, d, ..., m]`` (``const`` is ``[e, m]``; the
    three tables are keyed by hidden layer) and the feature axis follows
    :func:`magep.stableterms.in_feature_order`.  The full blocks enter as
    ``[e, d, k, m]`` views, so they are copied once.
    """
    e, d, m = b.shape[0], b.shape[1], b.shape[-1]
    part = lambda a: a.reshape(e, d, -1, m)
    hidden = range(L - 1, 0, -1)
    traces = lambda table: np.concatenate([table[k][:, :, None] for k in hidden], axis=2)
    return in_feature_order(
        part(ww),
        part(w),
        traces(tr_ww),
        part(bw),
        np.concatenate([wb[k] for k in hidden], axis=2),
        traces(tr_bw),
        b,
        const[:, None],
        axis=-2,
    )


def _block(rng: Rng, shape: tuple[int, ...], d: int, fan: int, scale: float) -> np.ndarray:
    a = scale / np.sqrt(d * fan)
    return rng.uniform(-a, a, shape)


def init_equivariant(
    spec: WeightSpec,
    e: int,
    rng: Rng,
    scale: float = 1.0,
    psi: PsiParams | None = None,
) -> EquivariantParams:
    """Random coefficient blocks, uniform(-a, a) with a = scale/sqrt(d*fan).

    ``fan`` counts the input scalars summed into one output scalar of the
    block (the channel factor ``d`` enters separately); pure bias blocks
    use ``a = scale``.  The connection matrices default to the frozen
    uniform(-1, 1) initialization.
    """
    d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
    if psi is None:
        psi = PsiParams.random(spec, rng.child("psi"))
    mk = lambda shape, fan: _block(rng, shape, d, fan, scale)
    return EquivariantParams(
        spec=spec,
        e=e,
        phiW_L_W=mk((e, d, nL, nL), nL),
        phiW_L_WW=mk((e, d, nL, nL), nL),
        phiW_L_bW=mk((e, d, nL, nL), nL),
        phib_L_WWLL=mk((e, d, nL, n0, nL), nL * n0),
        phib_L_WL0=mk((e, d, nL, n0, nL), nL * n0),
        phib_L_bWLL0=mk((e, d, nL, n0, nL), nL * n0),
        phib_L_trWW={s: mk((e, d, nL), spec.n[s]) for s in range(1, L)},
        phib_L_Wb={t: mk((e, d, nL, nL), nL) for t in range(1, L)},
        phib_L_trbW={t: mk((e, d, nL), spec.n[t]) for t in range(1, L)},
        phib_L_b=mk((e, d, nL, nL), nL),
        phib_L_1=rng.uniform(-scale, scale, (e, nL)),
        phiW_1_W=mk((d, e, n0, n0), n0),
        phiW_1_WW=mk((d, e, n0, n0), n0),
        phiW_1_bW=mk((d, e, n0, n0), n0),
        phiW_1_b=mk((d, e, n0), 1),
        phib_1_W=mk((d, e, n0), n0),
        phib_1_WW=mk((d, e, n0), n0),
        phib_1_bW=mk((d, e, n0), n0),
        phib_1_b=mk((d, e), 1),
        mid={
            i: MiddleBlocks(
                w=mk((d, e), 1),
                ww=mk((d, e), 1),
                bw=mk((d, e), 1),
                b_w=mk((d, e, n0), n0),
                b_ww=mk((d, e, n0), n0),
                b_bw=mk((d, e, n0), n0),
                b_wb={t: mk((d, e), 1) for t in range(1, i)},
                b_b=mk((d, e), 1),
            )
            for i in range(2, L)
        },
        psi=psi,
    )


def init_invariant(
    spec: WeightSpec,
    e: int,
    d_out: int,
    rng: Rng,
    scale: float = 1.0,
    psi: PsiParams | None = None,
) -> InvariantParams:
    """Random invariant-layer blocks; same initialization rule as above."""
    d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
    if psi is None:
        psi = PsiParams.random(spec, rng.child("psi"))
    mk = lambda shape, fan: _block(rng, shape, d, fan, scale)
    return InvariantParams(
        spec=spec,
        e=e,
        d_out=d_out,
        phi_WWLL=mk((d, e, nL, n0, d_out), nL * n0),
        phi_WL0=mk((d, e, nL, n0, d_out), nL * n0),
        phi_trWW={s: mk((d, e, d_out), spec.n[s]) for s in range(1, L)},
        phi_bWLL0=mk((d, e, nL, n0, d_out), nL * n0),
        phi_Wb={t: mk((d, e, nL, d_out), nL) for t in range(1, L)},
        phi_trbW={t: mk((d, e, d_out), spec.n[t]) for t in range(1, L)},
        phi_b=mk((d, e, nL, d_out), nL),
        phi_1=rng.uniform(-scale, scale, (e, d_out)),
        psi=psi,
    )


def _batched(U: WeightObject) -> tuple[WeightObject, bool]:
    if U.batch is not None:
        return U, True
    return (
        WeightObject(
            U.spec,
            tuple(w[None] for w in U.W),
            tuple(v[None] for v in U.b),
            batch=1,
        ),
        False,
    )


def _check_input(params, U: WeightObject) -> None:
    if U.spec != params.spec:
        raise ValidationError(
            f"weight object spec {U.spec} does not match layer spec {params.spec}"
        )


def _row_coefficients(heads, tail) -> np.ndarray:
    """``[d, 3 n0 + c, e k]`` coefficients of a boundary row, per input channel.

    ``heads`` are the three ``[d, e, n0, *k]`` blocks of ``[W]^(i,0)``,
    ``[WW]^(i,0)(L,0)`` and ``[bW]^(i)(L,0)``; ``tail`` the ``c`` blocks
    ``[d, e, *k]`` of the per-channel columns.  The middle axis follows the
    columns of the row terms built in :func:`equivariant_forward`.
    """
    h = np.array(heads).swapaxes(2, 3).swapaxes(0, 1)  # [d, 3, n0, e, *k]
    t = np.array(tail).swapaxes(0, 1)  # [d, c, e, *k]
    d = t.shape[0]
    return np.concatenate([h.reshape(d, 3 * h.shape[2], -1), t.reshape(d, t.shape[1], -1)], axis=1)


def equivariant_forward(params: EquivariantParams, U: WeightObject) -> WeightObject:
    """Apply the equivariant layer, mapping d input channels to e output ones."""
    _check_input(params, U)
    V, had_batch = _batched(U)
    spec, psi, e = params.spec, params.psi, params.e
    L, n, d, B = spec.L, spec.n, spec.d, V.batch
    suffix, prefix = _chains(V)

    def ww(s, t):  # [WW]^(s,0)(L,t)
        return np.matmul(np.matmul(prefix[s], psi.ww[(s, t)]), suffix[t])

    def bw(s, t):  # [bW]^(s)(L,t) as the outer product b^(s) (x) psi [W]^(L,t)
        row = np.matmul(psi.bw[(s, t)][0], suffix[t])
        return V.bias(s)[..., :, None] * row[..., None, :]

    def weight_terms(i):  # [B, 3d, n_i, n_{i-1}], channels grouped by family
        return np.concatenate([V.weight(i), ww(i, i - 1), bw(i, i - 1)], axis=1)

    def boundary_row(i, tail, coef):  # [B, n_i, e k]: per-channel GEMMs, summed
        terms = np.concatenate([prefix[i], ww(i, 0), bw(i, 0), tail], axis=-1)
        return np.matmul(terms, coef).sum(axis=1)

    W_out: list[np.ndarray] = [None] * L  # type: ignore[list-item]
    b_out: list[np.ndarray] = [None] * L  # type: ignore[list-item]

    # Last layer: the three weight terms mix over their row index in one
    # GEMM; the bias row is the invariant map of the feature rows.
    coef = np.concatenate([params.phiW_L_W, params.phiW_L_WW, params.phiW_L_bW], axis=1)
    coef = coef.transpose(0, 3, 1, 2).reshape(e * n[L], 3 * d * n[L])
    terms = weight_terms(L).reshape(B, 3 * d * n[L], n[L - 1])
    W_out[L - 1] = serial_matmul(coef, terms).reshape(B, e, n[L], n[L - 1])
    X = _features(V, psi, suffix, prefix)
    b_out[L - 1] = serial_matmul(X, params.last_bias_packed()).swapaxes(0, 1)

    # First layer: the weight and bias rows share the GEMMs over the
    # column-mixing terms and the bias.
    tail = V.bias(1)[..., None]
    coef = np.concatenate(
        [
            _row_coefficients(
                [params.phiW_1_W, params.phiW_1_WW, params.phiW_1_bW], [params.phiW_1_b]
            ),
            _row_coefficients(
                [params.phib_1_W, params.phib_1_WW, params.phib_1_bW], [params.phib_1_b]
            ),
        ],
        axis=2,
    )
    rows = boundary_row(1, tail, coef)
    W_out[0] = rows[..., : e * n[0]].reshape(B, n[1], e, n[0]).transpose(0, 2, 1, 3)
    b_out[0] = rows[..., e * n[0] :].transpose(0, 2, 1)

    # Interior layers: scalar coefficients for the weight row; the bias row
    # reads [Wb]^(i,t)(t) = W^(i) [Wb]^(i-1,t)(t) for t = 1..i-1, then b^(i).
    for i in range(2, L):
        blk = params.mid[i]
        coef = np.concatenate([blk.w, blk.ww, blk.bw]).T
        terms = weight_terms(i).reshape(B, 3 * d, -1)
        W_out[i - 1] = np.matmul(coef, terms).reshape(B, e, n[i], n[i - 1])
        tail = np.concatenate([np.matmul(V.weight(i), tail), V.bias(i)[..., None]], axis=-1)
        coef = _row_coefficients(
            [blk.b_w, blk.b_ww, blk.b_bw], [blk.b_wb[t] for t in range(1, i)] + [blk.b_b]
        )
        b_out[i - 1] = boundary_row(i, tail, coef).transpose(0, 2, 1)

    if not had_batch:
        W_out = [w[0] for w in W_out]
        b_out = [v[0] for v in b_out]
    return WeightObject(params.out_spec(), tuple(W_out), tuple(b_out), batch=U.batch)


def invariant_forward(params: InvariantParams, U: WeightObject) -> np.ndarray:
    """Apply the invariant layer; returns an ``[e, d_out]`` array per row."""
    _check_input(params, U)
    return np.moveaxis(serial_matmul(featurize(U, params.psi), params.packed()), 0, -2)


def activation(act: Activation, U: WeightObject) -> WeightObject:
    """Apply ``act`` pointwise to every weight and bias entry."""
    return U.map(act)


def stack_forward(
    stack: Sequence[tuple[EquivariantParams, Activation]],
    head: InvariantParams,
    U: WeightObject,
    variant: str = "positive",
) -> np.ndarray:
    """Alternate equivariant layers and activations, then the invariant head.

    The channel widths must chain (input d -> e -> ... -> head input) and
    every activation must be compatible with the symmetry variant the stack
    is supposed to respect.  A batch runs through the whole stack
    :data:`ROW_BLOCK` rows at a time.
    """
    expected_d = U.spec.d
    for idx, (params, act) in enumerate(stack):
        if params.spec.d != expected_d:
            raise ConfigurationError(
                f"layer {idx} expects {params.spec.d} input channels, got {expected_d}"
            )
        if not act.compatible_with(variant):
            raise ConfigurationError(
                f"activation {act.kind!r} is not compatible with the {variant!r} variant"
            )
        expected_d = params.e
    if head.spec.d != expected_d:
        raise ConfigurationError(
            f"invariant head expects {head.spec.d} input channels, got {expected_d}"
        )
    if U.batch is None or U.batch <= ROW_BLOCK:
        return _stack_rows(stack, head, U)
    return np.concatenate(
        [
            _stack_rows(stack, head, U.rows(lo, lo + ROW_BLOCK))
            for lo in range(0, U.batch, ROW_BLOCK)
        ]
    )


def _stack_rows(stack, head, U: WeightObject) -> np.ndarray:
    for params, act in stack:
        U = activation(act, equivariant_forward(params, U))
    return invariant_forward(head, U)


def equivariant_parameter_count(spec: WeightSpec, e: int) -> int:
    """Closed-form count of stored phi scalars of the equivariant layer."""
    d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
    count = 3 * e * d * nL * nL            # last-layer weight row
    count += 3 * e * d * nL * n0 * nL      # bias row, full boundary terms
    count += sum(e * d * nL for _ in range(1, L))          # trWW per s
    count += sum(e * d * nL * nL for _ in range(1, L))     # Wb per t
    count += sum(e * d * nL for _ in range(1, L))          # trbW per t
    count += e * d * nL * nL + e * nL      # bias-of-bias and constant row
    count += 3 * d * e * n0 * n0 + d * e * n0              # first-layer weight row
    count += 3 * d * e * n0 + d * e        # first-layer bias row
    for i in range(2, L):
        count += 3 * d * e                 # scalar weight-row coefficients
        count += 3 * d * e * n0            # bias-row vectors
        count += (i - 1) * d * e           # Wb terms
        count += d * e                     # bias coefficient
    return count


def invariant_parameter_count(spec: WeightSpec, e: int, d_out: int) -> int:
    """Closed-form count of stored phi scalars of the invariant layer."""
    d, n0, nL, L = spec.d, spec.n[0], spec.n[spec.L], spec.L
    count = 3 * d * e * nL * n0 * d_out
    count += sum(d * e * d_out for _ in range(1, L))       # trWW
    count += sum(d * e * nL * d_out for _ in range(1, L))  # Wb
    count += sum(d * e * d_out for _ in range(1, L))       # trbW
    count += d * e * nL * d_out + e * d_out
    return count


def _phi_fields(cls) -> list[tuple[str, bool]]:
    """``(name, is_table)`` of every coefficient block field, in file order."""
    return [(f.name, f.type.startswith("Mapping")) for f in fields(cls) if f.name.startswith("phi")]


# Top-level keys of a .mgp.json document, per layer kind.
_PARAMS_KEYS = {
    "equivariant": ("format", "kind", "spec", "e")
    + tuple(name for name, _ in _phi_fields(EquivariantParams))
    + ("scalarsW", "vecsb", "psi"),
    "invariant": ("format", "kind", "spec", "e", "d_out")
    + tuple(name for name, _ in _phi_fields(InvariantParams))
    + ("psi",),
}


def _psi_to_json(psi: PsiParams) -> dict:
    return {
        "bw": {f"{s},{t}": psi.bw[(s, t)] for s, t in psi_indices(psi.spec.L)},
        "ww": {f"{s},{t}": psi.ww[(s, t)] for s, t in psi_indices(psi.spec.L)},
    }


def _finite(name: str, value) -> np.ndarray:
    """``value`` as a float64 array; non-numeric or non-finite payloads are rejected."""
    try:
        arr = tensor(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} is not a numeric array") from exc
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} holds a non-finite value")
    return arr


def _table(name: str, doc: dict) -> dict[int, np.ndarray]:
    if not isinstance(doc, dict) or not all(k.isdigit() for k in doc):
        raise ValidationError(f"{name} must map layer indices to arrays")
    return {int(k): _finite(f"{name}[{k}]", v) for k, v in doc.items()}


def _psi_from_json(spec: WeightSpec, doc: dict) -> PsiParams:
    def parse(family):
        out = {}
        for key, val in doc[family].items():
            s, t = key.split(",")
            out[(int(s), int(t))] = _finite(f"psi.{family}[{key}]", val)
        return out

    return PsiParams(spec, parse("bw"), parse("ww"))


def save_params(params: EquivariantParams | InvariantParams, path) -> None:
    """Write layer parameters as a ``.mgp.json`` document."""
    spec = params.spec
    equivariant = isinstance(params, EquivariantParams)
    doc: dict = {
        "format": PARAMS_FORMAT,
        "kind": "equivariant" if equivariant else "invariant",
        "spec": {"L": spec.L, "n": list(spec.n), "d": spec.d},
        "e": params.e,
    }
    if not equivariant:
        doc["d_out"] = params.d_out
    for name, is_table in _phi_fields(type(params)):
        value = getattr(params, name)
        doc[name] = {str(k): v for k, v in value.items()} if is_table else value
    if equivariant:
        doc["scalarsW"] = {
            str(i): {"W": blk.w, "WW": blk.ww, "bW": blk.bw}
            for i, blk in params.mid.items()
        }
        doc["vecsb"] = {
            str(i): {
                "W": blk.b_w,
                "WW": blk.b_ww,
                "bW": blk.b_bw,
                "Wb": {str(t): v for t, v in blk.b_wb.items()},
                "b": blk.b_b,
            }
            for i, blk in params.mid.items()
        }
    doc["psi"] = _psi_to_json(params.psi)
    jsonio.dump_path(doc, path)


def load_params(path) -> EquivariantParams | InvariantParams:
    """Read a ``.mgp.json`` document; inverse of :func:`save_params` bit-exactly.

    Unknown or missing keys and non-finite values raise ``ValidationError``.
    """
    doc = jsonio.load_path(path)
    if doc.get("format") != PARAMS_FORMAT:
        raise ValidationError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    if kind not in _PARAMS_KEYS:
        raise ValidationError(f"unknown params kind {kind!r}")
    unknown = set(doc) - set(_PARAMS_KEYS[kind])
    if unknown:
        raise ValidationError(f"unknown top-level keys: {sorted(unknown)}")
    missing = set(_PARAMS_KEYS[kind]) - set(doc)
    if missing:
        raise ValidationError(f"missing top-level keys: {sorted(missing)}")
    cls = EquivariantParams if kind == "equivariant" else InvariantParams
    try:
        spec = WeightSpec(doc["spec"]["L"], tuple(doc["spec"]["n"]), doc["spec"]["d"])
        blocks = {
            name: _table(name, doc[name]) if is_table else _finite(name, doc[name])
            for name, is_table in _phi_fields(cls)
        }
        psi = _psi_from_json(spec, doc["psi"])
        if kind == "invariant":
            return InvariantParams(spec=spec, e=doc["e"], d_out=doc["d_out"], psi=psi, **blocks)
        mid = {}
        for i, row in doc["scalarsW"].items():
            vecs = doc["vecsb"][i]
            mid[int(i)] = MiddleBlocks(
                w=_finite(f"scalarsW[{i}].W", row["W"]),
                ww=_finite(f"scalarsW[{i}].WW", row["WW"]),
                bw=_finite(f"scalarsW[{i}].bW", row["bW"]),
                b_w=_finite(f"vecsb[{i}].W", vecs["W"]),
                b_ww=_finite(f"vecsb[{i}].WW", vecs["WW"]),
                b_bw=_finite(f"vecsb[{i}].bW", vecs["bW"]),
                b_wb=_table(f"vecsb[{i}].Wb", vecs["Wb"]),
                b_b=_finite(f"vecsb[{i}].b", vecs["b"]),
            )
        return EquivariantParams(spec=spec, e=doc["e"], mid=mid, psi=psi, **blocks)
    except KeyError as exc:
        raise ValidationError(f"missing key {exc.args[0]!r}") from exc
