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

The invariant map sends a ``d``-channel weight object to an ``[e, d']``
array through the eight-term combination of the boundary-pinned terms,
the diagonal traces, and a constant.  It is linear in the invariant
features of :func:`magep.stableterms.featurize`, so it is evaluated as the
feature rows times the coefficient blocks packed in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import jsonio
from .activations import Activation
from .dense import Rng, tensor
from .errors import ConfigurationError, ValidationError
from .stableterms import PsiParams, all_terms, featurize, in_feature_order, psi_indices
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
]

PARAMS_FORMAT = "magep-params/1"


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
        """All blocks as one ``[e * d_out, F]`` matrix in feature order.

        Column ``f`` holds the coefficients of feature ``f`` of
        :func:`magep.stableterms.featurize`; row ``i * d_out + k`` feeds
        output ``[i, k]``.  Built on every call, so in-place edits of the
        blocks take effect.
        """
        d, e, dp, L = self.d, self.e, self.d_out, self.spec.L
        # Each part becomes [e * d_out, d, k]: output row, channel, entries.
        rows = lambda a: a.reshape(e * dp, d, -1)
        vec_rows = lambda a: rows(a.transpose(1, 3, 0, 2))  # from [d, e, k, d']
        mat_rows = lambda a: rows(a.transpose(1, 4, 0, 2, 3))  # from [d, e, j, k, d']
        stacked = lambda table: np.stack([table[k] for k in range(L - 1, 0, -1)], axis=2)
        return in_feature_order(
            mat_rows(self.phi_WWLL),
            mat_rows(self.phi_WL0),
            vec_rows(stacked(self.phi_trWW)),
            mat_rows(self.phi_bWLL0),
            mat_rows(stacked(self.phi_Wb)),
            vec_rows(stacked(self.phi_trbW)),
            vec_rows(self.phi_b),
            self.phi_1.reshape(e * dp, 1),
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


def _diag_trace(mat: np.ndarray) -> np.ndarray:
    return np.trace(mat, axis1=-2, axis2=-1)


def equivariant_forward(params: EquivariantParams, U: WeightObject) -> WeightObject:
    """Apply the equivariant layer, mapping d input channels to e output ones."""
    _check_input(params, U)
    V, had_batch = _batched(U)
    terms = all_terms(V, params.psi)
    L = params.spec.L
    es = np.einsum

    W_out: list[np.ndarray] = [None] * L  # type: ignore[list-item]
    b_out: list[np.ndarray] = [None] * L  # type: ignore[list-item]

    # Last layer: row-mixing weight terms, eight-term bias row.
    W_out[L - 1] = (
        es("edpj,bdpk->bejk", params.phiW_L_W, terms.w[(L, L - 1)])
        + es("edpj,bdpk->bejk", params.phiW_L_WW, terms.ww[(L, L - 1)])
        + es("edpj,bdpk->bejk", params.phiW_L_bW, terms.bw[(L, L - 1)])
    )
    bL = (
        es("edpqj,bdpq->bej", params.phib_L_WWLL, terms.ww[(L, 0)])
        + es("edpqj,bdpq->bej", params.phib_L_WL0, terms.w[(L, 0)])
        + es("edpqj,bdpq->bej", params.phib_L_bWLL0, terms.bw[(L, 0)])
        + es("edpj,bdp->bej", params.phib_L_b, terms.b[L])
        + params.phib_L_1[None]
    )
    for s in range(1, L):
        bL = bL + es("edj,bd->bej", params.phib_L_trWW[s], _diag_trace(terms.ww[(s, s)]))
    for t in range(1, L):
        bL = bL + es("edpj,bdp->bej", params.phib_L_Wb[t], terms.wb[(L, t)])
        bL = bL + es("edj,bd->bej", params.phib_L_trbW[t], _diag_trace(terms.bw[(t, t)]))
    b_out[L - 1] = bL

    # First layer: column-mixing terms plus the bias broadcast.
    W_out[0] = (
        es("bdjq,deqk->bejk", terms.w[(1, 0)], params.phiW_1_W)
        + es("bdjq,deqk->bejk", terms.ww[(1, 0)], params.phiW_1_WW)
        + es("bdjq,deqk->bejk", terms.bw[(1, 0)], params.phiW_1_bW)
        + es("bdj,dek->bejk", terms.b[1], params.phiW_1_b)
    )
    b_out[0] = (
        es("bdjq,deq->bej", terms.w[(1, 0)], params.phib_1_W)
        + es("bdjq,deq->bej", terms.ww[(1, 0)], params.phib_1_WW)
        + es("bdjq,deq->bej", terms.bw[(1, 0)], params.phib_1_bW)
        + es("bdj,de->bej", terms.b[1], params.phib_1_b)
    )

    # Interior layers: scalar coefficients for the weight row.
    for i in range(2, L):
        blk = params.mid[i]
        W_out[i - 1] = (
            es("bdjk,de->bejk", terms.w[(i, i - 1)], blk.w)
            + es("bdjk,de->bejk", terms.ww[(i, i - 1)], blk.ww)
            + es("bdjk,de->bejk", terms.bw[(i, i - 1)], blk.bw)
        )
        bi = (
            es("bdjq,deq->bej", terms.w[(i, 0)], blk.b_w)
            + es("bdjq,deq->bej", terms.ww[(i, 0)], blk.b_ww)
            + es("bdjq,deq->bej", terms.bw[(i, 0)], blk.b_bw)
            + es("bdj,de->bej", terms.b[i], blk.b_b)
        )
        for t in range(1, i):
            bi = bi + es("bdj,de->bej", terms.wb[(i, t)], blk.b_wb[t])
        b_out[i - 1] = bi

    out = WeightObject(params.out_spec(), tuple(W_out), tuple(b_out), batch=V.batch)
    if not had_batch:
        out = WeightObject(
            params.out_spec(),
            tuple(w[0] for w in out.W),
            tuple(v[0] for v in out.b),
            batch=None,
        )
    return out


def invariant_forward(params: InvariantParams, U: WeightObject) -> np.ndarray:
    """Apply the invariant layer; returns an ``[e, d_out]`` array per row."""
    _check_input(params, U)
    X = featurize(U, params.psi)
    out = np.matmul(X, params.packed().T)
    return out.reshape(X.shape[:-1] + (params.e, params.d_out))


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
    is supposed to respect.
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


def _psi_to_json(psi: PsiParams) -> dict:
    return {
        "bw": {f"{s},{t}": psi.bw[(s, t)] for s, t in psi_indices(psi.spec.L)},
        "ww": {f"{s},{t}": psi.ww[(s, t)] for s, t in psi_indices(psi.spec.L)},
    }


def _psi_from_json(spec: WeightSpec, doc: dict) -> PsiParams:
    def parse(table):
        out = {}
        for key, val in table.items():
            s, t = key.split(",")
            out[(int(s), int(t))] = tensor(val)
        return out

    return PsiParams(spec, parse(doc["bw"]), parse(doc["ww"]))


def save_params(params: EquivariantParams | InvariantParams, path) -> None:
    """Write layer parameters as a ``.mgp.json`` document."""
    spec = params.spec
    doc: dict = {
        "format": PARAMS_FORMAT,
        "kind": "equivariant" if isinstance(params, EquivariantParams) else "invariant",
        "spec": {"L": spec.L, "n": list(spec.n), "d": spec.d},
        "e": params.e,
    }
    if isinstance(params, EquivariantParams):
        for name in (
            "phiW_L_W", "phiW_L_WW", "phiW_L_bW",
            "phib_L_WWLL", "phib_L_WL0", "phib_L_bWLL0",
        ):
            doc[name] = getattr(params, name)
        doc["phib_L_trWW"] = {str(k): v for k, v in params.phib_L_trWW.items()}
        doc["phib_L_Wb"] = {str(k): v for k, v in params.phib_L_Wb.items()}
        doc["phib_L_trbW"] = {str(k): v for k, v in params.phib_L_trbW.items()}
        doc["phib_L_b"] = params.phib_L_b
        doc["phib_L_1"] = params.phib_L_1
        for name in (
            "phiW_1_W", "phiW_1_WW", "phiW_1_bW", "phiW_1_b",
            "phib_1_W", "phib_1_WW", "phib_1_bW", "phib_1_b",
        ):
            doc[name] = getattr(params, name)
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
    else:
        doc["d_out"] = params.d_out
        doc["phi_WWLL"] = params.phi_WWLL
        doc["phi_WL0"] = params.phi_WL0
        doc["phi_trWW"] = {str(k): v for k, v in params.phi_trWW.items()}
        doc["phi_bWLL0"] = params.phi_bWLL0
        doc["phi_Wb"] = {str(k): v for k, v in params.phi_Wb.items()}
        doc["phi_trbW"] = {str(k): v for k, v in params.phi_trbW.items()}
        doc["phi_b"] = params.phi_b
        doc["phi_1"] = params.phi_1
    doc["psi"] = _psi_to_json(params.psi)
    jsonio.dump_path(doc, path)


def load_params(path) -> EquivariantParams | InvariantParams:
    """Read a ``.mgp.json`` document; inverse of :func:`save_params` bit-exactly."""
    doc = jsonio.load_path(path)
    if doc.get("format") != PARAMS_FORMAT:
        raise ValidationError(f"unsupported format {doc.get('format')!r}")
    spec = WeightSpec(doc["spec"]["L"], tuple(doc["spec"]["n"]), doc["spec"]["d"])
    psi = _psi_from_json(spec, doc["psi"])
    kind = doc.get("kind")
    if kind == "equivariant":
        return EquivariantParams(
            spec=spec,
            e=doc["e"],
            phiW_L_W=tensor(doc["phiW_L_W"]),
            phiW_L_WW=tensor(doc["phiW_L_WW"]),
            phiW_L_bW=tensor(doc["phiW_L_bW"]),
            phib_L_WWLL=tensor(doc["phib_L_WWLL"]),
            phib_L_WL0=tensor(doc["phib_L_WL0"]),
            phib_L_bWLL0=tensor(doc["phib_L_bWLL0"]),
            phib_L_trWW={int(k): tensor(v) for k, v in doc["phib_L_trWW"].items()},
            phib_L_Wb={int(k): tensor(v) for k, v in doc["phib_L_Wb"].items()},
            phib_L_trbW={int(k): tensor(v) for k, v in doc["phib_L_trbW"].items()},
            phib_L_b=tensor(doc["phib_L_b"]),
            phib_L_1=tensor(doc["phib_L_1"]),
            phiW_1_W=tensor(doc["phiW_1_W"]),
            phiW_1_WW=tensor(doc["phiW_1_WW"]),
            phiW_1_bW=tensor(doc["phiW_1_bW"]),
            phiW_1_b=tensor(doc["phiW_1_b"]),
            phib_1_W=tensor(doc["phib_1_W"]),
            phib_1_WW=tensor(doc["phib_1_WW"]),
            phib_1_bW=tensor(doc["phib_1_bW"]),
            phib_1_b=tensor(doc["phib_1_b"]),
            mid={
                int(i): MiddleBlocks(
                    w=tensor(doc["scalarsW"][i]["W"]),
                    ww=tensor(doc["scalarsW"][i]["WW"]),
                    bw=tensor(doc["scalarsW"][i]["bW"]),
                    b_w=tensor(doc["vecsb"][i]["W"]),
                    b_ww=tensor(doc["vecsb"][i]["WW"]),
                    b_bw=tensor(doc["vecsb"][i]["bW"]),
                    b_wb={int(t): tensor(v) for t, v in doc["vecsb"][i]["Wb"].items()},
                    b_b=tensor(doc["vecsb"][i]["b"]),
                )
                for i in doc["scalarsW"]
            },
            psi=psi,
        )
    if kind == "invariant":
        return InvariantParams(
            spec=spec,
            e=doc["e"],
            d_out=doc["d_out"],
            phi_WWLL=tensor(doc["phi_WWLL"]),
            phi_WL0=tensor(doc["phi_WL0"]),
            phi_trWW={int(k): tensor(v) for k, v in doc["phi_trWW"].items()},
            phi_bWLL0=tensor(doc["phi_bWLL0"]),
            phi_Wb={int(k): tensor(v) for k, v in doc["phi_Wb"].items()},
            phi_trbW={int(k): tensor(v) for k, v in doc["phi_trbW"].items()},
            phi_b=tensor(doc["phi_b"]),
            phi_1=tensor(doc["phi_1"]),
            psi=psi,
        )
    raise ValidationError(f"unknown params kind {kind!r}")
