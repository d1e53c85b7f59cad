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

Each coefficient block is declared once, on its dataclass field: its shape
and fan-in as size names, its table keys, and for interior blocks its slot
in the file.  The shape and key checks, the random initialization (in
field order), ``blocks()``, the parameter counts, the feature packing and
the ``.mgp.json`` reader and writer are all derived from these
declarations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cache
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import jsonio
from .activations import Activation
from .dense import Rng, serial_matmul, tensor
from .errors import ConfigurationError, ValidationError
from .stableterms import PsiParams, _chains, _features, featurize, in_feature_order, psi_indices
from .weightspace import WeightObject, WeightSpec, _count

__all__ = [
    "EquivariantParams",
    "InvariantParams",
    "MiddleBlocks",
    "init_equivariant",
    "init_invariant",
    "equivariant_forward",
    "invariant_forward",
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


class _Decl(NamedTuple):
    """A block field's declaration: its axis names, table keys and file slot,
    with the axis and fan-in lookups a layout applies to the sizes."""

    shape: tuple[str, ...]
    keys: str | None
    slot: tuple[str, str] | None
    shape_of: Callable
    fan_of: Callable | None


def _block(shape: str, fan: str | None, keys: str | None = None, slot: str | None = None):
    """Declare a coefficient block field.

    ``shape`` names the block's axis sizes and ``fan`` the factors of its
    fan-in, the input scalars summed into one output scalar (``None`` for a
    pure bias).  The sizes are ``d``, ``e``, ``m`` (the output width: ``n_L``
    or ``d_out``), ``n0``, ``nL``, ``nk`` (the width of the table key) and
    ``1``.  ``keys`` makes the block a table over the ``hidden`` layers
    ``0 < k < L`` or the layers ``below`` the interior layer ``i``,
    ``0 < k < i``.  ``slot`` is the ``group.key`` an interior block is
    saved under.
    """
    names = tuple(shape.split())
    decl = _Decl(
        names,
        keys,
        None if slot is None else tuple(slot.split(".")),
        operator.itemgetter(*names),
        None if fan is None else operator.itemgetter("d", *fan.split()),
    )
    return field(metadata={"block": decl})


@cache
def _declared(cls) -> tuple[tuple[str, _Decl], ...]:
    """``(name, declaration)`` of every block field of ``cls``, in field order."""
    return tuple((f.name, f.metadata["block"]) for f in fields(cls) if "block" in f.metadata)


def _layout(cls, spec: WeightSpec, e: int, m: int, i: int | None = None) -> tuple:
    """The blocks of ``cls`` resolved at one architecture, in field order.

    Each entry is ``(name, keys, cells)``: ``keys`` lists a table's keys
    (``None`` for a single block) and each cell is ``(key, shape, fan)``
    with ``fan`` the factors ``d, ...`` of the fan-in, or ``None`` for a
    pure bias.  ``i`` is the interior layer of :class:`MiddleBlocks`.
    """
    n = spec.n
    sizes = {"1": 1, "d": spec.d, "e": e, "m": m, "n0": n[0], "nL": n[-1]}
    keysets = {"hidden": tuple(range(1, spec.L)), "below": tuple(range(1, i or 0))}
    out = []
    for name, decl in _declared(cls):
        if decl.keys is None:
            fan = decl.fan_of and decl.fan_of(sizes)
            out.append((name, None, ((None, decl.shape_of(sizes), fan),)))
            continue
        keys, cells = keysets[decl.keys], []
        for k in keys:
            sizes["nk"] = n[k]
            cells.append((k, decl.shape_of(sizes), decl.fan_of(sizes)))
        out.append((name, keys, tuple(cells)))
    return tuple(out)


def _checked(obj, layout, where: str = "") -> dict:
    """The blocks of ``obj`` as float64 arrays, checked against ``layout``."""
    out = {}
    for name, keys, cells in layout:
        table = {None: getattr(obj, name)} if keys is None else dict(getattr(obj, name))
        if keys is not None and table.keys() != set(keys):
            raise ValidationError(f"{where}{name} must be keyed by layers {keys}")
        for k, shape, _ in cells:
            arr = table[k] = tensor(table[k])
            if arr.shape != shape:
                label = where + name + ("" if k is None else f"[{k}]")
                raise ValidationError(f"{label} has shape {arr.shape}, expected {shape}")
        out[name] = table[None] if keys is None else table
    return out


def _draw(rng: Rng, layout, scale: float) -> dict:
    """Every block of ``layout``, uniform(-a, a) with ``a = scale / sqrt(d * fan)``."""
    out = {}
    for name, keys, cells in layout:
        table = {}
        for k, shape, fan in cells:
            a = scale if fan is None else scale / math.sqrt(math.prod(fan))
            table[k] = rng.uniform(-a, a, shape)
        out[name] = table[None] if keys is None else table
    return out


def _size(layout) -> int:
    return sum(math.prod(shape) for _, _, cells in layout for _, shape, _ in cells)


def _assign(obj, values: dict) -> None:
    for name, value in values.items():
        object.__setattr__(obj, name, value)


class _Layer:
    """What both layer kinds derive from their declared blocks."""

    @property
    def d(self) -> int:
        return self.spec.d

    def _check_psi(self) -> None:
        if self.psi.spec.n != self.spec.n or self.psi.spec.L != self.spec.L:
            raise ValidationError("psi was built for a different architecture")

    def blocks(self) -> dict[str, np.ndarray]:
        """Flat view of every stored coefficient block, keyed by name.

        Single blocks come first, then the table entries ``name[k]``, then
        the interior blocks ``group[i].key`` in field order.
        """
        decls = _declared(type(self))
        out = {name: getattr(self, name) for name, decl in decls if decl.keys is None}
        for name, decl in decls:
            if decl.keys is not None:
                out.update((f"{name}[{k}]", v) for k, v in getattr(self, name).items())
        for i, blk in getattr(self, "mid", {}).items():
            for name, decl in _declared(MiddleBlocks):
                label, value = f"{decl.slot[0]}[{i}].{decl.slot[1]}", getattr(blk, name)
                if decl.keys is None:
                    out[label] = value
                else:
                    out.update((f"{label}[{t}]", v) for t, v in value.items())
        return out


@dataclass(frozen=True)
class MiddleBlocks:
    """Coefficient blocks of one interior layer ``1 < i < L``."""

    w: np.ndarray = _block("d e", "1", slot="scalarsW.W")  # [W]^(i,i-1)
    ww: np.ndarray = _block("d e", "1", slot="scalarsW.WW")  # [WW]^(i,0)(L,i-1)
    bw: np.ndarray = _block("d e", "1", slot="scalarsW.bW")  # [bW]^(i)(L,i-1)
    b_w: np.ndarray = _block("d e n0", "n0", slot="vecsb.W")  # [W]^(i,0)
    b_ww: np.ndarray = _block("d e n0", "n0", slot="vecsb.WW")  # [WW]^(i,0)(L,0)
    b_bw: np.ndarray = _block("d e n0", "n0", slot="vecsb.bW")  # [bW]^(i)(L,0)
    b_wb: Mapping[int, np.ndarray] = _block("d e", "1", "below", "vecsb.Wb")  # [Wb]^(i,t)(t)
    b_b: np.ndarray = _block("d e", "1", slot="vecsb.b")  # [b]^(i)


@dataclass(frozen=True)
class EquivariantParams(_Layer):
    spec: WeightSpec  # input architecture; spec.d is the input channel count
    e: int            # output channel count
    phiW_L_W: np.ndarray = _block("e d nL nL", "nL")
    phiW_L_WW: np.ndarray = _block("e d nL nL", "nL")
    phiW_L_bW: np.ndarray = _block("e d nL nL", "nL")
    phib_L_WWLL: np.ndarray = _block("e d nL n0 m", "nL n0")
    phib_L_WL0: np.ndarray = _block("e d nL n0 m", "nL n0")
    phib_L_bWLL0: np.ndarray = _block("e d nL n0 m", "nL n0")
    phib_L_trWW: Mapping[int, np.ndarray] = _block("e d m", "nk", "hidden")
    phib_L_Wb: Mapping[int, np.ndarray] = _block("e d nL m", "nL", "hidden")
    phib_L_trbW: Mapping[int, np.ndarray] = _block("e d m", "nk", "hidden")
    phib_L_b: np.ndarray = _block("e d nL m", "nL")
    phib_L_1: np.ndarray = _block("e m", None)
    phiW_1_W: np.ndarray = _block("d e n0 n0", "n0")
    phiW_1_WW: np.ndarray = _block("d e n0 n0", "n0")
    phiW_1_bW: np.ndarray = _block("d e n0 n0", "n0")
    phiW_1_b: np.ndarray = _block("d e n0", "1")
    phib_1_W: np.ndarray = _block("d e n0", "n0")
    phib_1_WW: np.ndarray = _block("d e n0", "n0")
    phib_1_bW: np.ndarray = _block("d e n0", "n0")
    phib_1_b: np.ndarray = _block("d e", "1")
    mid: Mapping[int, MiddleBlocks]  # i -> blocks, 1 < i < L
    psi: PsiParams

    def __post_init__(self):
        spec, e = self.spec, _count("output channel count e", self.e)
        nL, interior = spec.n[-1], range(2, spec.L)
        _assign(self, {"e": e, **_checked(self, _layout(EquivariantParams, spec, e, nL))})
        mid = dict(self.mid)
        if mid.keys() != set(interior):
            raise ValidationError(f"mid must be keyed by layers {tuple(interior)}")
        checked = {
            i: MiddleBlocks(**_checked(mid[i], _layout(MiddleBlocks, spec, e, nL, i), f"mid[{i}]."))
            for i in interior
        }
        object.__setattr__(self, "mid", checked)
        self._check_psi()

    def out_spec(self) -> WeightSpec:
        return WeightSpec(self.spec.L, self.spec.n, self.e)

    def last_bias_packed(self) -> np.ndarray:
        """The ``phib_L_*`` blocks as one ``[e, F, n_L]`` tensor in feature order.

        The last-layer bias row is the invariant map of the features with
        ``d_out = n_L``: ``b^(L)[i, j]`` is ``featurize(U) @ P[i, :, j]``.
        Built on every call, so in-place edits of the blocks take effect.
        """
        return _pack_features(self, "phib_L_")


@dataclass(frozen=True)
class InvariantParams(_Layer):
    spec: WeightSpec
    e: int        # output channel count
    d_out: int    # embedding width of the output
    phi_WWLL: np.ndarray = _block("d e nL n0 m", "nL n0")
    phi_WL0: np.ndarray = _block("d e nL n0 m", "nL n0")
    phi_trWW: Mapping[int, np.ndarray] = _block("d e m", "nk", "hidden")
    phi_bWLL0: np.ndarray = _block("d e nL n0 m", "nL n0")
    phi_Wb: Mapping[int, np.ndarray] = _block("d e nL m", "nL", "hidden")
    phi_trbW: Mapping[int, np.ndarray] = _block("d e m", "nk", "hidden")
    phi_b: np.ndarray = _block("d e nL m", "nL")
    phi_1: np.ndarray = _block("e m", None)
    psi: PsiParams

    def __post_init__(self):
        e = _count("output channel count e", self.e)
        d_out = _count("output width d_out", self.d_out)
        blocks = _checked(self, _layout(InvariantParams, self.spec, e, d_out))
        _assign(self, {"e": e, "d_out": d_out, **blocks})
        self._check_psi()

    def packed(self) -> np.ndarray:
        """All blocks as one ``[e, F, d_out]`` tensor in feature order.

        ``P[i, f, k]`` is the coefficient of feature ``f`` of
        :func:`magep.stableterms.featurize` in output ``[i, k]``.  Built on
        every call, so in-place edits of the blocks take effect.
        """
        return _pack_features(self, "phi_")


# Name suffixes of an invariant map's blocks, in the order of
# :func:`magep.stableterms.in_feature_order`; the last is the constant row.
_FEATURE_SLOTS = ("WWLL", "WL0", "trWW", "bWLL0", "Wb", "trbW", "b", "1")


@cache
def _feature_fields(cls, prefix: str) -> tuple[tuple[str, bool, bool], ...]:
    """``(name, channel-major, table)`` of the blocks ``prefix + slot``."""
    decls = dict(_declared(cls))
    return tuple(
        (name, decls[name].shape[0] == "d", decls[name].keys is not None)
        for name in (prefix + slot for slot in _FEATURE_SLOTS)
    )


def _pack_features(params, prefix: str) -> np.ndarray:
    """The blocks ``prefix + slot`` of an invariant map as one ``[e, F, m]`` tensor.

    Each block enters as an ``[e, d, k, m]`` view, its feature axes (none
    for a trace) flattened to ``k``; ``[d, e, ...]`` blocks swap their
    first two axes, and a table is stacked in descending key order.  The
    constant row ``[e, m]`` comes last, so the blocks are copied once.
    """
    *parts, (const, _, _) = _feature_fields(type(params), prefix)
    const = getattr(params, const)
    L, m = params.spec.L, const.shape[-1]

    def features(v):
        return v.reshape(v.shape[0], v.shape[1], -1, m)

    blocks = []
    for name, swap, table in parts:
        value = getattr(params, name)
        if table:
            value = np.concatenate([features(value[k]) for k in range(L - 1, 0, -1)], axis=2)
        else:
            value = features(value)
        blocks.append(value.swapaxes(0, 1) if swap else value)
    return in_feature_order(*blocks, const[:, None], axis=-2)


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
    use ``a = scale``.  The blocks are drawn in field order.  The connection
    matrices default to the frozen uniform(-1, 1) initialization.
    """
    e = _count("output channel count e", e)
    if psi is None:
        psi = PsiParams.random(spec, rng.child("psi"))
    nL = spec.n[-1]
    blocks = _draw(rng, _layout(EquivariantParams, spec, e, nL), scale)
    mid = {
        i: MiddleBlocks(**_draw(rng, _layout(MiddleBlocks, spec, e, nL, i), scale))
        for i in range(2, spec.L)
    }
    return EquivariantParams(spec=spec, e=e, mid=mid, psi=psi, **blocks)


def init_invariant(
    spec: WeightSpec,
    e: int,
    d_out: int,
    rng: Rng,
    scale: float = 1.0,
    psi: PsiParams | None = None,
) -> InvariantParams:
    """Random invariant-layer blocks; same initialization rule as above."""
    e = _count("output channel count e", e)
    d_out = _count("output width d_out", d_out)
    if psi is None:
        psi = PsiParams.random(spec, rng.child("psi"))
    blocks = _draw(rng, _layout(InvariantParams, spec, e, d_out), scale)
    return InvariantParams(spec=spec, e=e, d_out=d_out, psi=psi, **blocks)


def _batched(U: WeightObject) -> tuple[WeightObject, bool]:
    if U.batch is not None:
        return U, True
    return (
        WeightObject._derived(
            U.spec, tuple(w[None] for w in U.W), tuple(v[None] for v in U.b), 1
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
        U = equivariant_forward(params, U).map(act)
    return invariant_forward(head, U)


def equivariant_parameter_count(spec: WeightSpec, e: int) -> int:
    """Count of stored phi scalars of the equivariant layer."""
    nL = spec.n[-1]
    return _size(_layout(EquivariantParams, spec, e, nL)) + sum(
        _size(_layout(MiddleBlocks, spec, e, nL, i)) for i in range(2, spec.L)
    )


def invariant_parameter_count(spec: WeightSpec, e: int, d_out: int) -> int:
    """Count of stored phi scalars of the invariant layer."""
    return _size(_layout(InvariantParams, spec, e, d_out))


_KINDS = {"equivariant": EquivariantParams, "invariant": InvariantParams}



def _groups() -> dict[str, dict[str, tuple[str, _Decl]]]:
    """The file groups of the interior blocks: group -> key -> ``(field name, declaration)``."""
    groups: dict = {}
    for name, decl in _declared(MiddleBlocks):
        groups.setdefault(decl.slot[0], {})[decl.slot[1]] = (name, decl)
    return groups


_GROUPS = _groups()

# Top-level keys of a .mgp.json document, per layer kind: the fields in
# order, with ``mid`` saved as its groups.
_PARAMS_KEYS = {
    kind: ("format", "kind")
    + tuple(key for f in fields(cls) for key in (_GROUPS if f.name == "mid" else (f.name,)))
    for kind, cls in _KINDS.items()
}


def _to_json(value, decl: _Decl):
    return value if decl.keys is None else {str(k): v for k, v in value.items()}


def _psi_to_json(psi: PsiParams) -> dict:
    return {
        "bw": {f"{s},{t}": psi.bw[(s, t)] for s, t in psi_indices(psi.spec.L)},
        "ww": {f"{s},{t}": psi.ww[(s, t)] for s, t in psi_indices(psi.spec.L)},
    }


def save_params(params: EquivariantParams | InvariantParams, path) -> None:
    """Write layer parameters as a ``.mgp.json`` document, keys in field order."""
    kind = "equivariant" if isinstance(params, EquivariantParams) else "invariant"
    decls = dict(_declared(type(params)))
    doc: dict = {"format": PARAMS_FORMAT, "kind": kind}
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name == "spec":
            doc["spec"] = {"L": value.L, "n": list(value.n), "d": value.d}
        elif f.name == "psi":
            doc["psi"] = _psi_to_json(value)
        elif f.name == "mid":
            for group, slots in _GROUPS.items():
                doc[group] = {
                    str(i): {k: _to_json(getattr(blk, n), decl) for k, (n, decl) in slots.items()}
                    for i, blk in value.items()
                }
        else:
            doc[f.name] = _to_json(value, decls[f.name]) if f.name in decls else value
    jsonio.dump_path(doc, path)


def _is_layer(key: str) -> bool:
    """Whether ``key`` is a layer index as :func:`save_params` writes it: no
    sign, no leading zero, so two keys never name one layer."""
    return key.isdecimal() and str(int(key)) == key


def _by_layer(name: str, doc) -> dict:
    if not isinstance(doc, dict) or not all(_is_layer(k) for k in doc):
        raise ValidationError(f"{name} must map layer indices to values")
    return doc


def _from_json(name: str, value, decl: _Decl):
    if decl.keys is None:
        return jsonio.finite(name, value)
    return {int(k): jsonio.finite(f"{name}[{k}]", v) for k, v in _by_layer(name, value).items()}


def _mid_from_json(doc: dict) -> dict[int, MiddleBlocks]:
    groups = {group: _by_layer(group, doc[group]) for group in _GROUPS}
    first, *rest = groups.values()
    if any(g.keys() != first.keys() for g in rest):
        raise ValidationError(f"{' and '.join(groups)} must cover the same layers")
    mid = {}
    for i in first:
        values = {}
        for group, slots in _GROUPS.items():
            entry = jsonio.exact_keys(f"{group}[{i}]", groups[group][i], slots)
            for key, (name, decl) in slots.items():
                values[name] = _from_json(f"{group}[{i}].{key}", entry[key], decl)
        mid[int(i)] = MiddleBlocks(**values)
    return mid


def _psi_from_json(spec: WeightSpec, doc) -> PsiParams:
    doc = jsonio.exact_keys("psi", doc, ("bw", "ww"))

    def parse(family):
        table = doc[family]
        if not isinstance(table, dict):
            raise ValidationError(f"psi.{family} must map 's,t' pairs to arrays")
        out = {}
        for key, val in table.items():
            s, comma, t = key.partition(",")
            if not (comma and _is_layer(s) and _is_layer(t)):
                raise ValidationError(f"psi.{family} key {key!r} is not an 's,t' pair")
            out[(int(s), int(t))] = jsonio.finite(f"psi.{family}[{key}]", val)
        return out

    return PsiParams(spec, parse("bw"), parse("ww"))


def load_params(path) -> EquivariantParams | InvariantParams:
    """Read a ``.mgp.json`` document; inverse of :func:`save_params` bit-exactly.

    Unknown or missing keys, wrong types and non-finite values raise
    ``ValidationError`` naming where they sit.
    """
    doc = jsonio.load_path(path)
    if doc.get("format") != PARAMS_FORMAT:
        raise ValidationError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown params kind {kind!r}")
    cls = _KINDS[kind]
    jsonio.exact_keys("top-level", doc, _PARAMS_KEYS[kind])
    raw = jsonio.exact_keys("spec", doc["spec"], ("L", "n", "d"))
    spec = WeightSpec(raw["L"], raw["n"], raw["d"])
    decls = dict(_declared(cls))
    values = {}
    for f in fields(cls):
        if f.name == "spec":
            values["spec"] = spec
        elif f.name == "psi":
            values["psi"] = _psi_from_json(spec, doc["psi"])
        elif f.name == "mid":
            values["mid"] = _mid_from_json(doc)
        elif f.name in decls:
            values[f.name] = _from_json(f.name, doc[f.name], decls[f.name])
        else:
            values[f.name] = doc[f.name]
    return cls(**values)
