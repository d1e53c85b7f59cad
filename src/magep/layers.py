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
builds, once per call, with or without a leading batch axis; ``[Wb]^(i,t)``
comes by the recursion ``W^(i) [Wb]^(i-1,t)``.  The last-layer bias row is
the invariant map with ``d_out = n_L``: the feature rows times the
``phib_L_*`` blocks packed in feature order, each block named after its
feature part.  The other rows are batched BLAS products of their terms,
concatenated along the contracted axis, with their coefficient blocks, read
as views of one buffer; the first-layer rows and the interior bias rows
contract one input channel at a time and sum the channels.  A block that
reduces a ``[bW]`` or ``[WW]`` term to a narrower row meets the term's
cheap factor first, so the term is never formed: ``[bW]^(s)(L,t) = b^(s)
(x) psi [W]^(L,t)`` becomes one more coefficient row on the ``b^(s)``
column, and an interior bias row's ``[WW]^(i,0)(L,0)`` block ``C`` joins
its ``[W]^(i,0)`` product as ``Psi ([W]^(L,0) C)``.  Only the interior
weight rows, with scalar coefficients, form both terms in full.  The
products with a long contracted axis (the feature rows times the packed
blocks, and the last weight row) go through
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
field order), ``blocks()``, the parameter counts and the ``.mgp.json``
reader and writer are all derived from these declarations.

A params object holds its blocks in the buffers its forward's GEMMs read:
an invariant map's ``[e, F, m]`` tensor in feature order (also the
last-layer bias row's), the last weight row's ``[e n_L, 3 d n_L]`` matrix,
and the boundary rows' ``[d, 3 n0 + c, e k]`` matrices.  The constructor
checks the given blocks and copies each into its place once; the
initializers draw each block straight into its place, at an architecture
the constructor would accept, and skip the checks and the copy.  Every
block is a view of its place in a buffer, so a write to a block reaches
the next forward and nothing packed can go stale; the tables and ``mid``
are read-only mappings, so no block can be swapped out.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from . import jsonio
from .activations import Activation
from .dense import Rng, serial_matmul, tensor
from .errors import ConfigurationError, ValidationError
from .stableterms import (
    _FEATURE_PARTS, PsiParams, _chains, _check_psi_fits, _features, feature_count, featurize,
    psi_indices,
)
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
# changes no value; it bounds the size of the stack's intermediates.  With
# glibc malloc, whether they reuse memory the heap holds or fault in fresh
# pages depends on that size and on the process's allocation history, so a
# fault count from one process is no rule.  At L=6, n=32, d=1->4->4, 64 rows,
# after the nine set-ups of perfbench/run.py, blocks of 8 and 16 rows took no
# page faults per call and the unblocked stack about 12K, with half again
# the peak RSS; after one set-up, 8-row blocks have taken none or about 16K
# depending only on what was allocated and freed before.
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


def _checked(obj, layout, views: dict, where: str = "") -> None:
    """Check each block of ``obj`` against ``layout`` and copy it into its view."""
    for name, keys, cells in layout:
        table = {None: getattr(obj, name)} if keys is None else dict(getattr(obj, name))
        if keys is not None and table.keys() != set(keys):
            raise ValidationError(f"{where}{name} must be keyed by layers {keys}")
        for k, shape, _ in cells:
            arr = tensor(table[k])
            if arr.shape != shape:
                label = where + name + ("" if k is None else f"[{k}]")
                raise ValidationError(f"{label} has shape {arr.shape}, expected {shape}")
            (views[name] if keys is None else views[name][k])[...] = arr


def _draw(rng: Rng, layout, views: dict, scale: float) -> None:
    """Fill the view of every block of ``layout``, in field order, with
    uniform(-a, a), ``a = scale / sqrt(d * fan)``; one draw per block."""
    for name, keys, cells in layout:
        for k, shape, fan in cells:
            a = scale if fan is None else scale / math.sqrt(math.prod(fan))
            (views[name] if keys is None else views[name][k])[...] = rng.uniform(-a, a, shape)


def _size(layout) -> int:
    return sum(math.prod(shape) for _, _, cells in layout for _, shape, _ in cells)


def _assign(obj, values: dict) -> None:
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def _fields(views: dict) -> dict:
    """Block views as field values: a table as a read-only mapping."""
    return {name: MappingProxyType(v) if type(v) is dict else v for name, v in views.items()}


def _built(cls, fields: dict):
    """A ``cls`` object holding ``fields``, which an initializer filled at a
    checked architecture: no checks, no copies."""
    obj = object.__new__(cls)
    _assign(obj, fields)
    return obj


class _Rebuilt:
    def __reduce__(self):
        # Copies and unpickled objects are rebuilt by the constructor, so
        # their blocks are again views of their own buffers.  A read-only
        # table can be neither pickled nor copied: it is handed over as a dict.
        values = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in values)


class _Layer(_Rebuilt):
    """What both layer kinds derive from their declared blocks."""

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


@dataclass(frozen=True, eq=False)
class MiddleBlocks(_Rebuilt):
    """Coefficient blocks of one interior layer ``1 < i < L``."""

    w: np.ndarray = _block("d e", "1", slot="scalarsW.W")  # [W]^(i,i-1)
    ww: np.ndarray = _block("d e", "1", slot="scalarsW.WW")  # [WW]^(i,0)(L,i-1)
    bw: np.ndarray = _block("d e", "1", slot="scalarsW.bW")  # [bW]^(i)(L,i-1)
    b_w: np.ndarray = _block("d e n0", "n0", slot="vecsb.W")  # [W]^(i,0)
    b_ww: np.ndarray = _block("d e n0", "n0", slot="vecsb.WW")  # [WW]^(i,0)(L,0)
    b_bw: np.ndarray = _block("d e n0", "n0", slot="vecsb.bW")  # [bW]^(i)(L,0)
    b_wb: Mapping[int, np.ndarray] = _block("d e", "1", "below", "vecsb.Wb")  # [Wb]^(i,t)(t)
    b_b: np.ndarray = _block("d e", "1", slot="vecsb.b")  # [b]^(i)


@dataclass(frozen=True, eq=False)
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
        layout = _layout(EquivariantParams, spec, e, nL)
        fields, views, mid_views = _equivariant_buffers(spec, e, layout)
        _checked(self, layout, views)
        mid = dict(self.mid)
        if mid.keys() != set(interior):
            raise ValidationError(f"mid must be keyed by layers {tuple(interior)}")
        for i in interior:
            _checked(mid[i], _layout(MiddleBlocks, spec, e, nL, i), mid_views[i], f"mid[{i}].")
        _check_psi_fits(spec, self.psi)
        _assign(self, fields)

    def out_spec(self) -> WeightSpec:
        return self._out_spec

    def last_bias_packed(self) -> np.ndarray:
        """The ``phib_L_*`` blocks as one ``[e, F, n_L]`` tensor in feature order.

        The last-layer bias row is the invariant map of the features with
        ``d_out = n_L``: ``b^(L)[i, j]`` is ``featurize(U) @ P[i, :, j]``.
        This is the buffer the ``phib_L_*`` blocks are views of, not a copy.
        """
        return self._last_bias


@dataclass(frozen=True, eq=False)
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
        layout = _layout(InvariantParams, self.spec, e, d_out)
        fields, views = _invariant_buffers(self.spec, e, d_out, layout)
        _checked(self, layout, views)
        _check_psi_fits(self.spec, self.psi)
        _assign(self, fields)

    def packed(self) -> np.ndarray:
        """All blocks as one ``[e, F, d_out]`` tensor in feature order.

        ``P[i, f, k]`` is the coefficient of feature ``f`` of
        :func:`magep.stableterms.featurize` in output ``[i, k]``.  This is
        the buffer the blocks are views of, not a copy.
        """
        return self._packed


# Each function below allocates one GEMM buffer of the forward and returns
# it with the views of the blocks it holds: it reshapes the buffer back into
# the tensor the blocks concatenate to, then undoes the axis swaps.


def _feature_buffer(cls, spec: WeightSpec, prefix: str, layout) -> tuple[np.ndarray, dict]:
    """``[e, F, m]``: the blocks ``prefix + part`` of an invariant map in
    feature order.  For each channel, the blocks of the feature parts in
    turn, each flattened to its feature entries (none for a trace), a table
    in the per-layer order; then the constant row ``prefix + "1"``,
    ``[e, m]``.  ``[d, e, ...]`` blocks view it with their first two axes
    swapped."""
    decls = dict(_declared(cls))
    cells = {name: c for name, _, c in layout}
    e, m = cells[prefix + "1"][0][1]
    buf = np.empty((e, feature_count(spec), m))
    body = buf[:, :-1].reshape(e, spec.d, -1, m, copy=False)
    views, start = {prefix + "1": buf[:, -1]}, 0
    for part, _ in _FEATURE_PARTS:
        name, entries = prefix + part, {}
        for k, shape, _ in cells[name][::-1]:
            stop = start + math.prod(shape[2:-1])
            view = body[:, :, start:stop].reshape((e, spec.d) + shape[2:], copy=False)
            entries[k] = view.swapaxes(0, 1) if decls[name].shape[0] == "d" else view
            start = stop
        views[name] = entries.pop(None) if None in entries else dict(reversed(entries.items()))
    return buf, views


def _last_weight_buffer(d: int, e: int, nL: int) -> tuple[np.ndarray, dict]:
    """``[e n_L, 3 d n_L]``: the last weight row's blocks ``[e, d, p, q]``
    at row ``(o, q)``, column ``(block, c, p)``."""
    buf = np.empty((e * nL, 3 * d * nL))
    cols = buf.reshape(e, nL, 3, d, nL, copy=False)
    names = ("phiW_L_W", "phiW_L_WW", "phiW_L_bW")
    return buf, {name: cols[:, :, f].transpose(0, 2, 3, 1) for f, name in enumerate(names)}


def _row_views(buf: np.ndarray, n0: int, k: tuple) -> list[np.ndarray]:
    """The blocks of a boundary row as views of its ``[d, 3 n0 + c, e k]``
    coefficients, per input channel: the three ``[d, e, n0, *k]`` blocks of
    ``[W]^(i,0)``, ``[WW]^(i,0)(L,0)`` and ``[bW]^(i)(L,0)``, then the
    ``c`` ``[d, e, *k]`` blocks of the per-channel columns."""
    d = buf.shape[0]
    h = buf[:, : 3 * n0].reshape((d, 3, n0, -1) + k, copy=False).swapaxes(2, 3)
    t = buf[:, 3 * n0 :].reshape((d, -1, h.shape[2]) + k, copy=False)
    return [*h.swapaxes(0, 1), *t.swapaxes(0, 1)]


def _first_rows_buffer(d: int, e: int, n0: int) -> tuple[np.ndarray, dict]:
    """``[d, 3 n0 + 1, e n0 + e]``: the first weight row's, then bias row's."""
    buf = np.empty((d, 3 * n0 + 1, e * n0 + e))
    views = _row_views(buf[..., : e * n0], n0, (n0,)) + _row_views(buf[..., e * n0 :], n0, ())
    names = [f"{row}_1_{term}" for row in ("phiW", "phib") for term in ("W", "WW", "bW", "b")]
    return buf, dict(zip(names, views))


def _interior_rows_buffer(d: int, e: int, n0: int, i: int) -> tuple[np.ndarray, dict]:
    """``[d, 3 n0 + i, e]``: the bias row of interior layer ``i``."""
    buf = np.empty((d, 3 * n0 + i, e))
    w, ww, bw, *wb, b = _row_views(buf, n0, ())
    return buf, {"b_w": w, "b_ww": ww, "b_bw": bw, "b_wb": dict(enumerate(wb, 1)), "b_b": b}


def _scalars_buffer(d: int, e: int) -> tuple[np.ndarray, dict]:
    """``[3 d, e]``: an interior weight row's scalars, read as the transpose."""
    buf = np.empty((3 * d, e))
    return buf, dict(zip(("w", "ww", "bw"), buf.reshape(3, d, e, copy=False)))


# The two functions below allocate a layer's buffers and return its fields
# other than ``spec`` and ``psi``, every block a view of its place, with the
# views to fill: the constructor copies each block into its view as it
# checks it, the initializers draw into them.


def _equivariant_buffers(spec: WeightSpec, e: int, layout) -> tuple[dict, dict, dict]:
    """``(fields, views, mid_views)``, ``mid_views`` per interior layer."""
    d, n0, nL = spec.d, spec.n[0], spec.n[-1]
    last_bias, views = _feature_buffer(EquivariantParams, spec, "phib_L_", layout)
    last_weight, more = _last_weight_buffer(d, e, nL)
    first_rows, most = _first_rows_buffer(d, e, n0)
    views |= more | most
    interior, mid_views = {}, {}
    for i in range(2, spec.L):
        (scalars, w), (rows, b) = _scalars_buffer(d, e), _interior_rows_buffer(d, e, n0, i)
        interior[i], mid_views[i] = (scalars, rows), w | b
    mid = MappingProxyType({i: MiddleBlocks(**_fields(v)) for i, v in mid_views.items()})
    fields = {
        "e": e,
        **_fields(views),
        "mid": mid,
        "_last_bias": last_bias,
        "_last_weight": last_weight,
        "_first_rows": first_rows,
        "_interior": interior,
        "_out_spec": WeightSpec(spec.L, spec.n, e),
    }
    return fields, views, mid_views


def _invariant_buffers(spec: WeightSpec, e: int, d_out: int, layout) -> tuple[dict, dict]:
    """``(fields, views)``."""
    packed, views = _feature_buffer(InvariantParams, spec, "phi_", layout)
    return {"e": e, "d_out": d_out, **_fields(views), "_packed": packed}, views


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
    use ``a = scale``.  The blocks are drawn in field order, each straight
    into its view of the forward's buffers.  The connection matrices default
    to the frozen uniform(-1, 1) initialization.
    """
    e = _count("output channel count e", e)
    if psi is None:
        psi = PsiParams.random(spec, rng.child("psi"))
    else:
        _check_psi_fits(spec, psi)
    nL = spec.n[-1]
    layout = _layout(EquivariantParams, spec, e, nL)
    fields, views, mid_views = _equivariant_buffers(spec, e, layout)
    _draw(rng, layout, views, scale)
    for i, v in mid_views.items():
        _draw(rng, _layout(MiddleBlocks, spec, e, nL, i), v, scale)
    return _built(EquivariantParams, {"spec": spec, "psi": psi, **fields})


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
    else:
        _check_psi_fits(spec, psi)
    layout = _layout(InvariantParams, spec, e, d_out)
    fields, views = _invariant_buffers(spec, e, d_out, layout)
    _draw(rng, layout, views, scale)
    return _built(InvariantParams, {"spec": spec, "psi": psi, **fields})


def _check_input(params, U: WeightObject) -> None:
    if U.spec != params.spec:
        raise ValidationError(
            f"weight object spec {U.spec} does not match layer spec {params.spec}"
        )


def equivariant_forward(params: EquivariantParams, U: WeightObject) -> WeightObject:
    """Apply the equivariant layer, mapping d input channels to e output ones."""
    _check_input(params, U)
    spec, psi, e = params.spec, params.psi, params.e
    L, n, d = spec.L, spec.n, spec.d
    lead = U.flat.shape[:-1]
    suffix, prefix = _chains(U)

    def ww(s, t):  # [WW]^(s,0)(L,t)
        return np.matmul(np.matmul(prefix[s], psi.ww[(s, t)]), suffix[t])

    def psi_w(s, t):  # psi [W]^(L,t), [..., d, n_t]: [bW]^(s)(L,t) is b^(s) (x) psi_w(s, t)
        return np.matmul(psi.bw[(s, t)][0], suffix[t])

    def by_channel(col, row):  # sum_c col_c (x) row_c: [..., d, m], [..., d, k] -> [..., m, k]
        return np.matmul(col.swapaxes(-2, -1), row)

    W_out: list[np.ndarray] = [None] * L  # type: ignore[list-item]
    b_out: list[np.ndarray] = [None] * L  # type: ignore[list-item]

    # Last layer: [W] and [WW] mix over their row index in one GEMM, and the
    # [bW] blocks meet b^(L) first: (phiW_L_bW b^(L)) (x) psi [W]^(L,L-1).
    # The bias row is the invariant map of the feature rows, [e, ..., n_L]
    # turned into [..., e, n_L].
    dn, coef = d * n[L], params._last_weight
    terms = np.concatenate([U.weight(L), ww(L, L - 1)], axis=-3).reshape(lead + (2 * dn, -1))
    out = serial_matmul(coef[:, : 2 * dn], terms)
    phi_b = np.matmul(coef[:, 2 * dn :].reshape(-1, d, n[L]).swapaxes(0, 1), U.bias(L)[..., None])
    out += by_channel(phi_b[..., 0], psi_w(L, L - 1))
    W_out[L - 1] = out.reshape(lead + (e, n[L], n[L - 1]))
    X = _features(U, psi, suffix, prefix)
    b_out[L - 1] = serial_matmul(X, params._last_bias).swapaxes(0, -2)

    # First layer: the weight and bias rows share one GEMM over [W]^(1,0) and
    # [WW]^(1,0)(L,0).  Their [bW]^(1)(L,0) blocks, times psi [W]^(L,0), are
    # one more coefficient row on the b^(1) column.
    n0, coef = n[0], params._first_rows
    terms = np.concatenate([prefix[1], ww(1, 0)], axis=-1)
    rows = np.matmul(terms, coef[:, : 2 * n0]).sum(axis=-3)
    b_row = np.matmul(psi_w(1, 0)[..., None, :], coef[:, 2 * n0 : 3 * n0]) + coef[:, 3 * n0 :]
    rows += by_channel(U.bias(1), b_row[..., 0, :])
    W_out[0] = rows[..., : e * n0].reshape(lead + (n[1], e, n0)).swapaxes(-3, -2)
    b_out[0] = rows[..., e * n0 :].swapaxes(-2, -1)

    # Interior layers: scalar coefficients for the weight row.  The bias row
    # reads [Wb]^(i,t)(t) = W^(i) [Wb]^(i-1,t)(t) for t = 1..i-1, then b^(i).
    # Its [WW] and [bW] blocks C meet [W]^(L,0) first: [WW]^(i,0)(L,0) C is
    # [W]^(i,0) (Psi ([W]^(L,0) C)), which joins the [W]^(i,0) GEMM, and
    # [bW]^(i)(L,0) C is b^(i) (x) psi ([W]^(L,0) C).
    tail = U.bias(1)[..., None]
    for i in range(2, L):
        scalars, coef = params._interior[i]
        bw = U.bias(i)[..., :, None] * psi_w(i, i - 1)[..., None, :]  # [bW]^(i)(L,i-1)
        terms = np.concatenate([U.weight(i), ww(i, i - 1), bw], axis=-3)
        out = np.matmul(scalars.T, terms.reshape(lead + (3 * d, -1)))
        W_out[i - 1] = out.reshape(lead + (e, n[i], n[i - 1]))
        tail = np.concatenate([np.matmul(U.weight(i), tail), U.bias(i)[..., None]], axis=-1)
        # [W]^(L,0) times the [WW] and [bW] blocks at once: [..., d, 2, n_L, e]
        pair = np.matmul(suffix[0][..., None, :, :], coef[:, n0 : 3 * n0].reshape(d, 2, n0, e))
        rows = np.matmul(prefix[i], coef[:, :n0] + np.matmul(psi.ww[(i, 0)], pair[..., 0, :, :]))
        rows += np.matmul(tail, coef[:, 3 * n0 :])
        bw_row = np.matmul(psi.bw[(i, 0)][0], pair[..., 1, :, :])
        b_out[i - 1] = (rows.sum(axis=-3) + by_channel(U.bias(i), bw_row)).swapaxes(-2, -1)

    return WeightObject._derived(params._out_spec, tuple(W_out), tuple(b_out), U.batch)


def invariant_forward(params: InvariantParams, U: WeightObject) -> np.ndarray:
    """Apply the invariant layer; returns an ``[e, d_out]`` array per row."""
    _check_input(params, U)
    return serial_matmul(featurize(U, params.psi), params._packed).swapaxes(0, -2)


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
        U = equivariant_forward(params, U)
        # An activation is elementwise: it maps the output's flat array at once.
        U = WeightObject._viewing(U.spec, U.batch, act(U.flat))
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
