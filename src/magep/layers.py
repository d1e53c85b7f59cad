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
chains ``[W]^(L,t)`` that the featurizer reads too and the prefix chains
``[W]^(s,0)`` that only the first-layer and interior rows read, each built
once per call, with or without a leading batch axis; ``[Wb]^(i,t)`` comes
by the recursion ``W^(i) [Wb]^(i-1,t)``.  The last-layer bias row is
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

A params object holds its blocks in the buffers its forward's GEMMs read:
an invariant map's ``[e, F, m]`` tensor in feature order (also the
last-layer bias row's), the last weight row's ``[e n_L, 3 d n_L]`` matrix,
and the boundary rows' ``[d, 3 n0 + c, e k]`` matrices.  Each block is a
view of its place in a buffer, laid out by the function that allocates the
buffer, and these views alone give each block's shape and a table's keys.
A block's dataclass field declares the rest: its fan-in, whether it is a
table over layers, and for interior blocks its slot in the file.  The
constructor checks the given blocks against their views and copies each in
once; the initializers draw each block straight into its view, in field
order, at an architecture the constructor would accept.  So a write to a
block reaches the next forward and nothing packed can go stale; the tables
and ``mid`` are read-only mappings, so no block can be swapped out.  The
connection matrices ``psi`` are declared the same way, as the two tables
of :class:`magep.stableterms.PsiParams`, which also defines the
declaration machinery.  The loader allocates the layer a ``.mgp.json``
header sizes and fills its views from the file, which must match that
layer's own document, as :func:`save_params` writes it, key for key.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from . import jsonio
from .activations import Activation
from .dense import Rng, _usable_cpus, serial_matmul
from .errors import ConfigurationError, ValidationError
from .stableterms import (
    _FEATURE_PARTS, PsiParams, _assign, _block, _built, _cells, _check_psi_fits,
    _checked, _Decl, _declared, _draw, _empty, _features, _fields, _is_spec, _psi_buffers,
    _Rebuilt, _suffix, feature_count, featurize,
)
from .weightspace import WeightObject, WeightSpec, _count, dim

__all__ = [
    "EquivariantParams",
    "InvariantParams",
    "MiddleBlocks",
    "init_equivariant",
    "init_invariant",
    "equivariant_forward",
    "invariant_forward",
    "stack_forward",
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
# depending only on what was allocated and freed before.  These notes were
# taken on one thread and hold per thread: each thread of the stack holds one
# block's intermediates at a time, so each adds one block's working set
# (about 9 MB there) to the peak RSS.
ROW_BLOCK = 8


class _Layer(_Rebuilt):
    """What both layer kinds derive from their declared blocks."""

    def blocks(self) -> dict[str, np.ndarray]:
        """Flat view of every stored coefficient block, keyed by name.

        Single blocks come first, then the table entries ``name[k]``, then
        the interior blocks ``group[i].key`` in field order.
        """
        decls = _declared(type(self))
        out = {name: getattr(self, name) for name, decl in decls if not decl.table}
        for name, decl in decls:
            if decl.table:
                out.update((f"{name}[{k}]", v) for k, v in getattr(self, name).items())
        for i, blk in getattr(self, "mid", {}).items():
            for name, decl in _declared(MiddleBlocks):
                label = f"{decl.slot[0]}[{i}].{decl.slot[1]}"
                for t, v in _cells(decl, getattr(blk, name)):
                    out[label if t is None else f"{label}[{t}]"] = v
        return out


@dataclass(frozen=True, eq=False)
class MiddleBlocks(_Rebuilt):
    """Coefficient blocks of one interior layer ``1 < i < L``."""

    w: np.ndarray = _block("1", slot="scalarsW.W")  # [d, e]: [W]^(i,i-1)
    ww: np.ndarray = _block("1", slot="scalarsW.WW")  # [d, e]: [WW]^(i,0)(L,i-1)
    bw: np.ndarray = _block("1", slot="scalarsW.bW")  # [d, e]: [bW]^(i)(L,i-1)
    b_w: np.ndarray = _block("n0", slot="vecsb.W")  # [d, e, n0]: [W]^(i,0)
    b_ww: np.ndarray = _block("n0", slot="vecsb.WW")  # [d, e, n0]: [WW]^(i,0)(L,0)
    b_bw: np.ndarray = _block("n0", slot="vecsb.bW")  # [d, e, n0]: [bW]^(i)(L,0)
    # t -> [d, e]: [Wb]^(i,t)(t), 0 < t < i
    b_wb: Mapping[int, np.ndarray] = _block("1", table=True, slot="vecsb.Wb")
    b_b: np.ndarray = _block("1", slot="vecsb.b")  # [d, e]: [b]^(i)


@dataclass(frozen=True, eq=False)
class EquivariantParams(_Layer):
    spec: WeightSpec  # input architecture; spec.d is the input channel count
    e: int            # output channel count
    phiW_L_W: np.ndarray = _block("nL")  # [e, d, nL, nL]
    phiW_L_WW: np.ndarray = _block("nL")  # [e, d, nL, nL]
    phiW_L_bW: np.ndarray = _block("nL")  # [e, d, nL, nL]
    phib_L_WWLL: np.ndarray = _block("nL n0")  # [e, d, nL, n0, nL]
    phib_L_WL0: np.ndarray = _block("nL n0")  # [e, d, nL, n0, nL]
    phib_L_bWLL0: np.ndarray = _block("nL n0")  # [e, d, nL, n0, nL]
    phib_L_trWW: Mapping[int, np.ndarray] = _block("nk", table=True)  # k -> [e, d, nL], 0 < k < L
    phib_L_Wb: Mapping[int, np.ndarray] = _block("nL", table=True)  # k -> [e, d, nL, nL], 0 < k < L
    phib_L_trbW: Mapping[int, np.ndarray] = _block("nk", table=True)  # k -> [e, d, nL], 0 < k < L
    phib_L_b: np.ndarray = _block("nL")  # [e, d, nL, nL]
    phib_L_1: np.ndarray = _block(None)  # [e, nL]
    phiW_1_W: np.ndarray = _block("n0")  # [d, e, n0, n0]
    phiW_1_WW: np.ndarray = _block("n0")  # [d, e, n0, n0]
    phiW_1_bW: np.ndarray = _block("n0")  # [d, e, n0, n0]
    phiW_1_b: np.ndarray = _block("1")  # [d, e, n0]
    phib_1_W: np.ndarray = _block("n0")  # [d, e, n0]
    phib_1_WW: np.ndarray = _block("n0")  # [d, e, n0]
    phib_1_bW: np.ndarray = _block("n0")  # [d, e, n0]
    phib_1_b: np.ndarray = _block("1")  # [d, e]
    mid: Mapping[int, MiddleBlocks]  # i -> blocks, 1 < i < L
    psi: PsiParams

    def __post_init__(self):
        spec, e = _is_spec(self.spec), _count("output channel count e", self.e)
        fields, views, mid_views = _equivariant_buffers(spec, e)
        _checked(EquivariantParams, self, views)
        mid = self.mid
        if not (isinstance(mid, Mapping) and mid.keys() == mid_views.keys()):
            raise ValidationError(f"mid must be keyed by layers {tuple(mid_views)}")
        for i, v in mid_views.items():
            if not isinstance(mid[i], MiddleBlocks):
                raise ValidationError(f"mid[{i}] must be MiddleBlocks")
            _checked(MiddleBlocks, mid[i], v, f"mid[{i}].")
        _check_psi_fits(spec, self.psi)
        _assign(self, fields)

    def out_spec(self) -> WeightSpec:
        return self._out_spec


@dataclass(frozen=True, eq=False)
class InvariantParams(_Layer):
    spec: WeightSpec
    e: int        # output channel count
    d_out: int    # embedding width of the output
    phi_WWLL: np.ndarray = _block("nL n0")  # [d, e, nL, n0, d_out]
    phi_WL0: np.ndarray = _block("nL n0")  # [d, e, nL, n0, d_out]
    phi_trWW: Mapping[int, np.ndarray] = _block("nk", table=True)  # k -> [d, e, d_out], 0 < k < L
    phi_bWLL0: np.ndarray = _block("nL n0")  # [d, e, nL, n0, d_out]
    phi_Wb: Mapping[int, np.ndarray] = _block("nL", table=True)  # k -> [d, e, nL, d_out], 0 < k < L
    phi_trbW: Mapping[int, np.ndarray] = _block("nk", table=True)  # k -> [d, e, d_out], 0 < k < L
    phi_b: np.ndarray = _block("nL")  # [d, e, nL, d_out]
    phi_1: np.ndarray = _block(None)  # [e, d_out]
    psi: PsiParams

    def __post_init__(self):
        spec, e = _is_spec(self.spec), _count("output channel count e", self.e)
        d_out = _count("output width d_out", self.d_out)
        fields, views = _invariant_buffers(spec, e, d_out)
        _checked(InvariantParams, self, views)
        _check_psi_fits(spec, self.psi)
        _assign(self, fields)


# Each function below allocates one GEMM buffer of the forward and returns
# it with the views of the blocks it holds: it reshapes the buffer back into
# the tensor the blocks concatenate to, then undoes the axis swaps.  These
# views are the only statement of each block's shape, and of a table's keys,
# which they list in ascending order.


def _feature_buffer(spec: WeightSpec, e: int, m: int, prefix: str) -> tuple[np.ndarray, dict]:
    """``[e, F, m]``: the blocks ``prefix + part`` of an invariant map in
    feature order.  For each channel, the blocks of the feature parts in
    turn, each an entry of the part's shape per output, a per-layer part a
    table in the per-layer order; then the constant row ``prefix + "1"``,
    ``[e, m]``.  The invariant layer's ``phi_`` blocks are ``[d, e, ...]``
    and view it with their first two axes swapped; the last-layer bias
    row's are ``[e, d, ...]``."""
    L = spec.L
    buf = _empty(e, feature_count(spec), m)
    body = buf[:, :-1].reshape(e, spec.d, -1, m, copy=False)
    if prefix == "phi_":
        body = body.swapaxes(0, 1)
    views, start = {prefix + "1": buf[:, -1]}, 0
    for part, shape_of, per_layer in _FEATURE_PARTS:
        shape, count = shape_of(spec), L - 1 if per_layer else 1
        stop = start + count * math.prod(shape)
        entries = body[:, :, start:stop].reshape(body.shape[:2] + (count, *shape, m), copy=False)
        start = stop
        views[prefix + part] = (
            {k: entries[:, :, L - 1 - k] for k in range(1, L)} if per_layer else entries[:, :, 0]
        )
    return buf, views


def _last_weight_buffer(d: int, e: int, nL: int) -> tuple[np.ndarray, dict]:
    """``[e n_L, 3 d n_L]``: the last weight row's blocks ``[e, d, p, q]``
    at row ``(o, q)``, column ``(block, c, p)``."""
    buf = _empty(e * nL, 3 * d * nL)
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
    buf = _empty(d, 3 * n0 + 1, e * n0 + e)
    views = _row_views(buf[..., : e * n0], n0, (n0,)) + _row_views(buf[..., e * n0 :], n0, ())
    names = [f"{row}_1_{term}" for row in ("phiW", "phib") for term in ("W", "WW", "bW", "b")]
    return buf, dict(zip(names, views))


def _interior_rows_buffer(d: int, e: int, n0: int, i: int) -> tuple[np.ndarray, dict]:
    """``[d, 3 n0 + i, e]``: the bias row of interior layer ``i``."""
    buf = _empty(d, 3 * n0 + i, e)
    w, ww, bw, *wb, b = _row_views(buf, n0, ())
    return buf, {"b_w": w, "b_ww": ww, "b_bw": bw, "b_wb": dict(enumerate(wb, 1)), "b_b": b}


def _scalars_buffer(d: int, e: int) -> tuple[np.ndarray, dict]:
    """``[3 d, e]``: an interior weight row's scalars, read as the transpose."""
    buf = _empty(3 * d, e)
    return buf, dict(zip(("w", "ww", "bw"), buf.reshape(3, d, e, copy=False)))


# The two functions below allocate a layer's buffers and return its fields
# other than ``spec`` and ``psi``, every block a view of its place, with the
# views to fill: the constructor copies each block into its view as it
# checks it, the initializers draw into them.


def _equivariant_buffers(spec: WeightSpec, e: int) -> tuple[dict, dict, dict]:
    """``(fields, views, mid_views)``, ``mid_views`` per interior layer."""
    d, n0, nL = spec.d, spec.n[0], spec.n[-1]
    last_bias, views = _feature_buffer(spec, e, nL, "phib_L_")
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


def _invariant_buffers(spec: WeightSpec, e: int, d_out: int) -> tuple[dict, dict]:
    """``(fields, views)``."""
    packed, views = _feature_buffer(spec, e, d_out, "phi_")
    return {"e": e, "d_out": d_out, **_fields(views), "_packed": packed}, views


def _init_args(spec, e, rng: Rng, scale: float, psi) -> tuple[WeightSpec, int, PsiParams]:
    """An init's checked ``(spec, e, psi)``, Psi drawn from ``rng.child("psi")``
    unless given.  ``scale`` is checked before any draw: >= 0, and ``2 * scale``
    finite, as every block's ``uniform(-a, a)`` is drawn as ``-a + 2a u``."""
    spec, e = _is_spec(spec), _count("output channel count e", e)
    if not (scale >= 0.0 and math.isfinite(scale + scale)):
        raise ValidationError(f"scale must be >= 0 with 2 * scale finite, got {scale}")
    if psi is None:
        return spec, e, PsiParams.random(spec, rng.child("psi"))
    _check_psi_fits(spec, psi)
    return spec, e, psi


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
    spec, e, psi = _init_args(spec, e, rng, scale, psi)
    fields, views, mid_views = _equivariant_buffers(spec, e)
    _draw(EquivariantParams, rng, spec, views, scale)
    for v in mid_views.values():
        _draw(MiddleBlocks, rng, spec, v, scale)
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
    d_out = _count("output width d_out", d_out)
    spec, e, psi = _init_args(spec, e, rng, scale, psi)
    fields, views = _invariant_buffers(spec, e, d_out)
    _draw(InvariantParams, rng, spec, views, scale)
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
    # Each output row is written straight into its view of one flat array.
    Y = WeightObject._viewing(params._out_spec, U.batch, np.empty(lead + (dim(params._out_spec),)))
    suffix = _suffix(U)
    prefix = {1: U.weight(1), L: suffix[0]}  # [W]^(s,0)
    for s in range(2, L):
        prefix[s] = np.matmul(U.weight(s), prefix[s - 1])

    def ww(s, t):  # [WW]^(s,0)(L,t)
        return np.matmul(np.matmul(prefix[s], psi.ww[(s, t)]), suffix[t])

    def psi_w(s, t):  # psi [W]^(L,t), [..., d, n_t]: [bW]^(s)(L,t) is b^(s) (x) psi_w(s, t)
        return np.matmul(psi.bw[(s, t)][0], suffix[t])

    def by_channel(col, row):  # sum_c col_c (x) row_c: [..., d, m], [..., d, k] -> [..., m, k]
        return np.matmul(col.swapaxes(-2, -1), row)

    # Last layer: [W] and [WW] mix over their row index in one GEMM, and the
    # [bW] blocks meet b^(L) first: (phiW_L_bW b^(L)) (x) psi [W]^(L,L-1).
    # The bias row is the invariant map of the feature rows, [e, ..., n_L]
    # turned into [..., e, n_L].
    dn, coef = d * n[L], params._last_weight
    terms = np.concatenate([U.weight(L), ww(L, L - 1)], axis=-3).reshape(lead + (2 * dn, -1))
    out = Y.weight(L).reshape(lead + (e * n[L], -1), copy=False)
    serial_matmul(coef[:, : 2 * dn], terms, out)
    phi_b = np.matmul(coef[:, 2 * dn :].reshape(-1, d, n[L]).swapaxes(0, 1), U.bias(L)[..., None])
    out += by_channel(phi_b[..., 0], psi_w(L, L - 1))
    X = _features(U, psi, suffix)
    serial_matmul(X, params._last_bias, Y.bias(L).swapaxes(0, -2))

    # First layer: the weight and bias rows share one GEMM over [W]^(1,0) and
    # [WW]^(1,0)(L,0).  Their [bW]^(1)(L,0) blocks, times psi [W]^(L,0), are
    # one more coefficient row on the b^(1) column.
    n0, coef = n[0], params._first_rows
    terms = np.concatenate([prefix[1], ww(1, 0)], axis=-1)
    rows = np.matmul(terms, coef[:, : 2 * n0]).sum(axis=-3)
    b_row = np.matmul(psi_w(1, 0)[..., None, :], coef[:, 2 * n0 : 3 * n0]) + coef[:, 3 * n0 :]
    rows += by_channel(U.bias(1), b_row[..., 0, :])
    Y.weight(1)[...] = rows[..., : e * n0].reshape(lead + (n[1], e, n0)).swapaxes(-3, -2)
    Y.bias(1)[...] = rows[..., e * n0 :].swapaxes(-2, -1)

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
        out = Y.weight(i).reshape(lead + (e, -1), copy=False)
        np.matmul(scalars.T, terms.reshape(lead + (3 * d, -1)), out=out)
        tail = np.concatenate([np.matmul(U.weight(i), tail), U.bias(i)[..., None]], axis=-1)
        # [W]^(L,0) times the [WW] and [bW] blocks at once: [..., d, 2, n_L, e]
        pair = np.matmul(suffix[0][..., None, :, :], coef[:, n0 : 3 * n0].reshape(d, 2, n0, e))
        rows = np.matmul(prefix[i], coef[:, :n0] + np.matmul(psi.ww[(i, 0)], pair[..., 0, :, :]))
        rows += np.matmul(tail, coef[:, 3 * n0 :])
        bw_row = np.matmul(psi.bw[(i, 0)][0], pair[..., 1, :, :])
        np.add(rows.sum(axis=-3), by_channel(U.bias(i), bw_row), out=Y.bias(i).swapaxes(-2, -1))

    return Y


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
    :data:`ROW_BLOCK` rows at a time.  A batch of more than one block runs
    its blocks on one thread per CPU the process may use, at most one per
    block, the caller's thread among them: each thread claims the next
    block until none is left and writes its rows into the one output.  Rows
    are independent and each block runs the same serial BLAS calls, so the
    result is bit-for-bit that of one thread.  The first exception a block
    raises is re-raised here once every thread has stopped.
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
    out = np.empty((U.batch, head.e, head.d_out))
    pending = list(range(0, U.batch, ROW_BLOCK))[::-1]
    lock, errors = threading.Lock(), []

    def claim():  # run blocks until none is left or one has raised
        while True:
            with lock:
                if errors or not pending:
                    return
                lo = pending.pop()
            try:
                out[lo : lo + ROW_BLOCK] = _stack_rows(stack, head, U.rows(lo, lo + ROW_BLOCK))
            except BaseException as exc:  # re-raised by the caller
                with lock:
                    errors.append(exc)
                return

    workers = [threading.Thread(target=claim) for _ in range(min(_usable_cpus(), len(pending)) - 1)]
    try:
        for t in workers:
            t.start()
        claim()
    finally:
        for t in workers:
            if t.is_alive():
                t.join()
    if errors:
        raise errors[0]
    return out


def _stack_rows(stack, head, U: WeightObject) -> np.ndarray:
    for params, act in stack:
        U = equivariant_forward(params, U)
        # An activation is elementwise: it maps the fresh output's flat array
        # at once, in place.
        act(U.flat, out=U.flat)
    return invariant_forward(head, U)


_KINDS = {"equivariant": EquivariantParams, "invariant": InvariantParams}


def _key_text(k) -> str:
    """A table key as :func:`save_params` writes it: ``str(k)``, or ``"s,t"`` for a pair."""
    return ",".join(map(str, k)) if type(k) is tuple else str(k)


def _to_json(value, decl: _Decl):
    return value if not decl.table else {_key_text(k): v for k, v in value.items()}


def _document(params: EquivariantParams | InvariantParams) -> dict:
    """The ``.mgp.json`` document of ``params``, keys in field order: each
    block is its view, each table an object keyed by :func:`_key_text`, and
    ``mid`` is written as its groups."""
    kind = "equivariant" if isinstance(params, EquivariantParams) else "invariant"
    decls = dict(_declared(type(params)))
    doc: dict = {"format": PARAMS_FORMAT, "kind": kind}
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name == "spec":
            doc["spec"] = {"L": value.L, "n": list(value.n), "d": value.d}
        elif f.name == "psi":
            doc["psi"] = {n: _to_json(getattr(value, n), decl) for n, decl in _declared(PsiParams)}
        elif f.name == "mid":
            for name, decl in _declared(MiddleBlocks):
                group, key = decl.slot
                rows = doc.setdefault(group, {})
                for i, blk in value.items():
                    rows.setdefault(str(i), {})[key] = _to_json(getattr(blk, name), decl)
        else:
            doc[f.name] = _to_json(value, decls[f.name]) if f.name in decls else value
    return doc


def save_params(params: EquivariantParams | InvariantParams, path) -> None:
    """Write layer parameters as a ``.mgp.json`` document, keys in field order."""
    jsonio.dump_path(_document(params), path)


def _fill(where: str, template, value) -> None:
    """Copy ``value``, the part of a read document at ``where``, into the
    blocks of ``template``, the same part of a :func:`_document`: an object
    must have exactly the template's keys and a block its view's shape.
    Scalars are skipped; the header was checked before allocation."""
    if isinstance(template, np.ndarray):
        template[...] = jsonio.finite(where, value, template.shape)
    elif isinstance(template, dict):
        jsonio.exact_keys(where or "top-level", value, template)
        for key, part in template.items():
            at = f"{where}[{key}]" if key[0].isdigit() else f"{where}.{key}" if where else key
            _fill(at, part, value[key])


def load_params(path) -> EquivariantParams | InvariantParams:
    """Read a ``.mgp.json`` document; inverse of :func:`save_params` bit-exactly.

    The header (``format``, ``kind``, ``spec``, ``e`` and an invariant
    layer's ``d_out``) sizes a layer, allocated as the initializers allocate
    it.  The document :func:`save_params` would write for that layer is the
    template the file must match: the same keys in every object, each block
    of its view's shape, read straight into the view.  Anything else, and
    non-finite values, raise ``ValidationError`` naming where they sit.
    """
    doc = jsonio.load_path(path)
    if doc.get("format") != PARAMS_FORMAT:
        raise ValidationError(f"unsupported format {doc.get('format')!r}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(f"unknown params kind {kind!r}")
    raw = jsonio.exact_keys("spec", doc.get("spec"), ("L", "n", "d"))
    spec = WeightSpec(raw["L"], raw["n"], raw["d"])
    e = _count("output channel count e", doc.get("e"))
    if kind == "equivariant":
        values = _equivariant_buffers(spec, e)[0]
    else:
        values = _invariant_buffers(spec, e, _count("output width d_out", doc.get("d_out")))[0]
    psi = _built(PsiParams, {"spec": spec, **_psi_buffers(spec)[1]})
    params = _built(_KINDS[kind], {"spec": spec, "psi": psi, **values})
    _fill("", _document(params), doc)
    return params
