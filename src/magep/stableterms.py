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
``n_0 x n_L`` matrix, both shared across channels.  :class:`PsiParams`
holds each family in one buffer, its entries read-only mappings of views
into it, and is declared like the layers' coefficient blocks: its
constructor checks the given entries and copies them into the views by the
block machinery defined here.

:func:`all_terms` is the one evaluator of every family at every index pair;
the stability suite, the oracle's rank reports and the tests read it.
:func:`featurize` evaluates only the invariant scalars the invariant layer
and the ridge fit read, from the L suffix chains ``[W]^(L,t)``, which the
equivariant layer shares.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, fields
from functools import cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .dense import Rng, tensor
from .errors import ValidationError
from .weightspace import WeightObject, WeightSpec

__all__ = [
    "FEATURE_ORDER_VERSION",
    "PsiParams",
    "StableTermSet",
    "w_indices",
    "wb_indices",
    "psi_indices",
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


class _Decl(NamedTuple):
    """A block field's declaration: its fan-in lookup, whether it is a table
    over layers, and its file slot."""

    fan_of: Callable | None
    table: bool
    slot: tuple[str, str] | None


def _block(fan: str | None, table: bool = False, slot: str | None = None):
    """Declare a coefficient block field.

    ``fan`` names the factors of the block's fan-in, the input scalars
    summed into one output scalar, besides the channel count ``d`` (``None``
    for a pure bias).  The factors are ``n0``, ``nL``, ``nk`` (the width of
    a table entry's layer ``k``) and ``1``.  ``table`` makes the block a
    table over layers, or over pairs of layers.  The block's shape, and a
    table's keys, are those of its view of its buffer.  ``slot`` is the
    ``group.key`` an interior block is saved under.
    """
    fan_of = None if fan is None else operator.itemgetter("d", *fan.split())
    return field(metadata={"block": _Decl(fan_of, table, slot and tuple(slot.split(".")))})


@cache
def _declared(cls) -> tuple[tuple[str, _Decl], ...]:
    """``(name, declaration)`` of every block field of ``cls``, in field order."""
    return tuple((f.name, f.metadata["block"]) for f in fields(cls) if "block" in f.metadata)


def _cells(decl: _Decl, value):
    """``(key, entry)`` of every entry of a table, or ``(None, value)``."""
    return value.items() if decl.table else ((None, value),)


def _checked(cls, obj, views: dict, where: str = "") -> None:
    """Check each block of ``obj``, in field order, against the shape and
    keys of its view, and copy it into the view."""
    for name, decl in _declared(cls):
        value, view, label = getattr(obj, name), views[name], where + name
        if decl.table and not (isinstance(value, Mapping) and value.keys() == view.keys()):
            raise ValidationError(f"{label} must be keyed by layers {tuple(view)}")
        for k, cell in _cells(decl, view):
            at = label + ("" if k is None else f"[{k}]")
            try:
                arr = tensor(value if k is None else value[k])
            except (TypeError, ValueError):
                raise ValidationError(f"{at} is not a numeric array") from None
            if arr.shape != cell.shape:
                raise ValidationError(f"{at} has shape {arr.shape}, expected {cell.shape}")
            cell[...] = arr


# A run of blocks that :func:`_draw` fills from one ``random`` call holds fewer
# entries.  A run the size of a whole layer raised deep-forward peak RSS 36%.
RUN_CAP = 4096


def _draw(cls, rng: Rng, spec: WeightSpec, views: dict, scale: float) -> None:
    """Fill the view of every block of ``cls`` with uniform(-a, a), ``a =
    scale / sqrt(d * fan)``, in field order, a table's entries in ascending
    key order.

    Runs of consecutive blocks, under ``RUN_CAP`` entries in all, take one
    ``rng.random`` call scaled as ``-a + (a + a) u``, the arithmetic of
    ``rng.uniform(-a, a)``: every entry is bit-equal to one ``uniform`` call
    per block.  Larger blocks, and ``a == 0`` ones (``-0.0``, no draw), are
    drawn alone."""
    sizes = {"1": 1, "d": spec.d, "n0": spec.n[0], "nL": spec.n[-1]}
    run, held = [], 0
    for name, decl in _declared(cls):
        for k, cell in _cells(decl, views[name]):
            if k is not None:
                sizes["nk"] = spec.n[k]
            a = scale if decl.fan_of is None else scale / math.sqrt(math.prod(decl.fan_of(sizes)))
            alone = a == 0.0 or cell.size >= RUN_CAP
            if alone or held + cell.size >= RUN_CAP:
                _fill(rng, run, held)
                run, held = [], 0
            if alone:
                cell[...] = rng.uniform(-a, a, cell.shape)
            else:
                run.append((cell, a))
                held += cell.size
    _fill(rng, run, held)


def _fill(rng: Rng, run: list, held: int) -> None:
    """Draw the ``held`` entries of a run of blocks ``(cell, a)`` at once."""
    if run:
        a = np.repeat([scale for _, scale in run], [cell.size for cell, _ in run])
        u, at = -a + (a + a) * rng.random(held), 0
        for cell, _ in run:
            cell[...] = u[at:at + cell.size].reshape(cell.shape)
            at += cell.size


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


def _empty(*shape: int) -> np.ndarray:
    """``np.empty(shape)``; a shape too large to allocate raises ``ValidationError``."""
    try:
        return np.empty(shape)
    except (MemoryError, ValueError):
        raise ValidationError(f"layer sizes too large: no buffer of shape {shape}") from None


def _is_spec(spec) -> WeightSpec:
    """``spec`` if it is a :class:`WeightSpec`; anything else raises ``ValidationError``."""
    if not isinstance(spec, WeightSpec):
        raise ValidationError(f"spec must be a WeightSpec, got {type(spec).__name__}")
    return spec


@dataclass(frozen=True, eq=False)
class PsiParams(_Rebuilt):
    """Connection matrices for the ``[bW]`` and ``[WW]`` families.

    ``bw[(s, t)]`` has shape ``[1, n_L]`` and ``ww[(s, t)]`` shape
    ``[n_0, n_L]``, for every pair in :func:`psi_indices`.  Each entry is a
    view of its family's buffer, ``[L^2, 1, n_L]`` or ``[L^2, n_0, n_L]``,
    laid out in :func:`psi_indices` order by :func:`_psi_buffers`; the
    tables are read-only mappings.  The constructor checks the given
    entries against the views and copies them in.
    """

    spec: WeightSpec
    bw: Mapping[tuple[int, int], np.ndarray] = _block(None, table=True)
    ww: Mapping[tuple[int, int], np.ndarray] = _block(None, table=True)

    def __post_init__(self):
        views = _psi_buffers(_is_spec(self.spec))[1]
        _checked(PsiParams, self, views)
        _assign(self, views)

    @classmethod
    def random(cls, spec: WeightSpec, rng: Rng) -> "PsiParams":
        """I.i.d. uniform(-1, 1) entries; the default (frozen) initialization.
        Each buffer, ``bw`` then ``ww``, is one draw: its rows are the entries
        in :func:`psi_indices` order, as if each entry were drawn in turn."""
        buffers, views = _psi_buffers(_is_spec(spec))
        for buf in buffers:
            buf[...] = rng.uniform(-1.0, 1.0, buf.shape)
        return _built(cls, {"spec": spec, **views})


def _psi_buffers(spec: WeightSpec) -> tuple[tuple[np.ndarray, np.ndarray], dict]:
    """``((bw, ww), fields)``: the ``[L^2, 1, n_L]`` and ``[L^2, n_0, n_L]``
    buffers of Psi, and its fields ``bw`` and ``ww``, read-only mappings of
    their rows keyed in :func:`psi_indices` order."""
    keys, n0, nL = psi_indices(spec.L), spec.n[0], spec.n[-1]
    bw, ww = _empty(len(keys), 1, nL), _empty(len(keys), n0, nL)
    return (bw, ww), _fields({"bw": dict(zip(keys, bw)), "ww": dict(zip(keys, ww))})


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


def _check_psi_fits(spec: WeightSpec, psi: PsiParams) -> None:
    if not isinstance(psi, PsiParams):
        raise ValidationError(f"psi must be PsiParams, got {type(psi).__name__}")
    if psi.spec.n != spec.n or psi.spec.L != spec.L:
        raise ValidationError("psi was built for a different architecture")


def _w_chains(U: WeightObject) -> dict[tuple[int, int], np.ndarray]:
    """``[W]^(s,t)`` at every pair of :func:`w_indices`, by the recursion
    ``[W]^(s,t) = W^(s) [W]^(s-1,t)`` from ``[W]^(t+1,t) = W^(t+1)``:
    O(L^2) matrix products in total."""
    L = U.spec.L
    chains: dict[tuple[int, int], np.ndarray] = {}
    for t in range(L):
        chains[(t + 1, t)] = U.weight(t + 1)
        for s in range(t + 2, L + 1):
            chains[(s, t)] = np.matmul(U.weight(s), chains[(s - 1, t)])
    return chains


def all_terms(U: WeightObject, psi: PsiParams) -> StableTermSet:
    """Evaluate every family at every feasible index pair, from the chains
    of :func:`_w_chains`."""
    spec = U.spec
    _check_psi_fits(spec, psi)
    L = spec.L
    chains = _w_chains(U)
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
# :func:`featurize`), each with the shape of one entry and whether it has
# one entry per hidden layer.  A per-layer part lists its entries for layers
# L-1 down to 1 in turn.  The layers name their packed blocks by these part
# names and shape them from this table.
_FEATURE_PARTS = (
    ("WWLL", lambda spec: (spec.n[-1], spec.n[0]), False),  # [WW]^(L,0)(L,0)
    ("WL0", lambda spec: (spec.n[-1], spec.n[0]), False),  # [W]^(L,0)
    ("trWW", lambda spec: (), True),  # tr [WW]^(s,0)(L,s)
    ("bWLL0", lambda spec: (spec.n[-1], spec.n[0]), False),  # [bW]^(L)(L,0)
    ("Wb", lambda spec: (spec.n[-1],), True),  # [Wb]^(L,t)(t)
    ("trbW", lambda spec: (), True),  # tr [bW]^(t)(L,t)
    ("b", lambda spec: (spec.n[-1],), False),  # [b]^(L)
)


def feature_count(spec: WeightSpec) -> int:
    """Number of invariant features, the trailing constant included."""
    hidden = spec.L - 1
    per_channel = sum(
        math.prod(shape(spec)) * (hidden if per_layer else 1)
        for _, shape, per_layer in _FEATURE_PARTS
    )
    return spec.d * per_channel + 1


def _suffix(U: WeightObject) -> dict[int, np.ndarray]:
    """Suffix chains ``t -> [W]^(L,t)``, t = 0..L-1: L-1 products."""
    L = U.spec.L
    suffix = {L - 1: U.weight(L)}
    for t in range(L - 2, -1, -1):
        suffix[t] = np.matmul(suffix[t + 1], U.weight(t + 1))
    return suffix


def featurize(U: WeightObject, psi: PsiParams) -> np.ndarray:
    """Invariant feature vector of ``U``: ``[F]``, or ``[B, F]`` when batched.

    Canonical order (``magep-feat/1``), for each channel c = 1..d:
    (1) ``[WW]^(L,0)(L,0)`` row-major, (2) ``[W]^(L,0)``, (3) traces of
    ``[WW]^(s,0)(L,s)`` for s = L-1..1, (4) ``[bW]^(L)(L,0)``,
    (5) ``[Wb]^(L,t)(t)`` for t = L-1..1, (6) traces of ``[bW]^(t)(L,t)``
    for t = L-1..1, (7) ``[b]^(L)``; then one trailing constant 1.

    Only the suffix chains ``[W]^(L,t)`` are formed, L-1 products.  The
    traces never form their square products.  The trace is cyclic, so
    ``tr [WW]^(s,0)(L,s) = tr(Psi^(s,s) [W]^(L,0))``: all of them are one
    product of the flat ``[W]^(L,0)`` with the diagonal blocks of Psi,
    stacked afresh on each call.  ``tr [bW]^(t)(L,t)`` is ``psi .
    [Wb]^(L,t)(t)``.
    """
    _check_psi_fits(U.spec, psi)
    return _features(U, psi, _suffix(U))


def _features(U: WeightObject, psi: PsiParams, suffix) -> np.ndarray:
    """:func:`featurize` on suffix chains already built by :func:`_suffix`."""
    spec, L, full = U.spec, U.spec.L, suffix[0]
    hidden = range(L - 1, 0, -1)  # the per-layer order of _FEATURE_PARTS
    wb = [np.matmul(suffix[t], U.bias(t)[..., None])[..., 0] for t in hidden]
    b_last = U.bias(L)
    flat = lambda m: m.reshape(m.shape[:-2] + (-1,))
    # tr [WW]^(s,0)(L,s) = sum_ij Psi^(s,s)_ij [W]^(L,0)_ji: [W]^(L,0) flat
    # times each Psi^(s,s) transposed and flat.
    psi_t = np.stack([psi.ww[(s, s)].T for s in hidden]).reshape(L - 1, -1)
    parts = dict(
        WWLL=flat(np.matmul(np.matmul(full, psi.ww[(L, 0)]), full)),
        WL0=flat(full),
        trWW=np.matmul(flat(full), psi_t.T),
        bWLL0=flat(b_last[..., :, None] * np.matmul(psi.bw[(L, 0)][0], full)[..., None, :]),
        Wb=np.concatenate(wb, axis=-1),
        trbW=np.stack([np.matmul(v, psi.bw[(t, t)][0]) for t, v in zip(hidden, wb)], axis=-1),
        b=b_last,
    )
    lead = b_last.shape[:-2]
    out = np.empty(lead + (feature_count(spec),))
    # The parts are written straight into the flat result, one copy.
    body = out[..., :-1].reshape(lead + (spec.d, -1), copy=False)
    np.concatenate([parts[name] for name, *_ in _FEATURE_PARTS], axis=-1, out=body)
    out[..., -1] = 1.0
    return out
