"""Deterministic JSON writing and strict reading for the package's file
formats.

Documents are emitted with keys in exactly the order they appear in the
source mapping, and every float is printed with 17 significant digits so
that a write/read cycle reproduces each 64-bit value bit-exactly.  Each
float array is formatted by one ``%`` call with a ``%.17g`` template nested
to its shape; ``"%.17g" % x`` and ``format(x, ".17g")`` are one CPython
conversion, so the bytes equal those of formatting one float at a time.

Reading rejects ``NaN``/``Infinity`` tokens and an object that repeats a
key, which JSON itself would resolve silently to the last value.  It reads
the token ``-0``, which ``%.17g`` writes for ``-0.0``, as the float
``-0.0``, so the sign of zero survives a write/read cycle too.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

__all__ = ["dumps", "dump_path", "load_path", "loads", "exact_keys", "finite"]


def _non_finite(x: float) -> ValidationError:
    return ValidationError(f"non-finite value {x!r} cannot be serialized")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise _non_finite(x)
    return format(x, ".17g")


def _array_template(shape) -> str:
    """``"[%.17g,...]"`` nested to ``shape``, one ``%.17g`` per entry."""
    fmt = "%.17g"
    for size in reversed(shape):
        fmt = "[" + ",".join([fmt] * size) + "]"
    return fmt


def _emit_floats(a: np.ndarray) -> str:
    flat = a.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise _non_finite(float(flat[finite.argmin()]))
    return _array_template(a.shape) % tuple(flat.tolist())


def _emit(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        # float16/32/64 widen to a Python float exactly; longdouble would round.
        if value.dtype.kind == "f" and value.itemsize <= 8:
            return _emit_floats(value)
        return _emit(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_emit(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (json.dumps(str(k)) + ":" + _emit(v) for k, v in value.items())
        return "{" + ",".join(items) + "}"
    raise ValidationError(f"cannot serialize value of type {type(value).__name__}")


def dumps(doc: dict) -> str:
    return _emit(doc)


def dump_path(doc: dict, path) -> None:
    Path(path).write_text(_emit(doc) + "\n", encoding="utf-8")


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token} is not valid JSON")


def _parse_int(token: str):
    # JSON reads "-0" as the integer 0, which would drop the sign of -0.0.
    return -0.0 if token == "-0" else int(token)


def _unique_keys(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r} in a JSON object")
        seen.add(key)
    return dict(pairs)


def loads(text: str) -> dict:
    """Parse one JSON object; ``NaN`` and ``Infinity`` tokens and repeated
    keys in one object are rejected, and ``-0`` reads as ``-0.0``.

    Numbers too large for a float (``1e999``) still parse, to ``inf``; the
    loaders reject them with one ``isfinite`` check per array.
    """
    try:
        doc = json.loads(
            text,
            parse_int=_parse_int,
            parse_constant=_reject_constant,
            object_pairs_hook=_unique_keys,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc.msg}", offset=exc.pos) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level JSON value is not an object", offset=0)
    return doc


def load_path(path) -> dict:
    return loads(Path(path).read_text(encoding="utf-8"))


def exact_keys(where: str, value, keys) -> dict:
    """``value`` if it is an object with exactly ``keys``; otherwise a
    ``ValidationError`` naming ``where`` and the unknown or missing keys, an
    unknown key cut to 40 characters and ``…``."""
    if not isinstance(value, dict):
        raise ValidationError(f"{where} must be an object with the keys {list(keys)}")
    unknown = value.keys() - set(keys)
    if unknown:
        shown = [k[:40] + "…" if len(k) > 40 else k for k in sorted(unknown)]
        raise ValidationError(f"unknown {where} keys: {shown}")
    missing = set(keys) - value.keys()
    if missing:
        raise ValidationError(f"missing {where} keys: {sorted(missing)}")
    return value


def _leaf_types(value, depth: int) -> set:
    """The types of the leaves of nested lists ``depth`` levels deep."""
    leaves = [value]
    for _ in range(depth):
        leaves = chain.from_iterable(leaves)
    return set(map(type, leaves))


def finite(name: str, value, shape=None) -> np.ndarray:
    """``value`` as a float64 array.  Anything but nested lists of finite
    JSON numbers, of ``shape`` when given, raises a ``ValidationError``
    naming ``name``."""
    try:
        arr = np.asarray(value, dtype=np.float64)
        # JSON true/false and numeric strings would convert silently.
        if shape not in (None, arr.shape) or not _leaf_types(value, arr.ndim) <= {int, float}:
            raise TypeError
    except (TypeError, ValueError, OverflowError) as exc:
        what = "a numeric array" if shape is None else f"a numeric array of shape {shape}"
        raise ValidationError(f"{name} is not {what}") from exc
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} holds a non-finite value")
    return arr
