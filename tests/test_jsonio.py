"""The array emitter writes the same bytes as formatting one float at a time,
and the writers refuse non-finite values before touching the file system."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from magep import fitting, jsonio, layers, weightspace
from magep.dense import Rng
from magep.errors import ValidationError
from magep.weightspace import WeightSpec, random_weights

SPEC = WeightSpec(3, (2, 3, 2, 2), 2)


def _reference_fmt(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} cannot be serialized")
    return format(x, ".17g")


def _reference_emit(value) -> str:
    """The emitter as it was before arrays were formatted in one call."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _reference_fmt(float(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        return _reference_emit(value.tolist())
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_reference_emit(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (json.dumps(str(k)) + ":" + _reference_emit(v) for k, v in value.items())
        return "{" + ",".join(items) + "}"
    raise ValidationError(f"cannot serialize value of type {type(value).__name__}")


EDGES = [
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308, 1e16, 1e17, 1e22, 1.0, -3.0, 2.0**53, 0.1, 1e-300, 1e300,
]


def _from_bits(b: int) -> float:
    return float(np.uint64(b).view(np.float64))


FINITE = st.one_of(
    st.integers(0, 2**64 - 1).map(_from_bits).filter(math.isfinite),
    st.sampled_from(EDGES),
    st.floats(allow_nan=False, allow_infinity=False),
)
SHAPES = st.one_of(
    hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4).map(lambda s: (1,) + s),
)


@st.composite
def float_arrays(draw):
    a = draw(hnp.arrays(np.float64, SHAPES, elements=FINITE))
    view = draw(st.sampled_from(["as-is", "T", "step", "rows"]))
    if view == "T":
        a = a.T
    elif view == "step" and a.ndim:
        a = a[::2]
    elif view == "rows" and a.ndim:
        lo = draw(st.integers(0, a.shape[0]))
        a = a[lo:draw(st.integers(lo, a.shape[0]))]
    if draw(st.booleans()) and np.all(np.abs(a) < 3e38):
        a = a.astype(np.float32)
    return a


OTHER_ARRAYS = st.one_of(
    hnp.arrays(np.bool_, SHAPES),
    hnp.arrays(np.int64, SHAPES, elements=st.integers(-(2**62), 2**62)),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(float_arrays(), OTHER_ARRAYS))
def test_dumps_matches_reference_and_round_trips(a):
    doc = {"a": a, "b": [a, 1, None]}
    text = jsonio.dumps(doc)
    assert text == _reference_emit(doc)
    back = np.asarray(json.loads(text)["a"], dtype=np.float64)
    # "%.17g" writes -0.0 as "-0", which JSON reads as the integer 0, so a
    # reload gives +0.0: the one value whose bits do not survive.
    want = a.astype(np.float64) + 0.0
    if 0 in want.shape:  # JSON keeps no axis after a zero-length one: "[]"
        want = want.reshape(want.shape[: want.shape.index(0) + 1])
    assert back.shape == want.shape
    assert np.array_equal(back.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("lo, hi", [(0, 1), (1, 3), (2, 2)])
def test_row_views_match_reference(lo, hi):
    U = random_weights(SPEC, Rng(8), batch=4).rows(lo, hi)
    doc = {"W": list(U.W), "b": list(U.b)}
    assert jsonio.dumps(doc) == _reference_emit(doc)


def _save_weights(bad, path):
    U = random_weights(SPEC, Rng(1), batch=2)
    U.W[2][1, 0, 1] = bad
    weightspace.save(U, path)


def _save_equivariant(bad, path):
    params = layers.init_equivariant(SPEC, 2, Rng(2))
    params.phib_L_Wb[2][0, 1, 1, 0] = bad
    layers.save_params(params, path)


def _save_invariant(bad, path):
    params = layers.init_invariant(SPEC, 2, 3, Rng(3))
    params.psi.ww[(2, 1)][1, 0] = bad
    layers.save_params(params, path)


def _save_fit(bad, path):
    phi = Rng(4).uniform(-1.0, 1.0, (5, 2))
    phi[3, 1] = bad
    fitting.save_fit(fitting.FitResult(phi, 1e-3, 0.5, 0.25), path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("save", [_save_weights, _save_equivariant, _save_invariant, _save_fit])
def test_writers_refuse_non_finite_and_leave_no_file(tmp_path, save, bad):
    path = tmp_path / "out.json"
    with pytest.raises(ValidationError, match=re.escape(f"non-finite value {bad!r} cannot be serialized")):
        save(bad, path)
    assert not path.exists()
