import copy
import pickle

import numpy as np
import pytest

from magep.dense import Rng
from magep.errors import ParseError, ValidationError
from magep.fitting import FitDataset
from magep.weightspace import (
    STACK_BLOCK,
    Gaussian,
    Uniform,
    WeightObject,
    WeightSpec,
    dim,
    load,
    random_weights,
    save,
    stack_blocks,
)

# The probe-fit spec, and a d=2 spec with unequal widths.
PROBE = WeightSpec(4, (4, 16, 16, 16, 4), 1)
CHANNELS = WeightSpec(3, (2, 3, 1, 2), 2)


def test_dim_hand_values():
    assert dim(WeightSpec(2, (2, 3, 2), 1)) == 17
    assert dim(WeightSpec(2, (1, 1, 1), 1)) == 4
    assert dim(WeightSpec(2, (1, 2, 1), 1)) == 7


def test_dim_linear_in_channels():
    for n in [(2, 3, 2), (1, 4, 2, 3)]:
        L = len(n) - 1
        assert dim(WeightSpec(L, n, 2)) == 2 * dim(WeightSpec(L, n, 1))


def test_dim_counts_entries():
    spec = WeightSpec(3, (2, 3, 1, 2), d=2)
    obj = random_weights(spec, Rng(0))
    total = sum(w.size for w in obj.W) + sum(b.size for b in obj.b)
    assert total == dim(spec)


def test_spec_validation():
    with pytest.raises(ValidationError):
        WeightSpec(1, (1, 1), 1)  # L = 1 rejected
    with pytest.raises(ValidationError):
        WeightSpec(2, (1, 0, 1), 1)
    with pytest.raises(ValidationError):
        WeightSpec(2, (1, 1, 1), 0)
    with pytest.raises(ValidationError):
        WeightSpec(2, (1, 1), 1)  # wrong width count


def test_random_weights_degenerate_uniform_is_zero():
    spec = WeightSpec(2, (1, 2, 1), 1)
    obj = random_weights(spec, Rng(5), Uniform(0.0, 0.0))
    assert all(np.all(w == 0.0) for w in obj.W)
    assert all(np.all(b == 0.0) for b in obj.b)


def test_random_weights_deterministic():
    spec = WeightSpec(3, (2, 2, 2, 2), 2)
    a = random_weights(spec, Rng(17), Gaussian(0.0, 1.0), batch=3)
    b = random_weights(spec, Rng(17), Gaussian(0.0, 1.0), batch=3)
    assert a.equal(b)


def test_dist_validation():
    with pytest.raises(ValidationError):
        Uniform(1.0, -1.0)
    with pytest.raises(ValidationError):
        Gaussian(0.0, 0.0)


def test_batched_shapes():
    spec = WeightSpec(2, (2, 3, 2), 1)
    obj = random_weights(spec, Rng(0), batch=4)
    assert obj.weight(1).shape == (4, 1, 3, 2)
    assert obj.bias(2).shape == (4, 1, 2)


def test_save_load_round_trip_bit_exact(tmp_path):
    spec = WeightSpec(3, (2, 3, 1, 2), d=2)
    obj = random_weights(spec, Rng(99), Uniform(-1.0, 1.0))
    path = tmp_path / "obj.mgw.json"
    save(obj, path)
    spec2, obj2 = load(path)
    assert spec2 == spec
    assert obj2.equal(obj)


def test_save_load_round_trip_batched(tmp_path):
    spec = WeightSpec(2, (1, 4, 2), d=1)
    obj = random_weights(spec, Rng(3), Gaussian(0.0, 2.0), batch=3)
    path = tmp_path / "obj.mgw.json"
    save(obj, path)
    _, obj2 = load(path)
    assert obj2.equal(obj)


def test_save_writes_keys_in_contract_order(tmp_path):
    spec = WeightSpec(2, (1, 1, 1), 1)
    path = tmp_path / "o.mgw.json"
    save(WeightObject.zeros(spec), path)
    text = path.read_text()
    order = [text.index(f'"{k}"') for k in ("format", "L", "n", "d", "batch", "W", "b")]
    assert order == sorted(order)
    assert '"magep-weights/1"' in text


def test_load_rejects_zero_width(tmp_path):
    path = tmp_path / "bad.mgw.json"
    path.write_text(
        '{"format":"magep-weights/1","L":2,"n":[1,0,1],"d":1,"batch":null,'
        '"W":[[[[0]]],[[[0]]]],"b":[[[0]],[[0]]]}'
    )
    with pytest.raises(ValidationError, match="widths"):
        load(path)


def test_load_truncated_payload_reports_offset(tmp_path):
    spec = WeightSpec(2, (1, 2, 1), 1)
    path = tmp_path / "t.mgw.json"
    save(random_weights(spec, Rng(1)), path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ParseError) as err:
        load(path)
    assert err.value.offset is not None


def test_load_rejects_unknown_keys(tmp_path):
    spec = WeightSpec(2, (1, 1, 1), 1)
    path = tmp_path / "u.mgw.json"
    save(WeightObject.zeros(spec), path)
    doc = path.read_text().rstrip()
    path.write_text(doc[:-1] + ',"extra":1}')
    with pytest.raises(ValidationError, match="unknown top-level keys"):
        load(path)


def test_load_rejects_wrong_shape(tmp_path):
    path = tmp_path / "s.mgw.json"
    path.write_text(
        '{"format":"magep-weights/1","L":2,"n":[1,1,1],"d":1,"batch":null,'
        '"W":[[[[0,0]]],[[[0]]]],"b":[[[0]],[[0]]]}'
    )
    with pytest.raises(ValidationError, match="shape"):
        load(path)


def test_weight_object_shape_validation():
    spec = WeightSpec(2, (1, 2, 1), 1)
    with pytest.raises(ValidationError):
        WeightObject(
            spec,
            (np.zeros((1, 2, 1)), np.zeros((1, 2, 2))),  # layer 2 wrong
            (np.zeros((1, 2)), np.zeros((1, 1))),
        )


def test_rows_are_views_of_a_batched_object():
    spec = WeightSpec(2, (2, 3, 1), 2)
    U = random_weights(spec, Rng(4), Uniform(-1.0, 1.0), batch=5)
    part = U.rows(3, 8)  # clipped at the batch end
    assert part.batch == 2
    for i in range(1, spec.L + 1):
        assert np.array_equal(part.weight(i), U.weight(i)[3:])
        assert np.shares_memory(part.bias(i), U.bias(i))
    unbatched = random_weights(spec, Rng(4), Uniform(-1.0, 1.0))
    with pytest.raises(ValidationError):
        unbatched.rows(0, 1)


def test_spec_coerces_integer_fields():
    spec = WeightSpec(np.int64(2), np.array([1, 2, 1]), np.int32(1))
    assert spec == WeightSpec(2, (1, 2, 1), 1)
    assert all(type(v) is int for v in (spec.L, spec.d, *spec.n))
    for bad in [{"L": 2.0}, {"n": (1, 2.5, 1)}, {"n": 3}, {"d": "1"}, {"d": True}]:
        with pytest.raises(ValidationError, match="integer|sequence"):
            WeightSpec(**{"L": 2, "n": (1, 2, 1), "d": 1, **bad})


def test_unbatched_tensors_are_views_of_one_vector():
    U = random_weights(CHANNELS, Rng(6))
    assert U.flat.shape == (dim(CHANNELS),) and U.flat.flags.c_contiguous
    parts = U.W + U.b
    assert all(np.shares_memory(a, U.flat) for a in parts)
    assert np.array_equal(np.concatenate([a.ravel() for a in parts]), U.flat)
    U.flat[-1] = 7.5  # the last entry of b^L
    assert U.bias(CHANNELS.L)[-1, -1] == 7.5
    U.weight(2)[1, 0, 2] = -3.0
    start = np.prod(CHANNELS.weight_shape(1))
    assert U.flat[start + np.ravel_multi_index((1, 0, 2), CHANNELS.weight_shape(2))] == -3.0
    assert random_weights(CHANNELS, Rng(6), batch=2).flat is None


def test_construction_copies_the_given_tensors():
    W = [np.ones(CHANNELS.weight_shape(i)) for i in range(1, CHANNELS.L + 1)]
    b = [np.ones(CHANNELS.bias_shape(i)) for i in range(1, CHANNELS.L + 1)]
    U = WeightObject(CHANNELS, W, b)
    W[0][...] = 5.0
    b[2][...] = 5.0
    assert np.all(U.flat == 1.0)
    assert not any(np.shares_memory(a, c) for a, c in zip(U.W + U.b, W + b))
    # Derived objects own fresh vectors too.
    for V in (U.map(lambda a: a), WeightObject.zeros(CHANNELS)):
        assert not np.shares_memory(V.flat, U.flat)


@pytest.mark.parametrize("batch", [None, 2])
def test_copies_keep_their_own_vector(batch):
    U = random_weights(CHANNELS, Rng(3), batch=batch)
    for V in (copy.copy(U), copy.deepcopy(U), pickle.loads(pickle.dumps(U))):
        assert V.equal(U)
        if batch is None:
            assert all(np.shares_memory(a, V.flat) for a in V.W + V.b)
            assert not np.shares_memory(V.flat, U.flat)


def test_map_keeps_shapes():
    U = random_weights(CHANNELS, Rng(2))
    assert U.map(np.negative).equal(WeightObject(CHANNELS, [-w for w in U.W], [-v for v in U.b]))
    with pytest.raises(ValidationError, match="shape"):
        U.map(lambda a: a.ravel())


def _reference_stack(rows):
    """Per-layer ``np.stack``, the way blocks were built before flat vectors."""
    return [np.stack(layer) for layer in zip(*(u.W + u.b for u in rows))]


@pytest.mark.parametrize("spec", [PROBE, CHANNELS], ids=["probe", "d2"])
def test_stack_blocks_equals_per_layer_stack(spec):
    objects = [random_weights(spec, Rng(9).child(k)) for k in range(2 * STACK_BLOCK + 1)]
    blocks = list(stack_blocks(objects))
    assert [blk.batch for blk in blocks] == [STACK_BLOCK, STACK_BLOCK, 1]
    for j, blk in enumerate(blocks):
        want = _reference_stack(objects[j * STACK_BLOCK : (j + 1) * STACK_BLOCK])
        for got, ref in zip(blk.W + blk.b, want):
            assert got.flags.c_contiguous and got.dtype == np.float64
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_equal_specs_need_not_be_identical():
    twin = WeightSpec(CHANNELS.L, list(CHANNELS.n), CHANNELS.d)
    assert twin == CHANNELS and twin is not CHANNELS
    objects = [random_weights(CHANNELS, Rng(1)), random_weights(twin, Rng(2))]
    (block,) = stack_blocks(objects)
    assert block.batch == 2
    assert len(FitDataset(objects, np.zeros(2))) == 2

    other = random_weights(WeightSpec(3, (2, 3, 2, 2), 2), Rng(3))
    with pytest.raises(ValidationError, match="one spec"):
        list(stack_blocks(objects + [other]))
    with pytest.raises(ValidationError, match="spec-homogeneous"):
        FitDataset(objects + [other], np.zeros(3))
    batched = random_weights(CHANNELS, Rng(4), batch=1)
    with pytest.raises(ValidationError, match="unbatched"):
        list(stack_blocks(objects + [batched]))
