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
    map_blocks,
    random_weights,
    save,
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
    for lo, hi in [(1.0, -1.0), (np.nan, 1.0), (-1.0, np.inf), (-np.inf, 1.0)]:
        with pytest.raises(ValidationError):
            Uniform(lo, hi)
    for mean, std in [(0.0, 0.0), (0.0, np.nan), (0.0, np.inf), (np.nan, 1.0), (np.inf, 1.0)]:
        with pytest.raises(ValidationError):
            Gaussian(mean, std)


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
    assert part.flat.base is U.flat and part.flat.shape == (2, dim(spec))
    for i in range(1, spec.L + 1):
        assert np.array_equal(part.weight(i), U.weight(i)[3:])
        assert np.shares_memory(part.bias(i), U.flat)
    empty = U.rows(5, 5)
    assert empty.batch == 0 and empty.weight(1).shape == (0,) + spec.weight_shape(1)
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


BATCHES = pytest.mark.parametrize("batch", [None, 1, 3])


def _lead(batch):
    return () if batch is None else (batch,)


@BATCHES
def test_tensors_are_views_of_one_flat_array(batch):
    U = random_weights(CHANNELS, Rng(6), batch=batch)
    lead = _lead(batch)
    assert U.flat.shape == lead + (dim(CHANNELS),) and U.flat.flags.c_contiguous
    assert U.flat.dtype == np.float64
    parts = U.W + U.b
    assert all(np.shares_memory(a, U.flat) for a in parts)
    rows = [a.reshape(lead + (-1,)) for a in parts]
    assert np.array_equal(np.concatenate(rows, axis=-1), U.flat)
    U.flat[..., -1] = 7.5  # the last entry of b^L
    assert np.all(U.bias(CHANNELS.L)[..., -1, -1] == 7.5)
    U.weight(2)[..., 1, 0, 2] = -3.0
    start = np.prod(CHANNELS.weight_shape(1))
    at = start + np.ravel_multi_index((1, 0, 2), CHANNELS.weight_shape(2))
    assert np.all(U.flat[..., at] == -3.0)


@BATCHES
def test_construction_copies_the_given_tensors(batch):
    lead = _lead(batch)
    W = [np.ones(lead + CHANNELS.weight_shape(i)) for i in range(1, CHANNELS.L + 1)]
    b = [np.ones(lead + CHANNELS.bias_shape(i)) for i in range(1, CHANNELS.L + 1)]
    U = WeightObject(CHANNELS, W, b, batch)
    W[0][...] = 5.0
    b[2][...] = 5.0
    assert np.all(U.flat == 1.0)
    assert not any(np.shares_memory(a, c) for a, c in zip(U.W + U.b, W + b))
    # Derived objects own fresh arrays too.
    for V in (U.map(lambda a: a), WeightObject.zeros(CHANNELS, batch)):
        assert V.flat.shape == U.flat.shape and V.flat.flags.c_contiguous
        assert not np.shares_memory(V.flat, U.flat)


@BATCHES
def test_copies_keep_their_own_array(batch):
    U = random_weights(CHANNELS, Rng(3), batch=batch)
    for V in (copy.copy(U), copy.deepcopy(U), pickle.loads(pickle.dumps(U))):
        assert V.equal(U)
        assert all(np.shares_memory(a, V.flat) for a in V.W + V.b)
        assert not np.shares_memory(V.flat, U.flat)


@pytest.mark.parametrize("bad", [0, -1, True, 2.0, "2"])
def test_batch_must_be_a_positive_integer(bad):
    W = [np.zeros(CHANNELS.weight_shape(i)) for i in range(1, CHANNELS.L + 1)]
    b = [np.zeros(CHANNELS.bias_shape(i)) for i in range(1, CHANNELS.L + 1)]
    with pytest.raises(ValidationError, match="batch must be an integer >= 1"):
        WeightObject(CHANNELS, W, b, bad)
    with pytest.raises(ValidationError, match="batch must be an integer >= 1"):
        random_weights(CHANNELS, Rng(0), batch=bad)
    with pytest.raises(ValidationError, match="batch must be an integer >= 1"):
        WeightObject.zeros(CHANNELS, bad)
    assert random_weights(CHANNELS, Rng(0), batch=np.int64(2)).batch == 2


def test_map_keeps_shapes():
    U = random_weights(CHANNELS, Rng(2))
    assert U.map(np.negative).equal(WeightObject(CHANNELS, [-w for w in U.W], [-v for v in U.b]))
    with pytest.raises(ValidationError, match="shape"):
        U.map(lambda a: a.ravel())


def _reference_stack(rows):
    """Per-layer ``np.stack``, the way blocks were built before flat vectors."""
    return [np.stack(layer) for layer in zip(*(u.W + u.b for u in rows))]


@pytest.mark.parametrize("spec", [PROBE, CHANNELS], ids=["probe", "d2"])
def test_map_blocks_equals_per_layer_stack(spec):
    objects = [random_weights(spec, Rng(9).child(k)) for k in range(2 * STACK_BLOCK + 1)]
    sizes = []

    def compare(blk):
        lo = sum(sizes)
        want = _reference_stack(objects[lo : lo + blk.batch])
        for got, ref in zip(blk.W + blk.b, want):
            assert got.dtype == np.float64
            assert got.shape == ref.shape
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        sizes.append(blk.batch)
        return np.zeros((blk.batch, 0))

    assert map_blocks(objects, compare).shape == (len(objects), 0)
    assert sizes == [STACK_BLOCK, STACK_BLOCK, 1]


def test_map_blocks_copies_each_block_before_the_next():
    # fn returns a view of the reused buffer: the result is right only if
    # each block's rows are copied out before the next block is stacked.
    objects = [random_weights(CHANNELS, Rng(8).child(k)) for k in range(2 * STACK_BLOCK + 1)]
    got = map_blocks(objects, lambda blk: blk.flat)
    want = np.stack([u.flat for u in objects])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    with pytest.raises(ValidationError, match="at least one"):
        map_blocks([], lambda blk: blk.flat)


def test_equal_specs_need_not_be_identical():
    twin = WeightSpec(CHANNELS.L, list(CHANNELS.n), CHANNELS.d)
    assert twin == CHANNELS and twin is not CHANNELS
    objects = [random_weights(CHANNELS, Rng(1)), random_weights(twin, Rng(2))]
    rows = map_blocks(objects, lambda blk: blk.flat)
    assert np.array_equal(rows, np.stack([u.flat for u in objects]))
    assert len(FitDataset(objects, np.zeros(2))) == 2

    other = random_weights(WeightSpec(3, (2, 3, 2, 2), 2), Rng(3))
    with pytest.raises(ValidationError, match="one spec"):
        map_blocks(objects + [other], lambda blk: blk.flat)
    with pytest.raises(ValidationError, match="spec-homogeneous"):
        FitDataset(objects + [other], np.zeros(3))
    batched = random_weights(CHANNELS, Rng(4), batch=1)
    with pytest.raises(ValidationError, match="unbatched"):
        map_blocks(objects + [batched], lambda blk: blk.flat)
