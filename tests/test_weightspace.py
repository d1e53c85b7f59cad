import numpy as np
import pytest

from magep.dense import Rng
from magep.errors import ParseError, ValidationError
from magep.weightspace import (
    Gaussian,
    Uniform,
    WeightObject,
    WeightSpec,
    dim,
    load,
    random_weights,
    save,
)


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
