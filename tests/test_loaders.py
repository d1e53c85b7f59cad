"""Loaders reject non-finite, missing-key and unknown-key documents with a MagepError."""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magep import cli, fitting, jsonio, layers, stableterms, weightspace
from magep.dense import Rng
from magep.errors import MagepError, ParseError, ValidationError
from magep.stableterms import PsiParams
from magep.weightspace import WeightSpec, random_weights

SPEC = WeightSpec(3, (2, 3, 2, 2), 2)
SENTINEL = 42.0  # written as the bare token 42, which no random payload entry prints as

# A NaN token is not JSON; 1e999 is valid JSON that overflows to inf.
BAD_TOKENS = [("NaN", ParseError), ("-Infinity", ParseError), ("1e999", ValidationError)]


def _poison(path, token):
    """Replace the sentinel entry of the document at ``path`` by ``token``."""
    text, count = re.subn(r"(?<=[\[,])42(?=[,\]])", token, path.read_text(), count=1)
    assert count == 1
    path.write_text(text)


def _weights_file(tmp_path):
    U = random_weights(SPEC, Rng(1), batch=2)
    U.W[1][1, 0, 1, 2] = SENTINEL
    path = tmp_path / "u.mgw.json"
    weightspace.save(U, path)
    return path


def _equivariant_file(tmp_path):
    params = layers.init_equivariant(SPEC, 2, Rng(2))
    params.phib_L_Wb[2][0, 1, 1, 0] = SENTINEL
    path = tmp_path / "eq.mgp.json"
    layers.save_params(params, path)
    return path


def _invariant_file(tmp_path):
    params = layers.init_invariant(SPEC, 2, 3, Rng(3))
    params.psi.ww[(2, 1)][1, 0] = SENTINEL
    path = tmp_path / "inv.mgp.json"
    layers.save_params(params, path)
    return path


def _fit_file(tmp_path):
    phi = Rng(4).uniform(-1.0, 1.0, (5, 2))
    phi[3, 1] = SENTINEL
    path = tmp_path / "f.mgfit.json"
    fitting.save_fit(fitting.FitResult(phi, 1e-3, 0.5, 0.25), path)
    return path


LOADERS = [
    (_weights_file, weightspace.load),
    (_equivariant_file, layers.load_params),
    (_invariant_file, layers.load_params),
    (_fit_file, fitting.load_fit),
]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_loads_rejects_non_finite_tokens(token):
    with pytest.raises(ParseError, match="non-finite"):
        jsonio.loads('{"a": [1.0, %s]}' % token)


def test_loads_keeps_ordinary_numbers():
    assert jsonio.loads('{"a": [1, -2.5e-3, 1e300]}') == {"a": [1, -2.5e-3, 1e300]}


@pytest.mark.parametrize("make, load", LOADERS)
def test_clean_sentinel_file_loads(tmp_path, make, load):
    load(make(tmp_path))


@pytest.mark.parametrize("token, error", BAD_TOKENS)
@pytest.mark.parametrize("make, load", LOADERS)
def test_loaders_reject_non_finite_payloads(tmp_path, make, load, token, error):
    path = make(tmp_path)
    _poison(path, token)
    with pytest.raises(error, match="non-finite"):
        load(path)


@pytest.mark.parametrize("token, error", BAD_TOKENS)
@pytest.mark.parametrize("make, load", LOADERS)
def test_cli_maps_loader_errors_to_exit_2(tmp_path, monkeypatch, capsys, make, load, token, error):
    # No subcommand reads these files yet; a command that does goes through
    # the same error mapping in main().
    path = make(tmp_path)
    _poison(path, token)
    monkeypatch.setattr(cli, "cmd_gen", lambda args: load(path))
    code = cli.main(["gen", "--L", "2", "--n", "1,1,1", "--count", "0"])
    err = capsys.readouterr().err
    assert code in (cli.EXIT_USAGE, cli.EXIT_IO)
    assert "non-finite" in err and "Traceback" not in err


def test_loads_rejects_duplicate_keys():
    with pytest.raises(ParseError, match="duplicate key 'batch'"):
        jsonio.loads('{"batch": 2, "batch": 3}')


DUPLICATES = [
    (_weights_file, weightspace.load, "{", "batch"),
    (_invariant_file, layers.load_params, "{", "phi_1"),
    (_invariant_file, layers.load_params, '"bw":{', "1,0"),
    (_equivariant_file, layers.load_params, '"scalarsW":{', "2"),
    (_fit_file, fitting.load_fit, "{", "width"),
]


@pytest.mark.parametrize("make, load, anchor, key", DUPLICATES)
def test_loaders_reject_duplicate_keys(tmp_path, monkeypatch, capsys, make, load, anchor, key):
    # A first ``key`` in the object that opens at ``anchor``; unchecked, the
    # saved one after it would win.
    path = make(tmp_path)
    text = path.read_text()
    assert anchor in text
    path.write_text(text.replace(anchor, f'{anchor}"{key}":0,', 1))
    with pytest.raises(ParseError, match=re.escape(f"duplicate key {key!r}")):
        load(path)
    monkeypatch.setattr(cli, "cmd_gen", lambda args: load(path))
    code = cli.main(["gen", "--L", "2", "--n", "1,1,1", "--count", "0"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_USAGE
    assert "duplicate key" in err and "Traceback" not in err


def _edit(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("make", [_equivariant_file, _invariant_file])
def test_load_params_names_missing_key(tmp_path, make):
    path = make(tmp_path)
    key = "phiW_L_W" if make is _equivariant_file else "phi_trbW"
    _edit(path, lambda doc: doc.pop(key))
    with pytest.raises(ValidationError, match=key):
        layers.load_params(path)


@pytest.mark.parametrize("make", [_equivariant_file, _invariant_file])
def test_load_params_names_unknown_key(tmp_path, make):
    path = make(tmp_path)
    _edit(path, lambda doc: doc.update(phi_extra=[1.0]))
    with pytest.raises(ValidationError, match="phi_extra"):
        layers.load_params(path)


def test_load_params_names_missing_nested_key(tmp_path):
    path = _equivariant_file(tmp_path)
    _edit(path, lambda doc: doc["vecsb"]["2"].pop("Wb"))
    with pytest.raises(ValidationError, match="Wb"):
        layers.load_params(path)


@pytest.mark.parametrize("edit, key", [
    (lambda doc: doc.pop("rank_deficient"), "rank_deficient"),
    (lambda doc: doc.update(extra=1), "extra"),
])
def test_load_fit_names_bad_keys(tmp_path, edit, key):
    path = _fit_file(tmp_path)
    _edit(path, edit)
    with pytest.raises(ValidationError, match=key):
        fitting.load_fit(path)


def test_rank_deficient_fit_round_trip(tmp_path):
    spec = WeightSpec(2, (2, 3, 2), 1)
    psi = PsiParams.random(spec, Rng(5))
    objects = tuple(random_weights(spec, Rng(6).child("row", k)) for k in range(4))
    data = fitting.FitDataset(objects, Rng(7).uniform(-1.0, 1.0, (4, 2)))
    fit = fitting.fit_ridge(data, psi, 0.0)  # 4 rows, many more features
    assert fit.rank_deficient
    path = tmp_path / "rd.mgfit.json"
    fitting.save_fit(fit, path)
    loaded = fitting.load_fit(path)
    assert loaded.rank_deficient is True
    assert np.array_equal(loaded.phi, fit.phi)
    assert (loaded.lam, loaded.train_mse, loaded.test_mse) == (fit.lam, fit.train_mse, None)


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for p in path:
            doc = doc[p]
        doc[key] = value

    return edit


def _rename_psi_key(doc):
    bw = doc["psi"]["bw"]
    bw["1"] = bw.pop("1,0")


def _alias(*path_and_keys):
    """Add a second key naming the same layer, e.g. ``"01"`` next to ``"1"``."""
    *path, key, alias = path_and_keys

    def edit(doc):
        for p in path:
            doc = doc[p]
        doc[alias] = doc[key]

    return edit


BAD_PARAMS = [
    (_invariant_file, _rename_psi_key, "unknown psi.bw keys: ['1']"),
    (_invariant_file, _set("psi", "bw", [1.0]), "psi.bw must be an object with the keys"),
    (_invariant_file, _set("psi", "extra", {}), "unknown psi keys"),
    (_invariant_file, _set("spec", [3, [2, 3, 2, 2], 2]), "spec must be an object"),
    (_invariant_file, _set("spec", "extra", 1), "unknown spec keys"),
    (_invariant_file, _set("e", "x"), "e must be an integer"),
    (_invariant_file, _set("d_out", 2.5), "d_out must be an integer"),
    (_invariant_file, _set("phi_trWW", [1.0]), "phi_trWW must be an object with the keys"),
    (_invariant_file, _set("phi_trWW", "x", [1.0]), "unknown phi_trWW keys: ['x']"),
    (_equivariant_file, _set("e", True), "e must be an integer"),
    (_equivariant_file, _set("scalarsW", "2", [1.0]), "scalarsW[2] must be an object"),
    (_equivariant_file, _set("scalarsW", "2", "extra", [1.0]), "unknown scalarsW[2] keys"),
    (_equivariant_file, _set("vecsb", "2", "extra", [1.0]), "unknown vecsb[2] keys"),
    (_equivariant_file, _set("vecsb", "9", {}), "unknown vecsb keys: ['9']"),
    (_equivariant_file, _set("vecsb", "2", "Wb", "1", "x"), "vecsb[2].Wb[1] is not a numeric"),
    (_equivariant_file, _set("mid", {}), "unknown top-level keys"),
    (_invariant_file, _alias("phi_trWW", "1", "01"), "unknown phi_trWW keys: ['01']"),
    (_invariant_file, _alias("psi", "bw", "1,0", "01,0"), "unknown psi.bw keys: ['01,0']"),
    (_invariant_file, _alias("psi", "ww", "1,0", "1,00"), "unknown psi.ww keys: ['1,00']"),
    (_equivariant_file, _alias("scalarsW", "2", "02"), "unknown scalarsW keys: ['02']"),
    (_equivariant_file, _alias("vecsb", "2", "Wb", "1", "+1"), "unknown vecsb[2].Wb keys: ['+1']"),
    (_invariant_file, _alias("phi_trWW", "1", "1" * 5000), "unknown phi_trWW keys: ['1111"),
    (_invariant_file, _alias("psi", "bw", "1,0", "1" * 5000 + ",0"), "unknown psi.bw keys: ['1111"),
    (_invariant_file, _set("phi_1", [[True]]), "phi_1 is not a numeric"),
    (_invariant_file, _set("phi_1", [[0.5, 0.25, 0.0], [0.5, False, 0.0]]), "phi_1 is not a numeric"),
    (_invariant_file, _set("phi_1", [["1.5"]]), "phi_1 is not a numeric"),
    (_equivariant_file, _set("vecsb", "2", "Wb", "1", [[True]]), "vecsb[2].Wb[1] is not a numeric"),
    # Sizes no buffer can hold, which numpy refuses with MemoryError or ValueError.
    (_invariant_file, _set("e", 10**12), "layer sizes too large"),
    (_invariant_file, _set("d_out", 2**70), "layer sizes too large"),
    (_equivariant_file, _set("spec", "d", 10**12), "layer sizes too large"),
]


@pytest.mark.parametrize("make, edit, where", BAD_PARAMS)
def test_load_params_rejects_wrong_types_and_nested_keys(tmp_path, make, edit, where):
    path = make(tmp_path)
    _edit(path, edit)
    with pytest.raises(ValidationError, match=re.escape(where)) as err:
        layers.load_params(path)
    # An unknown key is quoted cut to 40 characters, so the 5,000-digit keys
    # give messages as short as the others.
    assert len(str(err.value)) <= 120


def test_load_params_sets_every_buffer_element(tmp_path, monkeypatch):
    # Every buffer starts as NaN, so an element the loader leaves unset stays NaN.
    spec = WeightSpec(4, (2, 3, 2, 3, 2), 2)  # interior layers 2 and 3
    paths = [tmp_path / "eq.mgp.json", tmp_path / "inv.mgp.json"]
    layers.save_params(layers.init_equivariant(spec, 2, Rng(60)), paths[0])
    layers.save_params(layers.init_invariant(spec, 2, 3, Rng(61)), paths[1])

    def nan_empty(*shape):
        return np.full(shape, np.nan)

    monkeypatch.setattr(stableterms, "_empty", nan_empty)
    monkeypatch.setattr(layers, "_empty", nan_empty)
    for path in paths:
        loaded = layers.load_params(path)
        buffers = [loaded.psi.bw[(1, 0)].base, loaded.psi.ww[(1, 0)].base]
        assert [buf.shape for buf in buffers] == [(16, 1, 2), (16, 2, 2)]
        if path is paths[0]:
            assert sorted(loaded._interior) == [2, 3]
            buffers += [loaded._last_bias, loaded._last_weight, loaded._first_rows]
            buffers += [buf for pair in loaded._interior.values() for buf in pair]
        else:
            buffers.append(loaded._packed)
        assert all(np.isfinite(buf).all() for buf in buffers)
        layers.save_params(loaded, tmp_path / "again.mgp.json")
        assert (tmp_path / "again.mgp.json").read_bytes() == path.read_bytes()


@pytest.mark.parametrize("key, value", [
    ("L", "x"), ("L", 2.0), ("n", "ab"), ("n", 3), ("n", [2, None, 2, 2]), ("d", None), ("d", True),
    ("batch", True), ("batch", 2.0), ("batch", 0),
])
def test_weights_load_rejects_non_integer_spec(tmp_path, key, value):
    path = _weights_file(tmp_path)
    _edit(path, _set(key, value))
    with pytest.raises(ValidationError, match="integer|sequence"):
        weightspace.load(path)


@pytest.mark.parametrize("key, value", [
    ("lambda", "x"), ("lambda", [1.0]), ("train_mse", None), ("test_mse", "0.5"), ("phi", "x"),
    ("lambda", True), ("width", True), ("width", 2.0), ("width", "2"), ("lambda", -1.0),
    ("test_mse", "y"), ("train_mse", "0.5"), ("test_mse", [0.5]),
])
def test_load_fit_rejects_wrong_typed_scalars(tmp_path, key, value):
    path = _fit_file(tmp_path)
    _edit(path, _set(key, value))
    with pytest.raises(ValidationError, match=key):
        fitting.load_fit(path)
    # The constructor rejects the same scalar, named the same way.
    fields = {"lambda": 1, "train_mse": 2, "test_mse": 3}
    if key in fields:
        args = [np.ones((1, 1)), 1e-3, 0.5, 0.25]
        args[fields[key]] = value
        with pytest.raises(ValidationError, match=key):
            fitting.FitResult(*args)


@pytest.mark.parametrize("make, load, key", [
    (_weights_file, weightspace.load, "L"),
    (_weights_file, weightspace.load, "batch"),
    (_fit_file, fitting.load_fit, "width"),
])
def test_negative_zero_count_is_rejected(tmp_path, make, load, key):
    # The token -0 reads as the float -0.0, which no count accepts.
    path = make(tmp_path)
    text, count = re.subn(f'"{key}":[0-9]+', f'"{key}":-0', path.read_text(), count=1)
    assert count == 1
    path.write_text(text)
    with pytest.raises(ValidationError, match="integer"):
        load(path)


def _one_row_weights(tmp_path):
    path = tmp_path / "u1.mgw.json"
    weightspace.save(random_weights(SPEC, Rng(1), batch=1), path)
    return path


def _one_column_fit(tmp_path):
    path = tmp_path / "f1.mgfit.json"
    fitting.save_fit(fitting.FitResult(np.ones((3, 1)), 1e-3, 0.5, 0.25), path)
    return path


@pytest.mark.parametrize("make, load, key", [
    (_one_row_weights, weightspace.load, "batch"),
    (_one_column_fit, fitting.load_fit, "width"),
])
def test_loaders_reject_boolean_counts(tmp_path, make, load, key):
    # The payload has one row (one column), which a count of true would match.
    path = make(tmp_path)
    _edit(path, _set(key, True))
    with pytest.raises(ValidationError, match=key):
        load(path)


# Any JSON value: a number, string, bool, null, list or object.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's ``()`` first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(value, path + (key,))


@pytest.fixture(scope="module")
def saved_docs(tmp_path_factory):
    """Documents of each format, as their writers save them, keyed by loader."""
    spec = WeightSpec(3, (1, 2, 1, 2), 1)
    workdir = tmp_path_factory.mktemp("fuzz")

    def saved(save, obj):
        save(obj, workdir / "saved.json")
        return json.loads((workdir / "saved.json").read_text())

    docs = {
        layers.load_params: [
            saved(layers.save_params, layers.init_equivariant(spec, 2, Rng(50))),
            saved(layers.save_params, layers.init_invariant(spec, 2, 2, Rng(51))),
        ],
        weightspace.load: [
            saved(weightspace.save, random_weights(spec, Rng(52))),
            saved(weightspace.save, random_weights(spec, Rng(53), batch=2)),
        ],
        fitting.load_fit: [
            saved(fitting.save_fit, fitting.FitResult(Rng(54).uniform(-1.0, 1.0, (3, 2)), 1e-3, 0.5)),
            saved(fitting.save_fit, fitting.FitResult(np.ones((2, 1)), 0.0, 0.0, 0.25, True)),
        ],
    }
    return workdir, docs


@pytest.mark.parametrize(
    "load", [layers.load_params, weightspace.load, fitting.load_fit], ids=["mgp", "mgw", "mgfit"]
)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_loader_with_one_node_replaced_loads_or_raises_a_magep_error(saved_docs, load, data):
    workdir, docs = saved_docs
    doc = copy.deepcopy(data.draw(st.sampled_from(docs[load])))
    where = data.draw(st.sampled_from(list(_nodes(doc))))
    value = data.draw(JSON_VALUES)
    if where:
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    else:
        doc = value
    path = workdir / "fuzzed.json"
    path.write_text(json.dumps(doc))
    try:
        load(path)
    except MagepError:
        pass
