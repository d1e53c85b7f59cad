"""Golden bytes: fixed-seed files and block names must not change.

A refactor of how coefficient blocks are declared, drawn, validated or
saved must leave the ``.mgp.json``/``.mgw.json`` bytes and the ``blocks()``
key order exactly as they were; these digests pin them.  The
``.mgfit.json`` digest is of a fixed ``phi``, not of a fit, so it pins the
writer alone: a fit's ``phi`` may move whenever the feature arithmetic is
reassociated.
"""

import hashlib

import pytest

from magep import fitting, layers, weightspace
from magep.dense import Rng
from magep.weightspace import WeightSpec, random_weights

SMALL = WeightSpec(2, (1, 2, 1), 1)
# mid[2] and mid[3], and b_wb for t = 1, 2.
DEEP = WeightSpec(4, (3, 16, 5, 16, 2), 2)

PARAMS = {
    ("equivariant", SMALL, 1): "23c6184f7c490f587000339aacc53475c0edde78ee9236b909b7782e13d304bd",
    ("invariant", SMALL, 1): "6552e37b8659c14dda57575492404d7def9446e41bfedcd8f18b7dce7a17bfb7",
    ("equivariant", DEEP, 4): "3995e0dfe2bae2328b4a0efafb11a92d27c3ff3e63bb66b4f6b9a6ad6e06e001",
    ("invariant", DEEP, 4): "8bece8ee7c52f8d5ea821dd5a9297e35a08f91aa5f09496bfc1170eeb93ef69c",
}
FIT = "de7090484f972cfce7784f96fa901bce619a4dfce30bd4dda5da232b5bcf43f6"
WEIGHTS = "b2b62f3a163f2b82bdc543b8928c3e39f081f2f054987170088772d23d25b71a"
KEYS = {
    "equivariant": "423abd54dc27533c39848df8d97d10d9311b3b5af15718c8b02f4551ad3f63df",
    "invariant": "52416040c049a3fcb7fc3550cdc32f3d445a179d73736765fa7f7793ac970ff3",
}


def _params(kind, spec, e):
    rng = Rng(11).child(kind, spec.L)
    if kind == "equivariant":
        return layers.init_equivariant(spec, e, rng)
    return layers.init_invariant(spec, e, 3, rng)


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind, spec, e", list(PARAMS))
def test_params_bytes(tmp_path, kind, spec, e):
    path = tmp_path / "p.mgp.json"
    layers.save_params(_params(kind, spec, e), path)
    assert _sha(path) == PARAMS[(kind, spec, e)]


def test_weights_bytes(tmp_path):
    path = tmp_path / "u.mgw.json"
    weightspace.save(random_weights(DEEP, Rng(12), batch=2), path)
    assert _sha(path) == WEIGHTS


@pytest.mark.parametrize("kind", list(KEYS))
def test_block_key_order(kind):
    keys = "\n".join(_params(kind, DEEP, 4).blocks())
    assert hashlib.sha256(keys.encode()).hexdigest() == KEYS[kind]


def test_fit_bytes(tmp_path):
    path = tmp_path / "f.mgfit.json"
    phi = Rng(13).uniform(-1.0, 1.0, (9, 3))
    fitting.save_fit(fitting.FitResult(phi, 1e-3, 0.125, 1 / 3, True), path)
    assert _sha(path) == FIT
