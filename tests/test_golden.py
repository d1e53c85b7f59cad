"""Golden bytes: fixed-seed files and block names must not change.

A refactor of how coefficient blocks are declared, drawn, validated or
saved must leave the ``.mgp.json``/``.mgw.json`` bytes and the ``blocks()``
key order exactly as they were; these digests pin them.  A small check
report pins every suite's streams and draw order too.  The
``.mgfit.json`` digest is of a fixed ``phi``, not of a fit, so it pins the
writer alone: a fit's ``phi`` may move whenever the feature arithmetic is
reassociated.
"""

import hashlib

import pytest

from magep import checks, fitting, jsonio, layers, oracle, weightspace
from magep.dense import Rng
from magep.weightspace import Gaussian, Uniform, WeightSpec, random_weights

SMALL = WeightSpec(2, (1, 2, 1), 1)
# mid[2] and mid[3], and b_wb for t = 1, 2.
DEEP = WeightSpec(4, (3, 16, 5, 16, 2), 2)
# The spec of the probe-fit benchmark workload.
PROBE = WeightSpec(4, (4, 16, 16, 16, 4), 1)

PARAMS = {
    ("equivariant", SMALL, 1): "23c6184f7c490f587000339aacc53475c0edde78ee9236b909b7782e13d304bd",
    ("invariant", SMALL, 1): "6552e37b8659c14dda57575492404d7def9446e41bfedcd8f18b7dce7a17bfb7",
    ("equivariant", DEEP, 4): "3995e0dfe2bae2328b4a0efafb11a92d27c3ff3e63bb66b4f6b9a6ad6e06e001",
    ("invariant", DEEP, 4): "8bece8ee7c52f8d5ea821dd5a9297e35a08f91aa5f09496bfc1170eeb93ef69c",
}
FIT = "de7090484f972cfce7784f96fa901bce619a4dfce30bd4dda5da232b5bcf43f6"
WEIGHTS = "b2b62f3a163f2b82bdc543b8928c3e39f081f2f054987170088772d23d25b71a"
# Unbatched draws: the stream order of every layer's weights, then biases.
UNBATCHED = {
    "uniform-d2": "471aa709933691a41b64d84d1e216a38580a261099f43e1e2f621c7b6229a4eb",
    "gaussian-probe": "ee10bc8178c67f03ba51a18ef54306d3a2227b62a737d6d4fd2627f684de9bec",
}
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


def _unbatched(name):
    if name == "uniform-d2":
        return random_weights(DEEP, Rng(14), Uniform(-1.0, 1.0))
    return random_weights(PROBE, Rng(15), Gaussian(0.0, 2.0))


@pytest.mark.parametrize("name", list(UNBATCHED))
def test_unbatched_weights_bytes(tmp_path, name):
    path = tmp_path / "u.mgw.json"
    weightspace.save(_unbatched(name), path)
    assert _sha(path) == UNBATCHED[name]


@pytest.mark.parametrize("kind", list(KEYS))
def test_block_key_order(kind):
    keys = "\n".join(_params(kind, DEEP, 4).blocks())
    assert hashlib.sha256(keys.encode()).hexdigest() == KEYS[kind]


def test_fit_bytes(tmp_path):
    path = tmp_path / "f.mgfit.json"
    phi = Rng(13).uniform(-1.0, 1.0, (9, 3))
    fitting.save_fit(fitting.FitResult(phi, 1e-3, 0.125, 1 / 3, True), path)
    assert _sha(path) == FIT


# The naive-loop reference forwards add Python floats in a fixed order, on
# PCG64 draws, so their outputs do not depend on the BLAS build.  One spec
# has an interior layer and two channels; both inputs are batched.
NAIVE_SPECS = {
    "interior-d2": (WeightSpec(3, (2, 3, 2, 2), 2), 2, 2),
    "shallow-d1": (WeightSpec(2, (3, 1, 2), 1), 3, 3),
}
NAIVE = {
    ("equivariant", "interior-d2"): "c761955cca7fca4375e60e1a8841c368e37f68eab6c9effbaf5e8ff893041efd",
    ("invariant", "interior-d2"): "86386e85666ab236a37988065ee7b8104ee6443c2637c74a8e1380df456b5198",
    ("equivariant", "shallow-d1"): "e05c7d9373ce2df6265893cc2f0173dca949c93ab17b602d5bbfc1b94bdffb4c",
    ("invariant", "shallow-d1"): "2c2e6e893b4f2ad02a2010ddef20acaccfb8f75197f3d71e4447116163cd1df8",
}


@pytest.mark.parametrize("kind, name", list(NAIVE))
def test_naive_forward_bytes(kind, name):
    spec, e, batch = NAIVE_SPECS[name]
    r = Rng(16).child(kind, name)
    U = random_weights(spec, r.child("U"), batch=batch)
    if kind == "equivariant":
        params = layers.init_equivariant(spec, e, r.child("params"))
        out = oracle.naive_equivariant_forward(params, U).flat.tobytes()
    else:
        params = layers.init_invariant(spec, e, 3, r.child("params"))
        out = oracle.naive_invariant_forward(params, U).tobytes()
    assert hashlib.sha256(out).hexdigest() == NAIVE[(kind, name)]


# Every suite at 20 trials: a change to any stream, any draw order, or the
# rank suite's shared design draws moves it.  Its residuals come from BLAS
# products, so a BLAS build that differs in the last digits moves it too.
REPORT = "8d3dd58e12cf11eb1e8f88d3737147c6a8f171d85dd4e14359b9cd3453abd754"


def test_check_report_bytes():
    text = jsonio.dumps(checks.run_suites("all", 20, seed=1))
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT
