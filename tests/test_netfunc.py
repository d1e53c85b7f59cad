import numpy as np
import pytest

from magep import monomial, netfunc
from magep.activations import Activation, abs_act, leaky_relu, relu, sin, tanh
from magep.dense import Rng, rel_residual
from magep.errors import DimensionError, ValidationError
from magep.weightspace import Uniform, WeightObject, WeightSpec, random_weights

SPEC = WeightSpec(2, (1, 2, 1), 1)


def _toy():
    return WeightObject(
        SPEC,
        (np.array([[[1.0], [1.0]]]), np.array([[[1.0, 1.0]]])),
        (np.array([[1.0, 1.0]]), np.array([[0.0]])),
    )


def test_mlp_forward_hand_value():
    out = netfunc.mlp_forward(_toy(), np.array([1.0]), relu)
    assert np.allclose(out, [4.0])


def test_zero_network_returns_last_bias():
    spec = WeightSpec(3, (2, 3, 3, 2), 1)
    U = WeightObject.zeros(spec)
    U = WeightObject(
        spec, U.W, U.b[:-1] + (np.array([[5.0, -1.0]]),)
    )
    assert np.array_equal(netfunc.mlp_forward(U, np.zeros(2), relu), [5.0, -1.0])


def test_mlp_forward_batched_matches_rows():
    spec = WeightSpec(2, (2, 3, 2), 1)
    U = random_weights(spec, Rng(30), batch=3)
    x = Rng(31).uniform(-1.0, 1.0, 2)
    out = netfunc.mlp_forward(U, x, relu)
    assert out.shape == (3, 2)
    for r in range(3):
        single = WeightObject(spec, tuple(w[r] for w in U.W), tuple(b[r] for b in U.b))
        assert np.allclose(out[r], netfunc.mlp_forward(single, x, relu), atol=1e-15)


def test_mlp_rejects_multichannel_and_bad_input():
    with pytest.raises(ValidationError):
        netfunc.mlp_forward(random_weights(WeightSpec(2, (1, 1, 1), 2), Rng(0)), np.zeros(1), relu)
    with pytest.raises(DimensionError):
        netfunc.mlp_forward(_toy(), np.zeros(2), relu)
    with pytest.raises(DimensionError):
        netfunc.mlp_forward(_toy(), np.zeros((3, 2)), relu)
    with pytest.raises(DimensionError):
        netfunc.mlp_forward(_toy(), np.zeros((2, 3, 1)), relu)


@pytest.mark.parametrize("batch", [None, 3], ids=["unbatched", "batched"])
@pytest.mark.parametrize("act", [relu, tanh], ids=["relu", "tanh"])
def test_mlp_forward_one_point_row_is_the_point_bit_for_bit(batch, act):
    spec = WeightSpec(3, (3, 5, 4, 2), 1)
    U = random_weights(spec, Rng(32), batch=batch)
    x = Rng(33).uniform(-1.0, 1.0, 3)
    row = netfunc.mlp_forward(U, x[None], act)
    assert row.shape == ((batch,) if batch else ()) + (1, 2)
    assert np.array_equal(row[..., 0, :], netfunc.mlp_forward(U, x, act))


@pytest.mark.parametrize("batch", [None, 3], ids=["unbatched", "batched"])
def test_mlp_forward_points_as_rows_match_single_points(batch):
    spec = WeightSpec(3, (3, 5, 4, 2), 1)
    U = random_weights(spec, Rng(34), batch=batch)
    points = Rng(35).uniform(-1.0, 1.0, (6, 3))
    got = netfunc.mlp_forward(U, points, relu)
    want = np.stack([netfunc.mlp_forward(U, x, relu) for x in points], axis=-2)
    assert got.shape == want.shape == ((batch,) if batch else ()) + (6, 2)
    assert rel_residual(got, want) <= 1e-14


@pytest.mark.parametrize(
    "act,variant",
    [(relu, "positive"), (leaky_relu(0.3), "positive"), (tanh, "sign"), (sin, "sign")],
)
def test_function_invariance_for_compatible_pairs(act, variant):
    worst = 0.0
    for k in range(30):
        r = Rng(1000 + k)
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 4, L + 1))
        spec = WeightSpec(L, n, 1)
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        g = monomial.sample(spec, r.child("g"), variant)
        x = r.child("x").uniform(-1.0, 1.0, spec.n[0])
        worst = max(
            worst,
            rel_residual(
                netfunc.mlp_forward(U, x, act),
                netfunc.mlp_forward(monomial.act(g, U), x, act),
            ),
        )
    assert worst <= 1e-9


def test_mismatched_pair_is_not_invariant():
    # relu network under a sign-flip element: the invariance must visibly fail
    witness = 0.0
    for k in range(30):
        r = Rng(2000 + k)
        spec = WeightSpec(2, (2, 3, 2), 1)
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        g = monomial.sample(spec, r.child("g"), "sign")
        if all(np.all(m.scales == 1.0) for m in g.layers):
            continue
        x = r.child("x").uniform(-1.0, 1.0, spec.n[0])
        witness = max(
            witness,
            rel_residual(
                netfunc.mlp_forward(U, x, relu),
                netfunc.mlp_forward(monomial.act(g, U), x, relu),
            ),
        )
    assert witness > 1e-3


def test_probe_targets_single_probe_single_output():
    dataset = [random_weights(SPEC, Rng(k)) for k in range(5)]
    out = netfunc.probe_targets(dataset, [np.array([0.5])], relu)
    assert out.shape == (5, 1)
    assert np.allclose(out[0], netfunc.mlp_forward(dataset[0], np.array([0.5]), relu))


def test_probe_targets_invariant_under_group_augmentation():
    dataset = [random_weights(SPEC, Rng(10 + k)) for k in range(6)]
    probes = [Rng(50 + p).uniform(-1.0, 1.0, 1) for p in range(3)]
    gs = [monomial.sample(SPEC, Rng(90 + k)) for k in range(6)]
    transformed = [monomial.act(g, u) for g, u in zip(gs, dataset)]
    a = netfunc.probe_targets(dataset, probes, relu)
    b = netfunc.probe_targets(transformed, probes, relu)
    assert rel_residual(a, b) <= 1e-9


def test_probe_targets_empty_probes():
    dataset = [random_weights(SPEC, Rng(k)) for k in range(4)]
    out = netfunc.probe_targets(dataset, [], relu)
    assert out.shape == (4, 0)


@pytest.mark.parametrize(
    "probes", [[np.zeros(2)], [np.zeros(1), np.zeros(2)]], ids=["wrong-length", "ragged"]
)
def test_probe_targets_check_probes_before_any_block(monkeypatch, probes):
    def no_blocks(*args):
        raise AssertionError("a block was stacked before the probes were checked")

    monkeypatch.setattr(netfunc, "map_blocks", no_blocks)
    dataset = [random_weights(SPEC, Rng(k)) for k in range(3)]
    with pytest.raises(DimensionError, match="probe"):
        netfunc.probe_targets(dataset, probes, relu)


def test_probe_targets_heterogeneous_dataset_rejected():
    a = random_weights(SPEC, Rng(0))
    b = random_weights(WeightSpec(2, (1, 3, 1), 1), Rng(0))
    with pytest.raises(ValidationError):
        netfunc.probe_targets([a, b], [np.zeros(1)], relu)


def test_activation_validation():
    with pytest.raises(ValidationError):
        Activation("softplus")
    with pytest.raises(ValidationError):
        Activation("leaky_relu", alpha=0.0)


@pytest.mark.parametrize(
    "act", [relu, leaky_relu(0.3), tanh, sin, abs_act], ids=["relu", "leaky", "tanh", "sin", "abs"]
)
def test_an_activation_into_out_writes_the_bytes_it_returns(act):
    # -0.0 and NaN payloads, both signs, are where an in-place rewrite slips.
    x = np.array([-2.5, -0.0, 0.0, 1.5, np.nan, -np.nan, np.inf, -np.inf, -1e-300, 7.0])
    x = np.concatenate([x, Rng(3).uniform(-4.0, 4.0, 35)]).reshape(3, 3, -1)
    with np.errstate(invalid="ignore"):
        want = np.where(x >= 0, x, 0.3 * x) if act.kind == "leaky_relu" else act(x)
        inplace = x.copy()
        assert act(inplace, out=inplace) is inplace
        into = np.full_like(x, 9.0)
        act(x, out=into)
        assert inplace.tobytes() == want.tobytes() == into.tobytes() == act(x).tobytes()


def test_probe_targets_match_per_object_forward_across_blocks():
    spec = WeightSpec(3, (3, 5, 4, 2), 1)
    dataset = [random_weights(spec, Rng(200 + k)) for k in range(300)]
    probes = [Rng(300 + p).uniform(-1.0, 1.0, 3) for p in range(3)]
    got = netfunc.probe_targets(dataset, probes, relu)
    want = np.stack(
        [np.concatenate([netfunc.mlp_forward(u, p, relu) for p in probes]) for u in dataset]
    )
    assert got.shape == (300, 6)
    assert rel_residual(got, want) <= 1e-14
