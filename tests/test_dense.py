import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magep.dense import SERIAL_MADDS, Rng, channel_matmul, contract, rel_residual, serial_matmul
from magep.errors import DimensionError, SpecError


def test_channel_matmul_identity_left_factor():
    a = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    b = np.array([[[2.0, 3.0], [4.0, 5.0]]])
    assert np.array_equal(channel_matmul(a, b), b)


def test_channel_matmul_hand_product():
    a = np.array([[[1.0, 1.0]]])          # 1 x 2
    b = np.array([[[2.0], [3.0]]])        # 2 x 1
    assert np.array_equal(channel_matmul(a, b), np.array([[[5.0]]]))


def test_channel_matmul_two_channels():
    eye = np.eye(2)
    a = np.stack([eye, 2.0 * eye])
    b = np.stack([eye, eye])
    out = channel_matmul(a, b)
    assert np.array_equal(out[0], eye)
    assert np.array_equal(out[1], 2.0 * eye)


def test_channel_matmul_shape_error_names_both_shapes():
    a = np.zeros((2, 2, 3))
    b = np.zeros((2, 4, 2))
    with pytest.raises(DimensionError, match=r"\(2, 2, 3\).*\(2, 4, 2\)"):
        channel_matmul(a, b)


def test_contract_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(contract("ij,jk->ik", [np.eye(2), m]), m)


def test_contract_scalar_products():
    a = np.full((1, 1, 1, 1), 2.0)
    b = np.full((1, 1, 1, 1), 3.0)
    out = contract("edpj,bdpk->bejk", [a, b])
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 6.0
    x = np.full((1, 1, 1, 1), 5.0)
    y = np.full((1, 1, 1, 1, 1), 7.0)
    assert contract("bdpq,depqk→bek", [x, y]).item() == 35.0


def test_contract_errors():
    with pytest.raises(SpecError, match="absent"):
        contract("ij->ik", [np.eye(2)])
    with pytest.raises(SpecError):
        contract("ij,jk->ik", [np.eye(2)])  # operand count mismatch
    with pytest.raises(DimensionError, match="extents"):
        contract("ij,jk->ik", [np.zeros((2, 3)), np.zeros((4, 2))])


def _naive_contract(spec, operands):
    spec = spec.replace("→", "->")
    lhs, out = spec.split("->")
    groups = lhs.split(",")
    extents = {}
    for g, op in zip(groups, operands):
        for ch, ext in zip(g, op.shape):
            extents[ch] = ext
    letters = sorted(extents)
    result = np.zeros(tuple(extents[ch] for ch in out))
    for assign in itertools.product(*(range(extents[ch]) for ch in letters)):
        env = dict(zip(letters, assign))
        prod = 1.0
        for g, op in zip(groups, operands):
            prod *= op[tuple(env[ch] for ch in g)]
        result[tuple(env[ch] for ch in out)] += prod
    return result


@pytest.mark.parametrize(
    "spec,shapes",
    [
        ("ij,jk->ik", [(3, 4), (4, 2)]),
        ("dij,djk->dik", [(2, 3, 2), (2, 2, 4)]),
        ("edpj,bdpk->bejk", [(2, 3, 2, 4), (2, 3, 2, 3)]),
        ("bdpq,depqk->bek", [(2, 3, 2, 2), (3, 2, 2, 2, 4)]),
        ("ij->ji", [(3, 4)]),
        ("ii->", [(4, 4)]),
    ],
)
def test_contract_matches_naive_loops(spec, shapes):
    rng = Rng(11)
    ops = [rng.uniform(-1.0, 1.0, s) for s in shapes]
    got = contract(spec, ops)
    want = _naive_contract(spec, ops)
    assert np.max(np.abs(got - want)) <= 1e-13


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_contract_matches_naive_loops_random_specs(data):
    letters = "ijkpq"
    n_ops = data.draw(st.integers(1, 3))
    extents = {ch: data.draw(st.integers(1, 4)) for ch in letters}
    groups = [
        "".join(data.draw(st.lists(st.sampled_from(letters), min_size=1, max_size=3)))
        for _ in range(n_ops)
    ]
    used = sorted(set("".join(groups)))
    out = "".join(data.draw(st.lists(st.sampled_from(used), unique=True, max_size=len(used))))
    spec = ",".join(groups) + "->" + out
    rng = Rng(data.draw(st.integers(0, 2**31)))
    ops = [rng.uniform(-1.0, 1.0, tuple(extents[ch] for ch in g)) for g in groups]
    got = contract(spec, ops)
    want = _naive_contract(spec, ops)
    assert np.max(np.abs(got - want)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_channel_matmul_associativity(seed, d, m, k, n):
    rng = Rng(seed)
    a = rng.uniform(-1.0, 1.0, (d, m, k))
    b = rng.uniform(-1.0, 1.0, (d, k, n))
    c = rng.uniform(-1.0, 1.0, (d, n, m))
    left = channel_matmul(channel_matmul(a, b), c)
    right = channel_matmul(a, channel_matmul(b, c))
    assert rel_residual(left, right) <= 1e-12


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((64, 3000), (4, 3000, 32)),    # long contracted axis, broadcast over e
        ((3000,), (2, 3000, 5)),        # unbatched feature row
        ((128, 384), (3, 384, 32)),     # last-layer weight row
        ((2, 7, 9), (2, 9, 5)),         # small: one BLAS call
        ((600, 10), (10, 600)),         # rows x columns above the budget
    ],
)
def test_serial_matmul_matches_matmul(a_shape, b_shape):
    rng = Rng(11)
    a = rng.uniform(-1.0, 1.0, a_shape)
    b = rng.uniform(-1.0, 1.0, b_shape)
    got, want = serial_matmul(a, b), np.matmul(a, b)
    assert got.shape == want.shape
    assert rel_residual(got, want) <= 1e-13


def test_serial_matmul_chunks_stay_within_budget(monkeypatch):
    calls = []
    real = np.matmul

    def spy(x, y):
        calls.append(x.shape[-2] * x.shape[-1] * y.shape[-1])
        return real(x, y)

    monkeypatch.setattr(np, "matmul", spy)
    a, b = np.ones((64, 1000)), np.ones((4, 1000, 32))
    out = serial_matmul(a, b)
    assert len(calls) == -(-1000 // (SERIAL_MADDS // (64 * 32)))
    assert max(calls) <= SERIAL_MADDS
    assert np.array_equal(out, np.full((4, 64, 32), 1000.0))


def test_rng_same_seed_same_stream():
    a = Rng(123).uniform(-1.0, 1.0, 10)
    b = Rng(123).uniform(-1.0, 1.0, 10)
    assert np.array_equal(a, b)


def test_rng_child_streams_are_independent_and_reproducible():
    base = Rng(9)
    c1 = base.child("suite", 0).uniform(0.0, 1.0, 4)
    c2 = base.child("suite", 1).uniform(0.0, 1.0, 4)
    again = Rng(9).child("suite", 0).uniform(0.0, 1.0, 4)
    assert np.array_equal(c1, again)
    assert not np.array_equal(c1, c2)


def test_rng_log_uniform_degenerate_and_bounds():
    r = Rng(1)
    assert np.all(r.log_uniform(1.0, 1.0, 5) == 1.0)
    samples = Rng(2).log_uniform(0.25, 4.0, 1000)
    assert samples.min() >= 0.25 and samples.max() <= 4.0
    with pytest.raises(ValueError):
        Rng(3).log_uniform(0.0, 1.0)


def test_rng_signs_are_plus_minus_one():
    s = Rng(4).signs(100)
    assert set(np.unique(s)) <= {-1.0, 1.0}


def test_rel_residual_edge_cases():
    z = np.zeros(3)
    assert rel_residual(z, z) == 0.0
    assert rel_residual(np.ones(3), np.ones(3)) == 0.0
    assert rel_residual(np.ones(3), -np.ones(3)) == 2.0
