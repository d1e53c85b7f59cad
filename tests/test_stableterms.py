import copy
import pickle

import numpy as np
import pytest

from magep import monomial, oracle
from magep.dense import Rng, rel_residual
from magep.errors import ValidationError
from magep.stableterms import (
    PsiParams,
    _w_chains,
    all_terms,
    featurize,
    psi_indices,
    w_indices,
    wb_indices,
)
from magep.weightspace import Uniform, WeightObject, WeightSpec, random_weights

SPEC_121 = WeightSpec(2, (1, 2, 1), 1)


def _toy_object():
    # W1 = [[1], [1]], W2 = [[1, 1]], b1 = (1, 1), b2 = (0)
    return WeightObject(
        SPEC_121,
        (np.array([[[1.0], [1.0]]]), np.array([[[1.0, 1.0]]])),
        (np.array([[1.0, 1.0]]), np.array([[0.0]])),
    )


def test_one_step_chain_is_the_raw_weight():
    spec = WeightSpec(4, (2, 3, 2, 4, 1), 2)
    U = random_weights(spec, Rng(2), batch=3)
    for s in range(1, 5):
        assert np.array_equal(_w_chains(U)[(s, s - 1)], U.weight(s))


def test_identity_chain():
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    eye = np.eye(2)[None]
    U = WeightObject(
        spec, (eye.copy(), eye.copy(), eye.copy()), tuple(np.zeros((1, 2)) for _ in range(3))
    )
    assert np.array_equal(_w_chains(U)[(3, 0)], eye)


def test_full_chain_hand_value():
    assert np.array_equal(_w_chains(_toy_object())[(2, 0)], np.array([[[2.0]]]))


def test_wb_hand_values():
    U = _toy_object()
    psi = PsiParams.random(SPEC_121, Rng(0))
    assert np.array_equal(all_terms(U, psi).wb[(2, 1)], np.array([[2.0]]))
    zero_bias = WeightObject(
        SPEC_121, U.W, (np.zeros((1, 2)), np.zeros((1, 1)))
    )
    assert np.all(all_terms(zero_bias, psi).wb[(2, 1)] == 0.0)


def test_wb_identity_chain_returns_bias():
    spec = WeightSpec(2, (2, 2, 2), 1)
    eye = np.eye(2)[None]
    b1 = np.array([[3.0, 4.0]])
    U = WeightObject(spec, (eye.copy(), eye.copy()), (b1, np.zeros((1, 2))))
    assert np.array_equal(all_terms(U, PsiParams.random(spec, Rng(0))).wb[(2, 1)], b1)


def test_bw_scalar_case():
    beta, psi_val, omega = 0.7, -1.3, 2.0
    spec = WeightSpec(2, (1, 1, 1), 1)
    U = WeightObject(
        spec,
        (np.array([[[2.0]]]), np.array([[[1.0]]])),  # chain (2,0) = 2 = omega
        (np.array([[1.0]]), np.array([[beta]])),
    )
    got = all_terms(U, PsiParams.constant(spec, psi_val)).bw[(2, 0)]
    assert np.allclose(got, beta * psi_val * omega)


def test_bw_zero_cases():
    spec = WeightSpec(2, (1, 2, 1), 1)
    U = random_weights(spec, Rng(1))
    assert np.all(all_terms(U, PsiParams.constant(spec, 0.0)).bw[(1, 0)] == 0.0)
    zero_bias = WeightObject(spec, U.W, tuple(np.zeros_like(b) for b in U.b))
    assert np.all(all_terms(zero_bias, PsiParams.constant(spec, 1.0)).bw[(1, 0)] == 0.0)


def test_ww_zero_psi():
    spec = WeightSpec(2, (2, 2, 2), 1)
    U = random_weights(spec, Rng(3))
    assert np.all(all_terms(U, PsiParams.constant(spec, 0.0)).ww[(1, 0)] == 0.0)


def test_ww_width_one_collapse():
    # with every width 1 and psi = 1, [WW]^(s,0)(L,s) equals [W]^(L,0) exactly
    spec = WeightSpec(3, (1, 1, 1, 1), 1)
    U = random_weights(spec, Rng(4))
    terms = all_terms(U, PsiParams.constant(spec, 1.0))
    for s in (1, 2):
        assert np.allclose(terms.ww[(s, s)], terms.w[(3, 0)], atol=1e-15)


def test_ww_hand_value():
    U = _toy_object()
    got = all_terms(U, PsiParams.constant(SPEC_121, 1.0)).ww[(1, 1)]
    assert np.array_equal(got, np.array([[[1.0, 1.0], [1.0, 1.0]]]))


def test_all_terms_key_counts_for_two_layers():
    assert len(w_indices(2)) == 3 and set(w_indices(2)) == {(2, 1), (2, 0), (1, 0)}
    assert wb_indices(2) == [(2, 1)]
    assert len(psi_indices(2)) == 4
    spec = SPEC_121
    U = random_weights(spec, Rng(5))
    terms = all_terms(U, PsiParams.random(spec, Rng(6)))
    assert set(terms.w) == set(w_indices(2))
    assert set(terms.wb) == set(wb_indices(2))
    assert set(terms.bw) == set(psi_indices(2)) == set(terms.ww)


def test_all_terms_agrees_with_direct_definitions():
    # The naive-loop reference evaluates the same definitions on nested lists.
    rng = Rng(7)
    worst = 0.0
    for k in range(50):
        r = rng.child(k)
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 4, L + 1))
        spec = WeightSpec(L, n, int(r.child("d").integers(1, 2)))
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        psi = PsiParams.random(spec, r.child("psi"))
        terms = all_terms(U, psi)
        naive = oracle._naive_terms(
            spec,
            [w.tolist() for w in U.W],
            [b.tolist() for b in U.b],
            {k: v.tolist() for k, v in psi.bw.items()},
            {k: v.tolist() for k, v in psi.ww.items()},
        )
        for got, want in zip((terms.w, terms.wb, terms.bw, terms.ww), naive):
            assert set(got) == set(want)
            for key, v in got.items():
                worst = max(worst, rel_residual(v, np.array(want[key])))
    assert worst <= 1e-13


def test_all_terms_zero_object():
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    terms = all_terms(WeightObject.zeros(spec), PsiParams.random(spec, Rng(8)))
    for table in (terms.w, terms.wb, terms.bw, terms.ww):
        for v in table.values():
            assert np.all(v == 0.0)


def test_psi_validation():
    spec = WeightSpec(2, (1, 2, 1), 1)
    good = PsiParams.random(spec, Rng(0))
    with pytest.raises(ValidationError):
        PsiParams(spec, {k: v for k, v in list(good.bw.items())[:-1]}, good.ww)
    bad_shape = dict(good.ww)
    bad_shape[(1, 0)] = np.ones((2, 2))
    with pytest.raises(ValidationError):
        PsiParams(spec, good.bw, bad_shape)


def test_random_psi_is_what_the_checking_constructor_builds():
    for spec in (SPEC_121, WeightSpec(3, (2, 3, 3, 4), 2)):
        psi = PsiParams.random(spec, Rng(3))
        checked = PsiParams(spec, psi.bw, psi.ww)
        assert list(psi.bw) == list(psi.ww) == psi_indices(spec.L)
        for family in ("bw", "ww"):
            for k, v in getattr(psi, family).items():
                want = getattr(checked, family)[k]
                assert v.dtype == want.dtype == np.float64
                assert v.shape == want.shape and np.array_equal(v, want)


# (spec, seed): d = 1 and d = 2, and one spec with L = 4.
_PSI_DRAWS = [
    (SPEC_121, 21),
    (WeightSpec(3, (2, 3, 3, 4), 2), 22),
    (WeightSpec(4, (3, 2, 1, 2, 2), 1), 23),
]


@pytest.mark.parametrize("spec, seed", _PSI_DRAWS)
def test_random_psi_draws_each_entry_in_index_order(spec, seed):
    # The frozen draw: uniform(-1, 1) for every [bW] entry in psi_indices
    # order, then for every [WW] entry; fixed-seed .mgp.json bytes depend on it.
    rng, n0, nL = Rng(seed), spec.n[0], spec.n[-1]
    keys = psi_indices(spec.L)
    want_bw = {k: rng.uniform(-1.0, 1.0, (1, nL)) for k in keys}
    want_ww = {k: rng.uniform(-1.0, 1.0, (n0, nL)) for k in keys}
    psi = PsiParams.random(spec, Rng(seed))
    for got, want in ((psi.bw, want_bw), (psi.ww, want_ww)):
        assert list(got) == keys
        for k in keys:
            assert got[k].dtype == want[k].dtype and got[k].tobytes() == want[k].tobytes(), k


def _assert_views_in_index_order(psi):
    """Every entry of each family is its row of one buffer, in psi_indices order."""
    keys = psi_indices(psi.spec.L)
    for table, width in ((psi.bw, 1), (psi.ww, psi.spec.n[0])):
        assert list(table) == keys
        buf = table[keys[0]].base
        assert buf.shape == (len(keys), width, psi.spec.n[-1])
        for j, k in enumerate(keys):
            assert table[k].base is buf
            assert table[k].ctypes.data == buf[j].ctypes.data, k


def test_psi_entries_are_views_of_two_buffers():
    spec = WeightSpec(3, (2, 3, 3, 4), 2)
    psi = PsiParams.random(spec, Rng(24))
    built = (
        psi, PsiParams(spec, psi.bw, psi.ww), PsiParams.constant(spec, 0.5),
        copy.copy(psi), copy.deepcopy(psi), pickle.loads(pickle.dumps(psi)),
    )
    for q in built:
        _assert_views_in_index_order(q)
    for q in built[1:]:
        for k in psi.bw:
            assert not np.shares_memory(q.bw[k], psi.bw[k])
            assert not np.shares_memory(q.ww[k], psi.ww[k])
    for q in built[3:]:
        for k in psi.bw:
            assert np.array_equal(q.bw[k], psi.bw[k]) and np.array_equal(q.ww[k], psi.ww[k])


def test_psi_copies_the_given_entries():
    spec = WeightSpec(3, (2, 3, 3, 4), 2)
    src = PsiParams.random(spec, Rng(25))
    bw = {k: v.copy() for k, v in src.bw.items()}
    ww = {k: v.copy() for k, v in src.ww.items()}
    psi = PsiParams(spec, bw, ww)
    for table in (bw, ww):
        for v in table.values():
            v[...] = 7.0
    for k in src.bw:
        assert np.array_equal(psi.bw[k], src.bw[k]) and np.array_equal(psi.ww[k], src.ww[k])


def test_psi_tables_are_read_only_and_entries_writable():
    spec = WeightSpec(3, (2, 3, 3, 4), 2)
    psi = PsiParams.random(spec, Rng(26))
    U = random_weights(spec, Rng(27))
    for table in (psi.bw, psi.ww):
        with pytest.raises(TypeError):
            table[(9, 9)] = np.zeros((1, 4))
        with pytest.raises(TypeError):
            table[(1, 0)] = table[(1, 0)]
    assert list(psi.bw) == list(psi.ww) == psi_indices(spec.L)
    before = featurize(U, psi)
    psi.ww[(3, 0)][0, 0] += 1.0  # an entry in place: read by the [WW]^(L,0)(L,0) feature
    assert psi.ww[(3, 0)].base is psi.ww[(1, 0)].base
    assert not np.array_equal(featurize(U, psi), before)


def test_chain_composition_identities():
    # [W](s,t)[W](t,r) = [W](s,r); [W](s,t)[Wb](t,r) = [Wb](s,r);
    # [bW]^(s)(s,t)[W](t,r) = [bW]^(s)(s,r)
    rng = Rng(9)
    worst = 0.0
    for k in range(30):
        r = rng.child(k)
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 4, L + 1))
        spec = WeightSpec(L, n, 1)
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        W = _w_chains(U)
        wb = lambda s, t: np.matmul(W[(s, t)], U.bias(t)[..., None])[..., 0]
        for s in range(2, L + 1):
            for t in range(1, s):
                for q in range(t):
                    got = np.matmul(W[(s, t)], W[(t, q)])
                    worst = max(worst, rel_residual(got, W[(s, q)]))
                    if q >= 1:
                        got = np.matmul(W[(s, t)], wb(t, q)[..., None])[..., 0]
                        worst = max(worst, rel_residual(got, wb(s, q)))
                    row = r.child("row", s, t, q).uniform(-1.0, 1.0, (1, spec.n[s]))
                    outer = U.bias(s)[..., None] * row[0]
                    got = np.matmul(np.matmul(outer, W[(s, t)]), W[(t, q)])
                    worst = max(worst, rel_residual(got, np.matmul(outer, W[(s, q)])))
    assert worst <= 1e-12


def test_stability_under_group_action():
    # the five transformation identities with identity boundary factors
    rng = Rng(10)
    worst = 0.0
    for k in range(30):
        r = rng.child(k)
        variant = "positive" if k % 2 == 0 else "sign"
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 4, L + 1))
        spec = WeightSpec(L, n, int(r.child("d").integers(1, 2)))
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        psi = PsiParams.random(spec, r.child("psi"))
        g = monomial.sample(spec, r.child("g"), variant)
        T, gT = all_terms(U, psi), all_terms(monomial.act(g, U), psi)
        for s, t in w_indices(L):
            want = g.layer(t).apply_cols_inverse(g.layer(s).apply_rows(T.w[(s, t)]))
            worst = max(worst, rel_residual(gT.w[(s, t)], want))
        for s in range(1, L + 1):
            want = g.layer(s).apply_rows(T.b[s][..., None])[..., 0]
            worst = max(worst, rel_residual(gT.b[s], want))
        for s, t in wb_indices(L):
            want = g.layer(s).apply_rows(T.wb[(s, t)][..., None])[..., 0]
            worst = max(worst, rel_residual(gT.wb[(s, t)], want))
        for s, t in psi_indices(L):
            for family in ("bw", "ww"):
                term, moved = getattr(T, family)[(s, t)], getattr(gT, family)[(s, t)]
                want = g.layer(t).apply_cols_inverse(g.layer(s).apply_rows(term))
                worst = max(worst, rel_residual(moved, want))
    assert worst <= 1e-10


# (n, d, batch): unbatched and batched rows, d > 1, and width-1 layers.
TRACE_CASES = [
    ((2, 3, 2), 1, None),
    ((2, 1, 3, 2), 3, 4),
    ((3, 2, 4, 1, 2), 2, 3),
    ((2, 3, 2, 3, 2, 3), 3, None),
]


@pytest.mark.parametrize("n, d, batch", TRACE_CASES, ids=str)
def test_trace_identities(n, d, batch):
    # The trace is cyclic and [W]^(L,s) [W]^(s,0) = [W]^(L,0), so for every
    # Psi and 1 <= s < L:
    #   tr [WW]^(s,0)(L,s) = tr(Psi^(s,s) [W]^(L,0))
    #   tr [bW]^(s)(L,s)   = psi^(s,s) . [Wb]^(L,s)(s)
    # Each side sums products of at most k = sum(n) + 1 rounded factors, so
    # it lies within gamma_k = k u / (1 - k u) of the exact value, relative
    # to the same contraction over absolute values.  That contraction is
    # itself rounded, hence the final 1 / (1 - gamma_k).
    spec = WeightSpec(len(n) - 1, n, d)
    L = spec.L
    U = random_weights(spec, Rng(11), Uniform(-1.0, 1.0), batch=batch)
    psi = PsiParams.random(spec, Rng(12))
    abs_psi = PsiParams(
        spec,
        {key: np.abs(v) for key, v in psi.bw.items()},
        {key: np.abs(v) for key, v in psi.ww.items()},
    )
    T, A = all_terms(U, psi), all_terms(U.map(np.abs), abs_psi)
    tr = lambda m: np.trace(m, axis1=-2, axis2=-1)
    k = sum(n) + 1
    u = np.finfo(np.float64).eps / 2
    gamma = k * u / (1 - k * u)
    lead = () if batch is None else (batch,)
    for s in range(1, L):
        pairs = [
            (tr(T.ww[(s, s)]), tr(np.matmul(psi.ww[(s, s)], T.w[(L, 0)])), tr(A.ww[(s, s)])),
            (tr(T.bw[(s, s)]), np.matmul(T.wb[(L, s)], psi.bw[(s, s)][0]), tr(A.bw[(s, s)])),
        ]
        for got, want, scale in pairs:
            assert got.shape == want.shape == lead + (d,)
            assert np.all(np.abs(got - want) <= 2 * gamma * scale / (1 - gamma))
