import numpy as np
import pytest

from magep import monomial, oracle
from magep.dense import Rng, rel_residual
from magep.errors import ValidationError
from magep.stableterms import (
    PsiParams,
    _w_chains,
    all_terms,
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
