import numpy as np
import pytest

from magep import layers, oracle
from magep.dense import Rng, rel_residual
from magep.stableterms import PsiParams
from magep.weightspace import Uniform, WeightObject, WeightSpec, random_weights

from helpers import constant_psi


def test_naive_matches_optimized_on_random_instances():
    worst = 0.0
    for k in range(25):
        r = Rng(7000 + k)
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 4, L + 1))
        spec = WeightSpec(L, n, int(r.child("d").integers(1, 2)))
        e = int(r.child("e").integers(1, 3))
        eq = layers.init_equivariant(spec, e, r.child("eq"))
        inv = layers.init_invariant(spec, e, 2, r.child("inv"))
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        fast = layers.equivariant_forward(eq, U)
        slow = oracle.naive_equivariant_forward(eq, U)
        worst = max(
            worst,
            max(rel_residual(a, b) for a, b in zip(fast.W + fast.b, slow.W + slow.b)),
        )
        worst = max(
            worst,
            rel_residual(
                layers.invariant_forward(inv, U), oracle.naive_invariant_forward(inv, U)
            ),
        )
    assert worst <= 1e-12


@pytest.mark.parametrize("batch", [None, 2])
@pytest.mark.parametrize(
    "spec",
    [
        WeightSpec(5, (3, 4, 2, 5, 3, 2), 3),
        WeightSpec(6, (2, 3, 4, 1, 3, 2, 4), 3),  # a width-1 interior layer
    ],
)
def test_naive_matches_optimized_at_depth_with_three_channels(spec, batch):
    # Four and five interior layers, three input channels and n0 != nL: past
    # the acceptance grid's L <= 4, d <= 2.
    r = Rng(7100 + spec.L)
    eq = layers.init_equivariant(spec, 2, r.child("eq"))
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0), batch=batch)
    fast = layers.equivariant_forward(eq, U)
    slow = oracle.naive_equivariant_forward(eq, U)
    assert fast.batch == slow.batch == batch
    pairs = list(zip(fast.W + fast.b, slow.W + slow.b))
    assert all(a.shape == b.shape for a, b in pairs)
    assert max(rel_residual(a, b) for a, b in pairs) <= 1e-12


def test_naive_zero_object_bias_only():
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    eq = layers.init_equivariant(spec, 2, Rng(1))
    U = WeightObject.zeros(spec)
    fast = layers.equivariant_forward(eq, U)
    slow = oracle.naive_equivariant_forward(eq, U)
    for a, b in zip(fast.W + fast.b, slow.W + slow.b):
        assert np.allclose(a, b, atol=1e-15)
    assert np.allclose(slow.bias(spec.L), np.broadcast_to(eq.phib_L_1, (2, 2)))


def test_naive_batched_matches():
    spec = WeightSpec(2, (2, 2, 2), 1)
    eq = layers.init_equivariant(spec, 1, Rng(2))
    U = random_weights(spec, Rng(3), batch=2)
    fast = layers.equivariant_forward(eq, U)
    slow = oracle.naive_equivariant_forward(eq, U)
    for a, b in zip(fast.W + fast.b, slow.W + slow.b):
        assert rel_residual(a, b) <= 1e-13


def test_naive_scalar_spec_hand_check():
    # single-entry architecture: the last-layer weight row reduces to
    # (phi_W + phi_WW * psi_ww * w1 + phi_bW * psi_bw * b2) * w2-chain pieces
    spec = WeightSpec(2, (1, 1, 1), 1)
    r = Rng(4)
    eq = layers.init_equivariant(spec, 1, r.child("p"))
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
    w1 = U.weight(1).item()
    w2 = U.weight(2).item()
    b1 = U.bias(1).item()
    b2 = U.bias(2).item()
    ww_2021 = w2 * w1 * eq.psi.ww[(2, 1)].item() * w2
    bw_221 = b2 * eq.psi.bw[(2, 1)].item() * w2
    want = (
        eq.phiW_L_W.item() * w2
        + eq.phiW_L_WW.item() * ww_2021
        + eq.phiW_L_bW.item() * bw_221
    )
    got = oracle.naive_equivariant_forward(eq, U).weight(2).item()
    assert got == pytest.approx(want, rel=1e-12)


def test_design_matrix_bias_family_full_rank():
    spec = WeightSpec(3, (2, 2, 2, 2), 1)
    psi = PsiParams.random(spec, Rng(5))
    X = oracle._design(spec, psi, ["b"], Rng(6))
    assert X.shape == (18, 6)  # 3 rows per column; n_1 + n_2 + n_3 columns
    sv = np.linalg.svd(X, compute_uv=False)
    assert sv[-1] / sv[0] >= 1e-6


def test_width_one_collapse_columns_identical():
    # all widths 1 with unit connection matrices: the [W](L,0) column equals
    # every [WW](s,0)(L,s) column
    spec = WeightSpec(3, (1, 1, 1, 1), 1)
    psi = constant_psi(spec, 1.0)
    X = oracle._design(spec, psi, ["w_L0", "ww_diag"], Rng(11))
    assert X.shape == (9, 3)
    assert np.max(np.abs(X[:, 0] - X[:, 1])) <= 1e-12
    assert np.max(np.abs(X[:, 0] - X[:, 2])) <= 1e-12
    sv = np.linalg.svd(X, compute_uv=False)
    assert sv[-1] / sv[0] < 1e-6  # rank 1 of 3


# The rank suite draws d = 1 only; (L-1)*d at d > 1 is pinned here.
@pytest.mark.parametrize("n, d, deficiency", [
    ((2, 2, 2, 2), 1, 2),
    ((2, 3, 3, 2), 2, 4),
    ((1, 2, 1), 3, 3),
    ((3, 2, 2, 1, 2), 2, 6),
])
def test_independence_report_generic_full_rank(n, d, deficiency):
    spec = WeightSpec(len(n) - 1, n, d)
    psi = PsiParams.random(spec, Rng(12))
    rep = oracle.independence_report(spec, psi, Rng(13))
    assert rep["asserted_independent"]["full_rank"]
    assert rep["asserted_independent"]["sigma_ratio"] >= 1e-6
    # the coupled families carry (L-1)*d structural trace relations for every psi
    for c in rep["coupled"]:
        assert c["deficiency"] == c["expected_deficiency"] == deficiency


def test_coupled_trace_relations_hold_for_generic_psi():
    # sum_p WW(s,0)(L,s)_pp == sum_{q,p} psi_qp W(L,0)_pq and
    # sum_p bW(t)(L,t)_pp == sum_p psi_p Wb(L,t)(t)_p, any psi
    from magep.stableterms import all_terms

    for seed in range(5):
        r = Rng(500 + seed)
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(2, 4, L + 1))
        spec = WeightSpec(L, n, 1)
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        psi = PsiParams.random(spec, r.child("psi"))
        T = all_terms(U, psi)
        for s in range(1, L):
            lhs = np.trace(T.ww[(s, s)], axis1=-2, axis2=-1)
            rhs = np.einsum("qp,...pq->...", psi.ww[(s, s)], T.w[(L, 0)])
            assert np.allclose(lhs, rhs, atol=1e-12)
        for t in range(1, L):
            lhs = np.trace(T.bw[(t, t)], axis1=-2, axis2=-1)
            rhs = np.einsum("p,...p->...", psi.bw[(t, t)][0], T.wb[(L, t)])
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_independence_report_detects_width_one_witness():
    # At width 1 each trace is the entry itself, so unit connection matrices
    # make [WW]^(1,0)(2,1) equal [W]^(2,0) and [bW]^(1)(2,1) equal [Wb]^(2,1)(1):
    # one null direction per pair, no more.
    spec = WeightSpec(2, (1, 1, 1), 1)
    rep = oracle.independence_report(spec, constant_psi(spec, 1.0), Rng(14))
    assert rep["asserted_independent"]["full_rank"]
    for c in rep["coupled"]:
        assert c["features"] == 2
        assert c["deficiency"] == c["expected_deficiency"] == 1
