"""The O(L) fused-GEMM equivariant forward against the all_terms + einsum definition."""

import numpy as np
import pytest

from magep import layers
from magep.activations import tanh
from magep.checks import Grid
from magep.dense import Rng, rel_residual
from magep.stableterms import all_terms, featurize
from magep.weightspace import Uniform, WeightObject, WeightSpec, random_weights


def _reference_forward(params, U):
    """Every stable term at every index pair, each block contracted by einsum."""
    if U.batch is None:
        V = WeightObject(U.spec, tuple(w[None] for w in U.W), tuple(v[None] for v in U.b), 1)
    else:
        V = U
    terms = all_terms(V, params.psi)
    L = params.spec.L
    es = lambda spec, *ops: np.einsum(spec, *ops, optimize=False)
    tr = lambda m: np.trace(m, axis1=-2, axis2=-1)
    W_out = [None] * L
    b_out = [None] * L

    W_out[L - 1] = (
        es("edpj,bdpk->bejk", params.phiW_L_W, terms.w[(L, L - 1)])
        + es("edpj,bdpk->bejk", params.phiW_L_WW, terms.ww[(L, L - 1)])
        + es("edpj,bdpk->bejk", params.phiW_L_bW, terms.bw[(L, L - 1)])
    )
    bL = (
        es("edpqj,bdpq->bej", params.phib_L_WWLL, terms.ww[(L, 0)])
        + es("edpqj,bdpq->bej", params.phib_L_WL0, terms.w[(L, 0)])
        + es("edpqj,bdpq->bej", params.phib_L_bWLL0, terms.bw[(L, 0)])
        + es("edpj,bdp->bej", params.phib_L_b, terms.b[L])
        + params.phib_L_1[None]
    )
    for s in range(1, L):
        bL = bL + es("edj,bd->bej", params.phib_L_trWW[s], tr(terms.ww[(s, s)]))
    for t in range(1, L):
        bL = bL + es("edpj,bdp->bej", params.phib_L_Wb[t], terms.wb[(L, t)])
        bL = bL + es("edj,bd->bej", params.phib_L_trbW[t], tr(terms.bw[(t, t)]))
    b_out[L - 1] = bL

    W_out[0] = (
        es("bdjq,deqk->bejk", terms.w[(1, 0)], params.phiW_1_W)
        + es("bdjq,deqk->bejk", terms.ww[(1, 0)], params.phiW_1_WW)
        + es("bdjq,deqk->bejk", terms.bw[(1, 0)], params.phiW_1_bW)
        + es("bdj,dek->bejk", terms.b[1], params.phiW_1_b)
    )
    b_out[0] = (
        es("bdjq,deq->bej", terms.w[(1, 0)], params.phib_1_W)
        + es("bdjq,deq->bej", terms.ww[(1, 0)], params.phib_1_WW)
        + es("bdjq,deq->bej", terms.bw[(1, 0)], params.phib_1_bW)
        + es("bdj,de->bej", terms.b[1], params.phib_1_b)
    )

    for i in range(2, L):
        blk = params.mid[i]
        W_out[i - 1] = (
            es("bdjk,de->bejk", terms.w[(i, i - 1)], blk.w)
            + es("bdjk,de->bejk", terms.ww[(i, i - 1)], blk.ww)
            + es("bdjk,de->bejk", terms.bw[(i, i - 1)], blk.bw)
        )
        bi = (
            es("bdjq,deq->bej", terms.w[(i, 0)], blk.b_w)
            + es("bdjq,deq->bej", terms.ww[(i, 0)], blk.b_ww)
            + es("bdjq,deq->bej", terms.bw[(i, 0)], blk.b_bw)
            + es("bdj,de->bej", terms.b[i], blk.b_b)
        )
        for t in range(1, i):
            bi = bi + es("bdj,de->bej", terms.wb[(i, t)], blk.b_wb[t])
        b_out[i - 1] = bi

    if U.batch is None:
        W_out = [w[0] for w in W_out]
        b_out = [v[0] for v in b_out]
    return WeightObject(params.out_spec(), tuple(W_out), tuple(b_out), U.batch)


def _worst_residual(spec, e, seed, batch):
    r = Rng(seed)
    params = layers.init_equivariant(spec, e, r.child("params"))
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0), batch=batch)
    got = layers.equivariant_forward(params, U)
    want = _reference_forward(params, U)
    assert got.spec == want.spec and got.batch == want.batch
    for a, b in zip(got.W + got.b, want.W + want.b):
        assert a.shape == b.shape
    return max(rel_residual(a, b) for a, b in zip(got.W + got.b, want.W + want.b))


def _grid_cases():
    grid = Grid()
    cases = []
    for k in range(60):
        r = Rng(k)
        spec = grid.sample_spec(r.child("spec"))
        cases.append((spec, r.child("e").choice(grid.e_values)))
    cases += [
        (WeightSpec(2, (1, 1, 1), 2), 3),
        (WeightSpec(2, (1, 2, 1), 1), 1),
        (WeightSpec(3, (1, 1, 1, 1), 1), 1),
        (WeightSpec(3, (2, 3, 3, 2), 2), 3),
        (WeightSpec(4, (1, 4, 1, 4, 1), 2), 3),
        (WeightSpec(4, (3,) * 5, 2), 3),
    ]
    return cases


@pytest.mark.parametrize("batch", [None, 3])
def test_fast_forward_matches_reference_on_acceptance_grid(batch):
    cases = _grid_cases()
    assert any(1 in spec.n for spec, _ in cases)
    assert any(spec.d == 2 for spec, _ in cases)
    assert {spec.L for spec, _ in cases} == {2, 3, 4}
    worst = max(_worst_residual(spec, e, k, batch) for k, (spec, e) in enumerate(cases))
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "spec, e, batch",
    [
        (WeightSpec(6, (8,) * 7, 4), 3, 4),
        (WeightSpec(5, (3, 16, 5, 16, 2, 7), 3), 2, 5),
    ],
)
def test_fast_forward_matches_reference_beyond_grid(spec, e, batch):
    assert _worst_residual(spec, e, 11, batch) <= 1e-12


@pytest.mark.parametrize("batch", [None, 4])
def test_last_bias_row_is_the_invariant_map_of_the_features(batch):
    spec = WeightSpec(4, (2, 3, 4, 3, 3), 2)
    e, nL = 3, spec.n[spec.L]
    r = Rng(5)
    params = layers.init_equivariant(spec, e, r.child("params"))
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0), batch=batch)
    got = layers.equivariant_forward(params, U).bias(spec.L)
    X = featurize(U, params.psi)
    P = params._last_bias
    assert P.shape == (e, X.shape[-1], nL)
    P_b = P.swapaxes(1, 2).reshape(e * nL, -1)  # row i * n_L + j feeds b^(L)[i, j]
    want = (X @ P_b.T).reshape(X.shape[:-1] + (e, nL))
    assert rel_residual(got, want) <= 1e-14
    # The same blocks as an invariant layer with d_out = n_L give the same row.
    ed = lambda a: a.swapaxes(0, 1)
    head = layers.InvariantParams(
        spec=spec,
        e=e,
        d_out=nL,
        phi_WWLL=ed(params.phib_L_WWLL),
        phi_WL0=ed(params.phib_L_WL0),
        phi_trWW={k: ed(v) for k, v in params.phib_L_trWW.items()},
        phi_bWLL0=ed(params.phib_L_bWLL0),
        phi_Wb={k: ed(v) for k, v in params.phib_L_Wb.items()},
        phi_trbW={k: ed(v) for k, v in params.phib_L_trbW.items()},
        phi_b=ed(params.phib_L_b),
        phi_1=params.phib_L_1,
        psi=params.psi,
    )
    assert rel_residual(got, layers.invariant_forward(head, U)) <= 1e-14


def test_stack_forward_row_blocks_match_per_row():
    spec = WeightSpec(3, (3, 4, 4, 2), 1)
    r = Rng(8)
    p1 = layers.init_equivariant(spec, 2, r.child("p1"))
    p2 = layers.init_equivariant(WeightSpec(3, spec.n, 2), 3, r.child("p2"))
    head = layers.init_invariant(WeightSpec(3, spec.n, 3), 2, 4, r.child("head"))
    stack = [(p1, tanh), (p2, tanh)]
    batch = 2 * layers.ROW_BLOCK + 3  # two full blocks and a partial one
    U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0), batch=batch)
    got = layers.stack_forward(stack, head, U, "sign")
    assert got.shape == (batch, 2, 4)
    for k in range(batch):
        row = WeightObject(spec, tuple(w[k] for w in U.W), tuple(v[k] for v in U.b))
        assert rel_residual(got[k], layers.stack_forward(stack, head, row, "sign")) <= 1e-14
