"""The batched O(L) featurizer against the per-object definition from all_terms."""

import numpy as np

from magep import fitting
from magep.checks import Grid
from magep.dense import Rng, rel_residual
from magep.stableterms import PsiParams, all_terms, feature_count, featurize
from magep.weightspace import STACK_BLOCK, Uniform, WeightObject, WeightSpec, random_weights


def _reference_features(U, psi):
    """Feature vector of one unbatched object, read off the full term set."""
    L = U.spec.L
    terms = all_terms(U, psi)
    parts = []
    for c in range(U.spec.d):
        parts.append(terms.ww[(L, 0)][c].ravel())
        parts.append(terms.w[(L, 0)][c].ravel())
        parts.append(np.array([np.trace(terms.ww[(s, s)][c]) for s in range(L - 1, 0, -1)]))
        parts.append(terms.bw[(L, 0)][c].ravel())
        for t in range(L - 1, 0, -1):
            parts.append(terms.wb[(L, t)][c].ravel())
        parts.append(np.array([np.trace(terms.bw[(t, t)][c]) for t in range(L - 1, 0, -1)]))
        parts.append(terms.b[L][c].ravel())
    parts.append(np.ones(1))
    return np.concatenate(parts)


def _row(U, k):
    return WeightObject(U.spec, tuple(w[k] for w in U.W), tuple(b[k] for b in U.b))


def _worst_batched_residual(spec, seed, batch):
    psi = PsiParams.random(spec, Rng(seed).child("psi"))
    U = random_weights(spec, Rng(seed).child("U"), Uniform(-1.0, 1.0), batch=batch)
    X = featurize(U, psi)
    assert X.shape == (batch, feature_count(spec))
    worst = 0.0
    for k in range(batch):
        want = _reference_features(_row(U, k), psi)
        worst = max(worst, rel_residual(X[k], want))
        worst = max(worst, rel_residual(featurize(_row(U, k), psi), want))
    return worst


def test_featurize_matches_reference_on_acceptance_grid():
    grid = Grid()
    specs = [grid.sample_spec(Rng(k).child("spec")) for k in range(60)]
    specs += [WeightSpec(2, (1, 1, 1), 2), WeightSpec(3, (1, 1, 1, 1), 1), WeightSpec(4, (1, 4, 1, 4, 1), 2)]
    assert any(1 in s.n for s in specs) and any(s.d == 2 for s in specs)
    worst = max(_worst_batched_residual(spec, k, batch=3) for k, spec in enumerate(specs))
    assert worst <= 1e-12


def test_featurize_matches_reference_deep_and_wide():
    assert _worst_batched_residual(WeightSpec(8, (32,) * 9, 1), 1, 16) <= 1e-12


def test_design_matrix_crosses_block_boundary():
    spec = WeightSpec(3, (2, 3, 2, 2), 2)
    psi = PsiParams.random(spec, Rng(3))
    count = 300
    assert STACK_BLOCK < count < 2 * STACK_BLOCK
    objects = [random_weights(spec, Rng(4).child("row", k)) for k in range(count)]
    X = fitting.design_matrix(objects, psi)
    assert X.shape == (count, feature_count(spec))
    worst = max(rel_residual(X[k], _reference_features(u, psi)) for k, u in enumerate(objects))
    assert worst <= 1e-12
