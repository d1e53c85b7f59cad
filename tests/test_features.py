"""The batched O(L) featurizer against the per-object definition from all_terms."""

import numpy as np
import pytest

from magep import fitting
from magep.checks import Grid
from magep.dense import Rng, rel_residual
from magep.stableterms import PsiParams, all_terms, feature_count, featurize
from magep.weightspace import STACK_BLOCK, Uniform, WeightObject, WeightSpec, random_weights

from helpers import abs_psi


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


def _prefix_chain_traces(U, psi):
    """``tr [WW]^(s,0)(L,s)`` for s = L-1..1, ``[..., d, L-1]``, as the
    featurizer once formed it: ``[W]^(s,0) Psi^(s,s)`` from the prefix
    chain, summed entrywise against the transposed suffix chain ``[W]^(L,s)``."""
    L = U.spec.L
    prefix, suffix = {1: U.weight(1)}, {L - 1: U.weight(L)}
    for s in range(2, L):
        prefix[s] = np.matmul(U.weight(s), prefix[s - 1])
    for t in range(L - 2, 0, -1):
        suffix[t] = np.matmul(suffix[t + 1], U.weight(t + 1))
    return np.stack([
        np.einsum("...ij,...ji->...", np.matmul(prefix[s], psi.ww[(s, s)]), suffix[s])
        for s in range(L - 1, 0, -1)
    ], axis=-1)


def _trace_columns(X, spec):
    """The ``trWW`` columns of feature rows, ``[..., d, L-1]``: each channel
    starts with the two ``[n_L, n_0]`` parts."""
    start = 2 * spec.n[0] * spec.n[-1]
    return X[..., :-1].reshape(X.shape[:-1] + (spec.d, -1))[..., start : start + spec.L - 1]


# (n, d, batch): L from 2 to 5, d up to 3, width-1 layers, unbatched and batched.
TRACE_CASES = [
    ((2, 3, 2), 1, None),
    ((1, 1, 1), 3, 2),
    ((3, 1, 4), 2, None),
    ((2, 1, 3, 2), 3, 4),
    ((3, 2, 4, 1, 2), 2, 3),
    ((1, 3, 2, 3, 1), 1, None),
    ((2, 3, 2, 3, 2, 3), 3, None),
    ((4, 1, 2, 1, 3, 4), 2, 2),
]


@pytest.mark.parametrize("n, d, batch", TRACE_CASES, ids=str)
def test_trace_features_match_the_prefix_chain_and_the_full_term(n, d, batch):
    # featurize reads tr [WW]^(s,0)(L,s) as tr(Psi^(s,s) [W]^(L,0)).  Each of
    # the three evaluations sums products of rounded factors over at most
    # k = sum(n) + n0 nL + 1 rounded operations in a row, so each lies within
    # gamma_k of the exact value, relative to the same contraction over |U|
    # and |Psi|; that contraction is itself rounded, hence 1 / (1 - gamma_k).
    spec = WeightSpec(len(n) - 1, n, d)
    L = spec.L
    U = random_weights(spec, Rng(21), Uniform(-1.0, 1.0), batch=batch)
    psi = PsiParams.random(spec, Rng(22))
    got = _trace_columns(featurize(U, psi), spec)
    lead = () if batch is None else (batch,)
    assert got.shape == lead + (d, L - 1)
    tr = lambda m: np.trace(m, axis1=-2, axis2=-1)
    T, A = all_terms(U, psi), all_terms(U.map(np.abs), abs_psi(psi))
    hidden = range(L - 1, 0, -1)
    from_terms = np.stack([tr(T.ww[(s, s)]) for s in hidden], axis=-1)
    scale = np.stack([tr(A.ww[(s, s)]) for s in hidden], axis=-1)
    k = sum(n) + n[0] * n[-1] + 1
    u = np.finfo(np.float64).eps / 2
    gamma = k * u / (1 - k * u)
    for want in (_prefix_chain_traces(U, psi), from_terms):
        assert np.all(np.abs(got - want) <= 2 * gamma * scale / (1 - gamma))


def test_a_write_to_a_diagonal_psi_block_reaches_the_next_featurize():
    spec = WeightSpec(4, (2, 3, 1, 3, 2), 2)
    U = random_weights(spec, Rng(23), Uniform(-1.0, 1.0), batch=3)
    psi = PsiParams.random(spec, Rng(24))
    before = featurize(U, psi)
    psi.ww[(2, 2)][...] = Rng(25).uniform(-1.0, 1.0, (2, 2))
    after = featurize(U, psi)
    # Only the s = 2 trace moves; it is the middle of the L-1 = 3 columns.
    moved = np.zeros(before.shape, dtype=bool)
    _trace_columns(moved, spec)[..., 1] = True
    assert moved.sum() == 3 * spec.d
    assert np.array_equal(before[~moved], after[~moved])
    assert np.all(_trace_columns(before, spec)[..., 1] != _trace_columns(after, spec)[..., 1])
    assert rel_residual(_trace_columns(after, spec), _prefix_chain_traces(U, psi)) <= 1e-12
