import math
from fractions import Fraction

import numpy as np
import pytest

from magep import fitting, monomial, netfunc
from magep.activations import leaky_relu, relu
from magep.dense import Rng, rel_residual
from magep.errors import ValidationError
from magep.stableterms import _FEATURE_PARTS, PsiParams
from magep.weightspace import Uniform, WeightObject, WeightSpec, random_weights

from helpers import constant_psi

SPEC = WeightSpec(2, (1, 2, 1), 1)


def _dataset(spec, psi, count, seed, target_fn):
    objs = tuple(
        random_weights(spec, Rng(seed).child("row", k), Uniform(-1.0, 1.0))
        for k in range(count)
    )
    targets = target_fn(objs)
    return fitting.FitDataset(objs, targets)


def test_feature_count_hand_value():
    assert fitting.feature_count(SPEC) == 8
    assert fitting.feature_count(WeightSpec(2, (2, 3, 2), 1)) == 19


def test_featurize_zero_object_is_unit_tail():
    vec = fitting.featurize(WeightObject.zeros(SPEC), PsiParams.random(SPEC, Rng(0)))
    assert vec[-1] == 1.0
    assert np.all(vec[:-1] == 0.0)


def test_featurize_invariant_under_group():
    worst = 0.0
    for k in range(20):
        r = Rng(8000 + k)
        L = int(r.child("L").integers(2, 4))
        n = tuple(int(v) for v in r.child("n").integers(1, 3, L + 1))
        spec = WeightSpec(L, n, int(r.child("d").integers(1, 2)))
        psi = PsiParams.random(spec, r.child("psi"))
        U = random_weights(spec, r.child("U"), Uniform(-1.0, 1.0))
        variant = "positive" if k % 2 == 0 else "sign"
        g = monomial.sample(spec, r.child("g"), variant)
        worst = max(
            worst,
            rel_residual(
                fitting.featurize(monomial.act(g, U), psi), fitting.featurize(U, psi)
            ),
        )
    assert worst <= 1e-10


def test_planted_coefficients_are_recovered():
    spec = WeightSpec(2, (2, 3, 2), 1)
    psi = PsiParams.random(spec, Rng(1))
    F = fitting.feature_count(spec)
    rng = Rng(2)
    phi_star = rng.child("star").uniform(-1.0, 1.0, (F, 2))

    def targets(objs):
        X = np.stack([fitting.featurize(u, psi) for u in objs])
        return X @ phi_star

    train = _dataset(spec, psi, 4 * F, 3, targets)
    test = _dataset(spec, psi, F, 4, targets)
    result = fitting.fit_ridge(train, psi, 1e-10)
    assert result.train_mse <= 1e-10
    assert fitting.evaluate(result, test, psi) <= 1e-10


def test_zero_targets_give_zero_coefficients():
    psi = PsiParams.random(SPEC, Rng(5))
    data = _dataset(SPEC, psi, 20, 6, lambda objs: np.zeros((len(objs), 1)))
    result = fitting.fit_ridge(data, psi, 1e-4)
    assert np.allclose(result.phi, 0.0)
    assert result.train_mse == 0.0


def _exact_solve(A, b):
    """Solve ``A x = b`` over the rationals by Gaussian elimination."""
    n = len(A)
    M = [list(A[i]) + [b[i]] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        for r in range(c + 1, n):
            f = M[r][c] / M[c][c]
            if f:
                M[r] = [a - f * q for a, q in zip(M[r], M[c])]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        x[r] = (M[r][n] - sum(M[r][k] * x[k] for k in range(r + 1, n))) / M[r][r]
    return x


def test_duplicate_rows_equal_weighted_normal_equations():
    spec = WeightSpec(2, (2, 2, 2), 1)
    psi = PsiParams.random(spec, Rng(7))
    F = fitting.feature_count(spec)
    base = _dataset(spec, psi, 2 * F, 8, lambda objs: Rng(9).uniform(-1.0, 1.0, (len(objs), 1)))
    doubled = fitting.FitDataset(base.objects + base.objects, np.vstack([base.targets] * 2))
    lam = 1e-3
    X = fitting.design_matrix(base.objects, psi)
    # Reference phi* = (2 X^T X + lam I)^-1 2 X^T y, exact over the rationals
    # from the same float64 X, y and lam, so it carries no rounding of its own.
    Xq = [[Fraction(v) for v in row] for row in X.tolist()]
    yq = [Fraction(v) for v in base.targets[:, 0].tolist()]
    G = [
        [2 * sum(row[i] * row[j] for row in Xq) + Fraction(lam) * (i == j) for j in range(F)]
        for i in range(F)
    ]
    rhs = [2 * sum(row[i] * v for row, v in zip(Xq, yq)) for i in range(F)]
    want = np.array([[float(v)] for v in _exact_solve(G, rhs)])
    # A float64 solve of G has forward error up to about cond2(G) * eps * max|phi*|
    # (Higham, ch. 10 and 12).  Here cond2(G) ~ 8.7e4, so the bound is ~2.1e-11.
    # Measured against phi*: a float64 np.linalg.solve of G is off by 1.55e-12;
    # fit_ridge by 5.4e-13 on OpenBLAS's AVX-512 kernel and by 1.25e-12 with
    # OPENBLAS_CORETYPE=Sandybridge, so no fixed 1e-12 bound holds across kernels.
    G64 = 2.0 * X.T @ X + lam * np.eye(F)
    bound = np.linalg.cond(G64) * np.finfo(np.float64).eps * np.max(np.abs(want))
    result = fitting.fit_ridge(doubled, psi, lam)
    assert not result.rank_deficient  # the Cholesky path ran, not the lstsq fallback
    assert np.max(np.abs(result.phi - want)) <= bound
    # The bound must still catch rows counted once (phi moves by ~7.3e-4).
    once = np.linalg.solve(X.T @ X + lam * np.eye(F), X.T @ base.targets)
    assert np.max(np.abs(once - want)) > 1e6 * bound


def test_lambda_zero_minimum_norm_flags_rank_deficiency():
    # width-one collapse makes two features exactly collinear
    spec = WeightSpec(2, (1, 1, 1), 1)
    psi = constant_psi(spec, 1.0)
    data = _dataset(spec, psi, 30, 10, lambda objs: np.ones((len(objs), 1)))
    result = fitting.fit_ridge(data, psi, 0.0)
    assert result.rank_deficient


def test_evaluate_perfect_and_constant_predictors():
    psi = PsiParams.random(SPEC, Rng(11))
    F = fitting.feature_count(SPEC)
    data = _dataset(SPEC, psi, 25, 12, lambda objs: Rng(13).uniform(-1.0, 1.0, (len(objs), 1)))
    fit = fitting.fit_ridge(data, psi, 0.0)
    preds = fitting.design_matrix(data.objects, psi) @ fit.phi
    perfect = fitting.FitDataset(data.objects, preds)
    assert fitting.evaluate(fit, perfect, psi) <= 1e-20

    centered = fitting.FitDataset(data.objects, data.targets - data.targets.mean(axis=0))
    zero_predictor = fitting.FitResult(np.zeros((F, 1)), 0.0, 0.0)
    mse = fitting.evaluate(zero_predictor, centered, psi)
    assert mse == pytest.approx(float(np.var(centered.targets)), abs=1e-12)


def test_evaluate_invariant_under_group_augmented_split():
    spec = WeightSpec(2, (2, 2, 2), 1)
    psi = PsiParams.random(spec, Rng(14))
    data = _dataset(spec, psi, 40, 15, lambda objs: Rng(16).uniform(-1.0, 1.0, (len(objs), 1)))
    fit = fitting.fit_ridge(data, psi, 1e-6)
    gs = [monomial.sample(spec, Rng(17).child(k)) for k in range(len(data))]
    shifted = fitting.FitDataset(
        tuple(monomial.act(g, u) for g, u in zip(gs, data.objects)), data.targets
    )
    assert fitting.evaluate(fit, shifted, psi) == pytest.approx(
        fitting.evaluate(fit, data, psi), rel=1e-9
    )


def test_prediction_invariance():
    spec = WeightSpec(2, (2, 3, 2), 1)
    psi = PsiParams.random(spec, Rng(18))
    data = _dataset(spec, psi, 60, 19, lambda objs: Rng(20).uniform(-1.0, 1.0, (len(objs), 2)))
    fit = fitting.fit_ridge(data, psi, 1e-8)
    worst = 0.0
    for k, u in enumerate(data.objects[:10]):
        g = monomial.sample(spec, Rng(21).child(k))
        worst = max(
            worst,
            rel_residual(
                fitting.predict(fit, monomial.act(g, u), psi),
                fitting.predict(fit, u, psi),
            ),
        )
    assert worst <= 1e-9


def test_probe_target_fit_beats_constant_predictor():
    spec = WeightSpec(2, (2, 3, 2), 1)
    rng = Rng(22)
    psi = PsiParams.random(spec, rng.child("psi"))
    F = fitting.feature_count(spec)
    objs = tuple(
        random_weights(spec, rng.child("row", k), Uniform(-1.0, 1.0))
        for k in range(10 * F)
    )
    probes = [rng.child("probe", p).uniform(-1.0, 1.0, spec.n[0]) for p in range(4)]
    targets = netfunc.probe_targets(list(objs), probes, relu)
    data = fitting.FitDataset(objs, targets)
    train, test = data.split(0.8, rng.child("split"))
    fit = fitting.fit_ridge(train, psi, 1e-8)
    model_mse = fitting.evaluate(fit, test, psi)
    constant_mse = float(np.mean((test.targets - train.targets.mean(axis=0)) ** 2))
    assert constant_mse >= 2.0 * model_mse


def _part_columns(spec, names):
    """Columns of the named feature parts in every channel, then the constant."""
    cols, start = [], 0
    for _ in range(spec.d):
        for name, shape, per_layer in _FEATURE_PARTS:
            width = math.prod(shape(spec)) * (spec.L - 1 if per_layer else 1)
            if name in names:
                cols += range(start, start + width)
            start += width
    return cols + [start]


@pytest.mark.parametrize("n", [(2, 3, 3, 2), (4, 16, 16, 16, 4)])
def test_linear_networks_lie_in_the_span_of_their_linear_parts(n):
    # leaky_relu(1.0) is the identity, so f(x; U) = [W]^(L,0) x + sum_t
    # [Wb]^(L,t)(t) + b^(L): at fixed probes a linear function of the WL0,
    # Wb and b parts alone.
    spec = WeightSpec(len(n) - 1, n, 1)
    rng = Rng(5)
    psi = PsiParams.random(spec, rng.child("psi"))
    N = 3 * fitting.feature_count(spec)
    objs = [random_weights(spec, rng.child("row", k), Uniform(-1.0, 1.0)) for k in range(N)]
    probes = [rng.child("probe", p).uniform(-1.0, 1.0, spec.n[0]) for p in range(3)]
    X = fitting.design_matrix(objs, psi)[:, _part_columns(spec, {"WL0", "Wb", "b"})]

    def residual(act):
        y = netfunc.probe_targets(objs, probes, act)
        phi = np.linalg.lstsq(X, y, rcond=None)[0]
        return np.max(np.abs(X @ phi - y)) / np.max(np.abs(y))

    # A backward-stable least-squares solve of a consistent system leaves a
    # relative residual of about N eps (cond2(X) + 1) at most (Higham, ch. 20).
    # Measured: 1.1e-15 at cond2 2.9 and 1.6e-15 at cond2 19, against bounds
    # of 6.0e-14 and 9.3e-13.
    bound = N * np.finfo(np.float64).eps * (np.linalg.cond(X) + 1.0)
    assert residual(leaky_relu(1.0)) <= bound
    # The relu net is not linear, so the same columns must miss it (0.59, 0.94).
    assert residual(relu) >= 0.1


def test_design_matrix_of_no_objects_is_empty():
    spec = WeightSpec(3, (2, 3, 3, 2), 2)
    X = fitting.design_matrix([], PsiParams.random(spec, Rng(40)))
    assert X.shape == (0, fitting.feature_count(spec))


def test_fit_validation():
    psi = PsiParams.random(SPEC, Rng(23))
    data = _dataset(SPEC, psi, 5, 24, lambda objs: np.zeros((len(objs), 1)))
    for lam in (-1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            fitting.fit_ridge(data, psi, lam)
    with pytest.raises(ValidationError):
        fitting.fit_ridge(fitting.FitDataset((), np.zeros((0, 1))), psi, 1.0)
    with pytest.raises(ValidationError):
        fitting.evaluate(
            fitting.FitResult(np.zeros((8, 1)), 0.0, 0.0),
            fitting.FitDataset((), np.zeros((0, 1))),
            psi,
        )


def test_fit_round_trip_bit_exact(tmp_path):
    psi = PsiParams.random(SPEC, Rng(25))
    data = _dataset(SPEC, psi, 24, 26, lambda objs: Rng(27).uniform(-1.0, 1.0, (len(objs), 3)))
    fit = fitting.fit_ridge(data, psi, 1e-8).with_test_mse(0.125)
    path = tmp_path / "result.mgfit.json"
    fitting.save_fit(fit, path)
    loaded = fitting.load_fit(path)
    assert np.array_equal(loaded.phi, fit.phi)
    assert loaded.lam == fit.lam
    assert loaded.train_mse == fit.train_mse
    assert loaded.test_mse == fit.test_mse
