"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.

Grid: L in {2,3,4}, widths in {1..4}, input channels in {1,2}, output
channels in {1,3}, 64-bit floats, scale range (0.25, 4), 200 trials per
property suite (100 for the naive-oracle comparison).
"""

import json
import subprocess
import sys

import numpy as np

from magep import checks, fitting, layers, monomial, netfunc
from magep.activations import relu
from magep.dense import Rng, rel_residual
from magep.stableterms import PsiParams
from magep.weightspace import (
    Uniform,
    WeightSpec,
    load,
    random_weights,
    save,
)

from report_schema import assert_report

TRIALS = 200
SEED = 20250811


def _report(criterion: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion:>2} {name:<24} {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


def _suite(criterion: int, name: str, suite: str, trials: int = TRIALS) -> dict:
    rec = checks.run_suite(suite, trials, seed=SEED)
    _report(
        criterion,
        name,
        rec["pass"],
        f"max_residual={rec['max_residual']:.3e} tol={rec['tolerance']:.1e} trials={rec['trials']}",
    )
    return rec


def test_criterion_01_group_laws():
    rec = checks.run_suite("group", TRIALS, seed=SEED)
    details = rec["details"]
    ok = (
        rec["pass"]
        and details["perm_parts_exact"]
        and details["max_scale_residual"] <= 1e-14
        and rec["max_residual"] <= 1e-12
    )
    _report(
        1,
        "group laws",
        ok,
        f"scale={details['max_scale_residual']:.2e} action={rec['max_residual']:.2e}",
    )


def test_criterion_02_stability():
    _suite(2, "stable-term transforms", "stability")


def test_criterion_03_chain_identities():
    _suite(3, "chain identities", "chains")


def test_criterion_04_input_network_invariance():
    rec = checks.run_suite("netinv", TRIALS, seed=SEED)
    ok = rec["pass"] and rec["details"]["mismatch_witness_residual"] > 1e-3
    _report(
        4,
        "input-network invariance",
        ok,
        f"max_residual={rec['max_residual']:.3e} witness={rec['details']['mismatch_witness_residual']:.3e}",
    )


def test_criterion_05_layer_equivariance():
    _suite(5, "layer equivariance", "equiv")


def test_criterion_06_layer_invariance():
    _suite(6, "layer invariance", "inv")


def test_criterion_07_stack_invariance():
    _suite(7, "stack invariance", "stack")


def test_criterion_08_oracle_equivalence():
    _suite(8, "oracle equivalence", "oracle", trials=100)


def test_criterion_09_independence():
    rec = checks.run_suite("rank", TRIALS, seed=SEED)
    ok = (
        rec["pass"]
        and rec["details"]["asserted_full_rank"]
        and rec["details"]["coupled_deficiency_exact"]
    )
    _report(
        9,
        "feature independence",
        ok,
        f"min_sigma_ratio={rec['max_residual']:.3e} "
        f"coupled_deficiency_exact={rec['details']['coupled_deficiency_exact']}",
    )


def test_criterion_10_fitting():
    rng = Rng(SEED).child("fit")
    worst_planted = 0.0
    for idx, (L, d) in enumerate([(2, 1), (3, 2), (4, 1)]):
        r = rng.child("planted", idx)
        rn = r.child("n")
        n = tuple(int(rn.integers(1, 4)) for _ in range(L + 1))
        spec = WeightSpec(L, n, d)
        psi = PsiParams.random(spec, r.child("psi"))
        F = fitting.feature_count(spec)
        phi_star = r.child("star").uniform(-1.0, 1.0, (F, 1))

        def make(count, key):
            objs = tuple(
                random_weights(spec, r.child(key, k), Uniform(-1.0, 1.0))
                for k in range(count)
            )
            X = np.stack([fitting.featurize(u, psi) for u in objs])
            return fitting.FitDataset(objs, X @ phi_star)

        train = make(4 * F, "train")
        test = make(F, "test")
        result = fitting.fit_ridge(train, psi, 1e-10)
        worst_planted = max(worst_planted, fitting.evaluate(result, test, psi))

    spec = WeightSpec(2, (2, 3, 2), 1)
    r = rng.child("probes")
    psi = PsiParams.random(spec, r.child("psi"))
    F = fitting.feature_count(spec)
    objs = tuple(
        random_weights(spec, r.child("row", k), Uniform(-1.0, 1.0))
        for k in range(10 * F)
    )
    probes = [r.child("p", p).uniform(-1.0, 1.0, spec.n[0]) for p in range(4)]
    data = fitting.FitDataset(objs, netfunc.probe_targets(list(objs), probes, relu))
    train, test = data.split(0.8, r.child("split"))
    fit = fitting.fit_ridge(train, psi, 1e-8)
    model_mse = fitting.evaluate(fit, test, psi)
    constant_mse = float(np.mean((test.targets - train.targets.mean(axis=0)) ** 2))

    worst_inv = 0.0
    for k, u in enumerate(test.objects[:20]):
        g = monomial.sample(spec, r.child("g", k))
        worst_inv = max(
            worst_inv,
            rel_residual(
                fitting.predict(fit, monomial.act(g, u), psi),
                fitting.predict(fit, u, psi),
            ),
        )
    ok = (
        worst_planted <= 1e-10
        and constant_mse >= 2.0 * model_mse
        and worst_inv <= 1e-9
    )
    _report(
        10,
        "closed-form fitting",
        ok,
        f"planted_mse={worst_planted:.2e} probe_gain={constant_mse / model_mse:.2f}x "
        f"pred_invariance={worst_inv:.2e}",
    )


def test_criterion_11_formats_and_cli(tmp_path):
    spec = WeightSpec(3, (2, 3, 1, 2), 2)
    rng = Rng(SEED).child("formats")
    obj = random_weights(spec, rng.child("obj"), Uniform(-1.0, 1.0), batch=2)
    wpath = tmp_path / "w.mgw.json"
    save(obj, wpath)
    _, back = load(wpath)
    weights_exact = back.equal(obj)

    params = layers.init_equivariant(spec, 3, rng.child("eq"))
    ppath = tmp_path / "p.mgp.json"
    layers.save_params(params, ppath)
    reloaded = layers.load_params(ppath)
    params_exact = all(
        np.array_equal(v, reloaded.blocks()[k]) for k, v in params.blocks().items()
    )

    psi = PsiParams.random(spec, rng.child("psi"))
    data = fitting.FitDataset(
        tuple(random_weights(spec, rng.child("d", k), Uniform(-1.0, 1.0)) for k in range(40)),
        rng.child("y").uniform(-1.0, 1.0, (40, 2)),
    )
    fit = fitting.fit_ridge(data, psi, 1e-6).with_test_mse(0.5)
    fpath = tmp_path / "f.mgfit.json"
    fitting.save_fit(fit, fpath)
    fit_back = fitting.load_fit(fpath)
    fit_exact = (
        np.array_equal(fit_back.phi, fit.phi)
        and fit_back.train_mse == fit.train_mse
        and fit_back.test_mse == fit.test_mse
    )

    clean = subprocess.run(
        [sys.executable, "-m", "magep", "check", "--suite", "all", "--trials", "10",
         "--seed", "1", "--out", str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert_report(report)
    mutated = subprocess.run(
        [sys.executable, "-m", "magep", "check", "--suite", "all", "--trials", "6",
         "--seed", "1", "--corrupt-sharing"],
        capture_output=True,
        text=True,
    )
    ok = (
        weights_exact
        and params_exact
        and fit_exact
        and clean.returncode == 0
        and mutated.returncode == 1
    )
    _report(
        11,
        "formats and CLI contract",
        ok,
        f"weights={weights_exact} params={params_exact} fit={fit_exact} "
        f"clean_exit={clean.returncode} mutated_exit={mutated.returncode}",
    )
