"""The benchmark's workloads: input generation, the timed op, and its gate.

Every workload derives all of its inputs from the workload seed through
``magep.dense.Rng``; the same seed gives the same inputs.  Each one exposes

* ``setup(seed, size)`` -> state: parameter init and input generation,
* ``op(state, k)`` -> output: the unit of work that is timed,
* ``check(state, output, k)`` -> ``None`` or the reason the output is wrong,
  run untimed after every op,
* ``items(state, output)``: the work the op did, in the workload's unit.

``FULL`` is the measured size; ``TINY`` is the size the smoke test runs.

Why each workload exists (the layer it stresses, and the one it bypasses):

verify-grid
    ``checks.run_suites("all", trials=50, seed=seed + k)`` on the default
    grid.  Thousands of tiny calls (group action, ``init_*`` validation, the
    naive-loop oracle, rank reports) with negligible BLAS work, so a faster
    contraction or batched featurizer must not win here and any added
    per-call overhead shows as a loss.  50 trials, not the 200 of ``magep
    check``: a 3-4 s op leaves about seven ops per run, whose median spread
    by 0.16-0.27 of itself across runs; 50 trials give about thirty ops.
deep-forward
    One batched ``layers.stack_forward`` at L=6, n=(32,)*7, B=64: two
    equivariant layers d=1->4->4 with ``tanh`` (sign variant) and an
    invariant head e=4, d_out=3.  Time splits between ``all_terms`` and the
    einsum contractions.  Input weights are uniform(+-sqrt(3/32)), fan-in
    scaled: with uniform(-1, 1) at this depth and width the two-layer stack
    overflows to inf/NaN (with relu the first layer's entries reach 2e6).
probe-fit
    The ``magep fit --target probes`` pipeline at L=4, n=(4,16,16,16,4),
    d=1: probe targets of 2000 uniform(-1, 1) networks at 4 uniform(-1, 1)
    probes, a 0.8 split drawn from ``seed`` and the op index, ridge fit at
    lambda=1e-8 and test evaluation.  The per-object featurize loop
    dominates; the only workload where a batched featurizer pays off.
params-io
    Write and read back one batched ``.mgw.json`` (batch 16) and one
    ``.mgp.json`` of each layer kind, L=4, n=(16,)*5, d=2, e=4, d_out=3,
    about 4.0 MB per op.  The only workload on ``jsonio``,
    ``weightspace.save/load`` and ``layers.save_params/load_params``; the
    compute layers stay idle.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# Everything a run writes (reports, spans, params-io files) goes here.
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, dict], Any]
    op: Callable[[Any, int], Any]
    check: Callable[[Any, Any, int], "str | None"]
    items: Callable[[Any, Any], float]
    corrupt: Callable[[Any], Any]  # perturbs an op's output; used by the smoke test
    FULL: dict
    TINY: dict

    def teardown(self, st) -> None:
        if "dir" in st:
            shutil.rmtree(st["dir"], ignore_errors=True)


def _residual_bad(value: float, tol: float) -> bool:
    """True unless ``value <= tol``; NaN counts as bad."""
    return not value <= tol


# -- verify-grid --------------------------------------------------------------


def _vg_setup(seed, size):
    from magep import checks

    return {"grid": checks.Grid(), "seed": seed, "trials": size["trials"]}


def _vg_op(st, k):
    from magep import checks

    return checks.run_suites("all", trials=st["trials"], seed=st["seed"] + k, grid=st["grid"])


def _vg_check(st, report, k):
    for rec in report["suites"]:
        res, tol = rec["max_residual"], rec["tolerance"]
        if rec["pass"] is not True or res is None:
            return f"suite {rec['suite']} did not pass: residual {res!r}, tolerance {tol!r}"
        # rank reports its smallest singular-value ratio, a lower bound.
        bad = _residual_bad(tol, res) if rec["suite"] == "rank" else _residual_bad(res, tol)
        if bad:
            return f"suite {rec['suite']} residual {res!r} outside tolerance {tol!r}"
    if report.get("pass") is not True:
        return "report pass is not true"
    return None


def _vg_items(st, report):
    return float(sum(rec["trials"] for rec in report["suites"]))


def _vg_corrupt(report):
    rec = next(r for r in report["suites"] if r["suite"] == "equiv")
    rec["max_residual"] = 10 * rec["tolerance"]
    return report


# -- deep-forward -------------------------------------------------------------


def _df_setup(seed, size):
    from magep import layers, monomial
    from magep.activations import tanh
    from magep.dense import Rng
    from magep.weightspace import Uniform, WeightSpec, random_weights

    L, n, B = size["L"], size["n"], size["batch"]
    rng = Rng(seed).child("deep-forward")
    spec = WeightSpec(L, (n,) * (L + 1), 1)
    hidden = WeightSpec(L, spec.n, size["e"])
    a = math.sqrt(3.0 / n)
    return {
        "spec": spec,
        "inputs": [
            random_weights(spec, rng.child("U", j), Uniform(-a, a), batch=B)
            for j in range(size["pool"])
        ],
        "stack": [
            (layers.init_equivariant(spec, size["e"], rng.child("p1")), tanh),
            (layers.init_equivariant(hidden, size["e"], rng.child("p2")), tanh),
        ],
        "head": layers.init_invariant(hidden, size["e"], size["d_out"], rng.child("head")),
        "g": monomial.sample(spec, rng.child("g"), monomial.VARIANT_SIGN),
        "check_rows": size["check_rows"],
    }


def _df_op(st, k):
    from magep import layers

    return layers.stack_forward(st["stack"], st["head"], st["inputs"][k % len(st["inputs"])], "sign")


def _df_check(st, out, k):
    from magep import layers, monomial
    from magep.dense import rel_residual
    from magep.weightspace import WeightObject

    if not np.isfinite(out).all():
        return "non-finite stack output"
    if k != 0:
        return None
    # Once per run: the timed output's first rows against the stack applied
    # to g U, with g a sampled sign-variant group element.
    U = st["inputs"][0]
    r = st["check_rows"]
    head = WeightObject(U.spec, tuple(w[:r] for w in U.W), tuple(b[:r] for b in U.b), r)
    moved = layers.stack_forward(st["stack"], st["head"], monomial.act(st["g"], head), "sign")
    res = rel_residual(moved, out[:r])
    if _residual_bad(res, 1e-8):
        return f"stack invariance residual {res!r} > 1e-8"
    return None


def _df_items(st, out):
    return float(out.shape[0])


def _df_corrupt(out):
    out = out.copy()
    out[0, 0, 0] = np.inf
    return out


# -- probe-fit ----------------------------------------------------------------


def _pf_setup(seed, size):
    from magep import monomial
    from magep.dense import Rng
    from magep.stableterms import PsiParams
    from magep.weightspace import Uniform, WeightSpec, random_weights

    rng = Rng(seed).child("probe-fit")
    spec = WeightSpec(len(size["n"]) - 1, size["n"], 1)
    return {
        "rng": rng,
        "psi": PsiParams.random(spec, rng.child("psi")),
        "objects": tuple(
            random_weights(spec, rng.child("data", k), Uniform(-1.0, 1.0))
            for k in range(size["samples"])
        ),
        "probes": [
            rng.child("probe", p).uniform(-1.0, 1.0, spec.n[0]) for p in range(size["probes"])
        ],
        "g": monomial.sample(spec, rng.child("fresh-g")),
        "split": size["split"],
        "lam": size["lam"],
        "check_rows": size["check_rows"],
    }


def _pf_op(st, k):
    from magep import fitting, netfunc
    from magep.activations import relu

    targets = netfunc.probe_targets(list(st["objects"]), st["probes"], relu)
    data = fitting.FitDataset(st["objects"], targets)
    train, test = data.split(st["split"], st["rng"].child("split", k))
    result = fitting.fit_ridge(train, st["psi"], st["lam"])
    test_mse = fitting.evaluate(result, test, st["psi"])
    return {"result": result.with_test_mse(test_mse), "train": train, "test": test}


def _pf_check(st, out, k):
    from magep import fitting, monomial
    from magep.dense import rel_residual

    result, train, test = out["result"], out["train"], out["test"]
    if not (math.isfinite(result.train_mse) and math.isfinite(result.test_mse)):
        return "non-finite mean squared error"
    y = train.targets
    constant_mse = float(np.mean((y - y.mean(axis=0)) ** 2))
    if not result.train_mse <= constant_mse:
        return f"train mse {result.train_mse!r} above the constant predictor's {constant_mse!r}"
    if result.rank_deficient:
        return "fit flagged rank-deficient"
    for u in test.objects[: st["check_rows"]]:
        res = rel_residual(
            fitting.predict(result, monomial.act(st["g"], u), st["psi"]),
            fitting.predict(result, u, st["psi"]),
        )
        if _residual_bad(res, 1e-9):
            return f"prediction invariance residual {res!r} > 1e-9"
    return None


def _pf_items(st, out):
    return float(len(st["objects"]))


def _pf_corrupt(out):
    phi = out["result"].phi.copy()
    phi[0, 0] = np.nan
    out["result"] = type(out["result"])(
        phi, out["result"].lam, out["result"].train_mse, out["result"].test_mse
    )
    return out


# -- params-io ----------------------------------------------------------------


def _pi_setup(seed, size):
    from magep import layers
    from magep.dense import Rng
    from magep.weightspace import WeightSpec, random_weights

    L, n = size["L"], size["n"]
    rng = Rng(seed).child("params-io")
    spec = WeightSpec(L, (n,) * (L + 1), size["d"])
    workdir = os.path.join(OUT_DIR, f"params-io-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    return {
        "dir": workdir,
        "U": random_weights(spec, rng.child("U"), batch=size["batch"]),
        "eq": layers.init_equivariant(spec, size["e"], rng.child("eq")),
        "inv": layers.init_invariant(spec, size["e"], size["d_out"], rng.child("inv")),
    }


def _pi_paths(st, tag):
    return [os.path.join(st["dir"], f"{tag}{name}") for name in ("w.mgw.json", "eq.mgp.json", "inv.mgp.json")]


def _pi_op(st, k):
    from magep import layers, weightspace

    pw, pe, pv = _pi_paths(st, "")
    weightspace.save(st["U"], pw)
    layers.save_params(st["eq"], pe)
    layers.save_params(st["inv"], pv)
    return {
        "U": weightspace.load(pw)[1],
        "eq": layers.load_params(pe),
        "inv": layers.load_params(pv),
    }


def _params_equal(a, b) -> bool:
    if type(a) is not type(b) or a.spec != b.spec or a.e != b.e:
        return False
    ba, bb = a.blocks(), b.blocks()
    if ba.keys() != bb.keys() or not all(np.array_equal(ba[k], bb[k]) for k in ba):
        return False
    return all(
        np.array_equal(x[key], y[key])
        for x, y in ((a.psi.bw, b.psi.bw), (a.psi.ww, b.psi.ww))
        for key in x
    )


def _pi_check(st, out, k):
    from magep import layers, weightspace

    if not out["U"].equal(st["U"]):
        return "loaded weights differ from the saved ones"
    for kind in ("eq", "inv"):
        if not _params_equal(out[kind], st[kind]):
            return f"loaded {kind} parameters differ from the saved ones"
    first, again = _pi_paths(st, ""), _pi_paths(st, "resave-")
    weightspace.save(out["U"], again[0])
    layers.save_params(out["eq"], again[1])
    layers.save_params(out["inv"], again[2])
    for a, b in zip(first, again):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() != fb.read():
                return f"re-saving {os.path.basename(a)} changed its bytes"
    return None


def _pi_items(st, out):
    return sum(os.path.getsize(p) for p in _pi_paths(st, "")) / 1e6


def _pi_corrupt(out):
    W = list(out["U"].W)
    W[0] = W[0].copy()
    W[0].flat[0] = np.nextafter(W[0].flat[0], np.inf)
    out["U"] = type(out["U"])(out["U"].spec, tuple(W), out["U"].b, out["U"].batch)
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-grid", _vg_setup, _vg_op, _vg_check, _vg_items, _vg_corrupt,
            FULL={"trials": 50},
            TINY={"trials": 2},
        ),
        Workload(
            "deep-forward", _df_setup, _df_op, _df_check, _df_items, _df_corrupt,
            FULL={"L": 6, "n": 32, "batch": 64, "e": 4, "d_out": 3, "pool": 2, "check_rows": 8},
            TINY={"L": 3, "n": 4, "batch": 4, "e": 2, "d_out": 2, "pool": 2, "check_rows": 2},
        ),
        Workload(
            "probe-fit", _pf_setup, _pf_op, _pf_check, _pf_items, _pf_corrupt,
            FULL={"n": (4, 16, 16, 16, 4), "samples": 2000, "probes": 4, "split": 0.8,
                  "lam": 1e-8, "check_rows": 16},
            TINY={"n": (2, 3, 2), "samples": 80, "probes": 2, "split": 0.8,
                  "lam": 1e-8, "check_rows": 4},
        ),
        Workload(
            "params-io", _pi_setup, _pi_op, _pi_check, _pi_items, _pi_corrupt,
            FULL={"L": 4, "n": 16, "d": 2, "e": 4, "d_out": 3, "batch": 16},
            TINY={"L": 2, "n": 3, "d": 1, "e": 2, "d_out": 2, "batch": 2},
        ),
    )
}
