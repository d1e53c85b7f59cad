"""Command-line entry point: generation, verification and fitting.

Exit codes: 0 success, 1 suite failure, 2 usage error, 3 I/O error.
All reports are JSON with a ``format: "report/1"`` field.  Trial ``k`` of
suite ``name`` draws from ``Rng(seed).child(name, k)``; a check report does
not yet name the trial behind a suite's worst residual.  Trials run
serially, so results never depend on scheduling.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import checks, fitting, jsonio, monomial, netfunc
from .activations import relu
from .dense import Rng, rel_residual
from .errors import MagepError
from .stableterms import PsiParams
from .weightspace import Gaussian, Uniform, WeightSpec, random_weights, save

EXIT_OK = 0
EXIT_SUITE_FAILURE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise MagepError(f"expected a comma-separated integer list, got {text!r}") from exc


def _spec_from_args(args) -> WeightSpec:
    n = _parse_int_list(args.n)
    return WeightSpec(L=args.L, n=n, d=args.d)


def _grid_from_args(args) -> checks.Grid:
    try:
        lo, hi = (float(v) for v in args.scale_range.split(","))
    except ValueError as exc:
        raise MagepError(f"--scale-range expects LO,HI, got {args.scale_range!r}") from exc
    return checks.Grid(
        L_values=_parse_int_list(args.L_values),
        n_max=args.n_max,
        d_values=_parse_int_list(args.d_values),
        e_values=_parse_int_list(args.e_values),
        scale_range=(lo, hi),
    )


def _emit(doc: dict, out: str | None) -> None:
    text = jsonio.dumps(doc)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    if args.count < 0:
        raise MagepError(f"--count must be >= 0, got {args.count}")
    if args.batch is not None and args.batch < 1:
        raise MagepError(f"--batch must be >= 1, got {args.batch}")
    if args.dist == "uniform":
        dist = Uniform(args.lo, args.hi)
    else:
        dist = Gaussian(args.mean, args.std)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        rng = Rng(args.seed + k)
        obj = random_weights(spec, rng, dist, batch=args.batch)
        save(obj, out_dir / f"weights_{k:04d}.mgw.json")
    print(f"wrote {args.count} weight files to {out_dir}")
    return EXIT_OK


def cmd_check(args) -> int:
    grid = _grid_from_args(args)
    overrides = {}
    for item in args.tol or ():
        name, _, value = item.partition("=")
        if name not in checks.SUITE_NAMES or not value:
            raise MagepError(f"--tol expects SUITE=VALUE with a known suite, got {item!r}")
        try:
            overrides[name] = float(value)
        except ValueError as exc:
            raise MagepError(f"--tol value {value!r} is not a number") from exc
    report = checks.run_suites(
        args.suite,
        args.trials,
        args.seed,
        grid,
        overrides,
        mutate_sharing=args.corrupt_sharing,
    )
    for rec in report["suites"]:
        status = "pass" if rec["pass"] else "FAIL"
        residual = rec["max_residual"]
        if residual is None:
            shown = "error" if "error" in rec["details"] else "non-finite"
        else:
            shown = f"{residual:.3e}"
        print(
            f"[{status}] {rec['suite']:<10} trials={rec['trials']:<4} "
            f"max_residual={shown} tol={rec['tolerance']:.1e}",
            file=sys.stderr,
        )
    _emit(report, args.out)
    return EXIT_OK if report["pass"] else EXIT_SUITE_FAILURE


def cmd_fit(args) -> int:
    if not 0.0 <= args.lam < math.inf:
        raise MagepError(f"--lambda must be finite and >= 0, got {args.lam}")
    if not 0.0 < args.split < 1.0:
        raise MagepError(f"--split must be in (0, 1), got {args.split}")
    if args.probes < 1:
        raise MagepError(f"--probes must be >= 1, got {args.probes}")
    if args.samples is not None and args.samples < 1:
        raise MagepError(f"--samples must be >= 1, got {args.samples}")
    if args.samples_per_feature < 1:
        raise MagepError(f"--samples-per-feature must be >= 1, got {args.samples_per_feature}")
    if args.target == "probes" and args.d != 1:
        raise MagepError(f"--target probes needs --d 1, got {args.d}")
    spec = _spec_from_args(args)
    F = fitting.feature_count(spec)
    total = args.samples if args.samples is not None else args.samples_per_feature * F
    if not 0 < fitting.train_rows(args.split, total) < total:
        raise MagepError(
            f"--split {args.split} of {total} rows leaves an empty train or test set; "
            "change --split or --samples"
        )
    rng = Rng(args.seed)
    psi = PsiParams.random(spec, rng.child("psi"))
    objects = tuple(
        random_weights(spec, rng.child("data", k), Uniform(-1.0, 1.0))
        for k in range(total)
    )
    if args.target == "planted":
        phi_star = rng.child("phi-star").uniform(-1.0, 1.0, (F, 1))
        targets = fitting.design_matrix(objects, psi) @ phi_star
    else:
        probes = [
            rng.child("probe", p).uniform(-1.0, 1.0, spec.n[0])
            for p in range(args.probes)
        ]
        targets = netfunc.probe_targets(list(objects), probes, relu)
    data = fitting.FitDataset(objects, targets)
    train, test = data.split(args.split, rng.child("split"))
    result = fitting.fit_ridge(train, psi, args.lam)
    test_mse = fitting.evaluate(result, test, psi)
    result = result.with_test_mse(test_mse)

    g = monomial.sample(spec, rng.child("fresh-g"))
    worst = 0.0
    for u in test.objects[: min(len(test), 16)]:
        worst = max(
            worst,
            rel_residual(
                fitting.predict(result, monomial.act(g, u), psi),
                fitting.predict(result, u, psi),
            ),
        )
    print(
        f"train_mse={result.train_mse:.6e} test_mse={test_mse:.6e} "
        f"invariance_residual={worst:.3e}",
        file=sys.stderr,
    )
    if args.out:
        fitting.save_fit(result, args.out)
    report = {
        "format": "report/1",
        "command": "fit",
        "seed": args.seed,
        "target": args.target,
        "lambda": args.lam,
        "features": F,
        "samples": total,
        "train_mse": result.train_mse,
        "test_mse": test_mse,
        "prediction_invariance_residual": worst,
        "fresh_g": g.to_json(),
        "rank_deficient": result.rank_deficient,
    }
    _emit(report, args.report_out)
    return EXIT_OK


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    grid = checks.Grid()
    text = lambda values: ",".join(map(str, values))
    p.add_argument("--L-values", default=text(grid.L_values), help="grid layer counts")
    p.add_argument("--d-values", default=text(grid.d_values), help="grid input channel counts")
    p.add_argument("--e-values", default=text(grid.e_values), help="grid output channel counts")
    p.add_argument("--n-max", type=int, default=grid.n_max, help="grid max width")
    p.add_argument("--scale-range", default=text(grid.scale_range), help="group scale range lo,hi")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magep",
        description="Weight-space symmetry actions, polynomial layers, and their verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate random weight files")
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--n", required=True, help="comma-separated widths n_0..n_L")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--dist", choices=("uniform", "gaussian"), default="uniform")
    p.add_argument("--lo", type=float, default=-1.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--mean", type=float, default=0.0)
    p.add_argument("--std", type=float, default=1.0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite", choices=checks.SUITE_NAMES + ("all",), default="all")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the JSON report here instead of stdout")
    p.add_argument("--tol", action="append", metavar="SUITE=VALUE", help="override one tolerance")
    p.add_argument("--corrupt-sharing", action="store_true", help=argparse.SUPPRESS)
    _add_grid_flags(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("fit", help="closed-form toy fit of the invariant features")
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--n", default="2,3,2")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=1e-8)
    p.add_argument("--target", choices=("planted", "probes"), default="probes")
    p.add_argument("--probes", type=int, default=4)
    p.add_argument("--samples", type=int, default=None, help="total rows (overrides --samples-per-feature)")
    p.add_argument("--samples-per-feature", type=int, default=10)
    p.add_argument("--split", type=float, default=0.8)
    p.add_argument("--out", default=None, help="write the fit result here (.mgfit.json)")
    p.add_argument("--report-out", default=None)
    p.set_defaults(fn=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MagepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
