import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from magep import checks, cli
from magep.checks import Grid
from magep.cli import build_parser, main

from report_schema import assert_report


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "magep", *args], capture_output=True, text=True
    )


def test_gen_writes_reproducible_files(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        res = run_cli(
            "gen", "--L", "2", "--n", "1,2,1", "--d", "1",
            "--count", "5", "--seed", "7", "--out-dir", str(out),
        )
        assert res.returncode == 0, res.stderr
    files_a = sorted(p.name for p in a.glob("*.mgw.json"))
    assert len(files_a) == 5
    for name in files_a:
        assert (a / name).read_text() == (b / name).read_text()


def test_gen_rejects_zero_width(tmp_path):
    res = run_cli("gen", "--L", "2", "--n", "1,0,1", "--count", "1", "--out-dir", str(tmp_path))
    assert res.returncode == 2
    assert "widths" in res.stderr


def test_gen_count_zero_is_ok(tmp_path):
    res = run_cli("gen", "--L", "2", "--n", "1,1,1", "--count", "0", "--out-dir", str(tmp_path))
    assert res.returncode == 0
    assert list(tmp_path.glob("*.mgw.json")) == []


def test_gen_io_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    res = run_cli(
        "gen", "--L", "2", "--n", "1,1,1", "--count", "1",
        "--out-dir", str(blocker / "sub"),
    )
    assert res.returncode == 3


def test_unknown_flag_is_usage_error():
    res = run_cli("check", "--bogus")
    assert res.returncode == 2


def test_check_clean_run_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli(
        "check", "--suite", "all", "--trials", "20", "--seed", "1", "--out", str(out)
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(out.read_text())
    assert_report(report)
    assert report["pass"] is True
    assert len(report["suites"]) == 9


def test_check_sharing_mutation_fails(tmp_path):
    res = run_cli(
        "check", "--suite", "equiv", "--trials", "6", "--seed", "3", "--corrupt-sharing"
    )
    assert res.returncode == 1
    report = json.loads(res.stdout)
    assert report["pass"] is False


@pytest.mark.parametrize("suite", ["inv", "stack"])
def test_check_sharing_mutation_without_equiv_is_usage_error(suite):
    res = run_cli("check", "--suite", suite, "--trials", "4", "--seed", "3", "--corrupt-sharing")
    assert res.returncode == 2
    assert "needs the equiv suite" in res.stderr
    assert "[pass]" not in res.stderr and res.stdout == ""


def test_collapse_psi_is_an_unknown_flag(tmp_path):
    # The rank suite asserts the coupled deficiency at every connection
    # matrix, so there is no collapsing mode to select.
    res = run_cli("check", "--suite", "rank", "--collapse-psi", "--out", str(tmp_path / "r.json"))
    assert res.returncode == 2
    assert "unrecognized arguments: --collapse-psi" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_check_tolerance_override():
    res = run_cli(
        "check", "--suite", "chains", "--trials", "5", "--seed", "1",
        "--tol", "chains=1e-30",
    )
    assert res.returncode == 1  # impossible tolerance must fail


def test_fit_planted_mode(tmp_path):
    out = tmp_path / "fit.mgfit.json"
    report_out = tmp_path / "report.json"
    res = run_cli(
        "fit", "--target", "planted", "--L", "2", "--n", "1,2,1",
        "--seed", "5", "--lambda", "1e-10", "--samples-per-feature", "4",
        "--out", str(out), "--report-out", str(report_out),
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(report_out.read_text())
    assert_report(report)
    assert report["test_mse"] <= 1e-10
    assert out.exists()


def test_fit_probe_mode_invariance_residual():
    res = run_cli(
        "fit", "--target", "probes", "--seed", "6", "--samples-per-feature", "6"
    )
    assert res.returncode == 0, res.stderr
    report = json.loads(res.stdout)
    assert report["prediction_invariance_residual"] <= 1e-9


def test_fit_negative_lambda_is_usage_error():
    res = run_cli("fit", "--lambda", "-1")
    assert res.returncode == 2


def test_main_callable_inprocess(tmp_path, capsys):
    rc = main(
        ["gen", "--L", "2", "--n", "1,1,1", "--count", "1", "--seed", "0",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0


def test_bench_is_an_unknown_command(tmp_path):
    # Timing goes through perfbench/run.py; the CLI has no bench command.
    res = run_cli("bench", "--reps", "1", "--out", str(tmp_path / "bench.json"))
    assert res.returncode == 2
    assert res.stderr.startswith("usage: magep ")
    assert "invalid choice: 'bench'" in res.stderr
    assert "Traceback" not in res.stderr and res.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_without_trials_is_usage_error(trials):
    res = run_cli("check", "--suite", "group", "--trials", trials)
    assert res.returncode == 2
    assert "trials must be an integer >= 1" in res.stderr
    assert "[pass]" not in res.stderr


def test_fit_without_probes_is_usage_error():
    res = run_cli("fit", "--probes", "0")
    assert res.returncode == 2
    assert "--probes must be >= 1" in res.stderr


# Each command with its outputs under ``out``; the invalid flag is appended.
_BASE = {
    "gen": lambda out: ["gen", "--L", "2", "--n", "1,2,1", "--count", "2", "--out-dir", str(out / "g")],
    "check": lambda out: ["check", "--trials", "2", "--out", str(out / "report.json")],
    "fit": lambda out: ["fit", "--out", str(out / "f.mgfit.json"), "--report-out", str(out / "f.json")],
}

_INVALID = [
    ("gen", "--batch", "0"),
    ("gen", "--batch", "-1"),
    ("gen", "--lo", "nan"),
    ("gen", "--hi", "inf"),
    ("gen", "--dist", "gaussian", "--std", "nan"),
    ("gen", "--dist", "gaussian", "--mean", "inf"),
    ("check", "--n-max", "0"),
    ("check", "--n-max", "1"),
    ("check", "--L-values", "1"),
    ("check", "--d-values", "0"),
    ("check", "--e-values", "0"),
    ("check", "--scale-range", "nan,4"),
    ("check", "--scale-range", "0,4"),
    ("check", "--scale-range", "4,1"),
    ("check", "--scale-range", "1,inf"),
    ("check", "--tol", "equiv=nan"),
    ("check", "--tol", "equiv=inf"),
    ("fit", "--lambda", "nan"),
    ("fit", "--lambda", "inf"),
    ("fit", "--samples", "0"),
    ("fit", "--samples-per-feature", "0"),
    ("fit", "--samples-per-feature", "-3"),
    ("fit", "--target", "probes", "--d", "2"),
]


@pytest.mark.parametrize("case", _INVALID, ids=[" ".join(c) for c in _INVALID])
def test_invalid_flag_is_usage_error_before_any_work(tmp_path, case):
    command, *flags = case
    res = run_cli(*_BASE[command](tmp_path), *flags)
    assert res.returncode == 2, res.stderr
    # One error line: no traceback, and no suite or fit progress before it.
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
    assert res.stdout == ""
    assert list(tmp_path.iterdir()) == []


_EMPTY_SPLITS = [
    ("--samples", "10", "--split", "0.99"),  # no test row
    ("--samples", "1"),  # no test row at the default split
    ("--samples", "10", "--split", "0.01"),  # no train row
]


@pytest.mark.parametrize("flags", _EMPTY_SPLITS, ids=[" ".join(f) for f in _EMPTY_SPLITS])
def test_fit_with_an_empty_split_is_usage_error_before_any_draw(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.setattr(cli, "random_weights", lambda *a, **k: pytest.fail("drew data"))
    monkeypatch.setattr(cli.PsiParams, "random", lambda *a, **k: pytest.fail("drew psi"))
    assert main([*_BASE["fit"](tmp_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --split ") and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []


def test_grid_flags_default_to_grid(monkeypatch):
    # check hands its runner the default Grid(), every field included.
    seen = []

    def runner(*args, **kwargs):
        seen.extend(a for a in args if isinstance(a, Grid))
        return {"suites": [], "pass": True}

    monkeypatch.setattr(checks, "run_suites", runner)
    assert main(["check"]) == 0
    assert seen == [Grid()]


def test_grid_flags_reach_the_runner(monkeypatch):
    # check reads all five grid flags; none of them is dropped on the way to Grid.
    seen = []

    def runner(*args, **kwargs):
        seen.extend(a for a in args if isinstance(a, Grid))
        return {"suites": [], "pass": True}

    monkeypatch.setattr(checks, "run_suites", runner)
    argv = [
        "check", "--L-values", "2,5", "--d-values", "3", "--e-values", "2,4",
        "--n-max", "6", "--scale-range", "0.5,2",
    ]
    assert main(argv) == 0
    assert seen == [Grid(L_values=(2, 5), n_max=6, d_values=(3,), e_values=(2, 4), scale_range=(0.5, 2.0))]
    assert seen[0] != Grid()


def test_readme_cli_examples_parse():
    # A stale example (a removed command or flag) fails here; nothing runs.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## CLI\n\n```bash\n(.*?)^```", readme, re.M | re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("magep ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
