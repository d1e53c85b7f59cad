"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/smoke_test.py``.
It checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that the traced self times fit inside the op time, that a corrupted op
output is counted as a failure, and that the runner refuses to run without
the package sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def _run(workload: str, trace: int) -> list[str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(
            ["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", str(trace)],
            size="TINY",
        )
    assert code == 0
    return buf.getvalue().strip().splitlines()


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    lines = _run(workload, trace)
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in last["metrics"].items()
    }
    for v in last["metrics"].values():
        assert isinstance(v["value"], (int, float))
    if trace:
        # Self times of the wrapped spans sum to no more than the op time.
        assert 0.0 < last["metrics"]["trace.wrapped_share"]["value"] <= 1.0
    else:
        report = json.loads(lines[-2])
        assert set(report["env"]) >= {"numpy", "blas", "blas_threads", "nproc", "python", "git_rev"}
        # Each timed op has its wall time, its reference time and the scaled
        # time the metrics are taken from.
        n = len(report["op_wall_s"])
        assert n >= 1 and len(report["op_scaled_s"]) == n
        assert len(report["reference_wall_s"]) == n + len(report["setup_wall_s"])
        assert last["metrics"]["op_median_s"]["value"] == statistics.median(report["op_scaled_s"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_corrupted_output_counts_as_failure(workload):
    result = run.run_workload(workload, 5, 0.2, False, "TINY", corrupt=True)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["metrics"] == {}


def test_refuses_to_run_without_sources():
    bare = os.path.join(OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            BENCH["command"] + ["--workload", "deep-forward", "--seed", "1", "--seconds", "1",
                                "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
