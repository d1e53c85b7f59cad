"""Benchmark runner for magep: one workload, one fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload deep-forward --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  Set-up (importing magep,
generating inputs, initialising parameters) is repeated ``SETUP_REPS`` times
and its median reported.  Ops then run back to back in this single process (a
closed loop with one caller and no extra threads) for about ``--seconds``
seconds, after one untimed warm-up op; each op's output is checked untimed,
and a failed check or a raised exception counts as a failed op.

Every set-up and op is timed between two passes of a fixed reference
computation (``reference.py``), and the end-to-end times are reported scaled
by the host's speed at that moment: wall seconds times ``NOMINAL_S`` over the
reference's time.  This takes the drift of a shared host out of the figures;
the raw wall times are in the report line.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.  With
``--trace 1`` ops alternate between untraced and traced, the traced ones
record spans around magep's public functions (see ``tracing.py``), and the
last line carries the per-layer metrics plus the tracing overhead, in wall
seconds, with the reference's median time as ``host.reference_s``.  The line
before it is a JSON report with the environment, the op-time samples and the
failure reasons.  Exit code 2 means the package could not be found.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

from reference import NOMINAL_S, Reference  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

SETUP_REPS = 9
TAIL_BEYOND = 10


def environment() -> dict:
    """numpy/BLAS/CPU/Python/git facts that a timing depends on."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    git_rev = None  # a checkout without .git has no revision to report
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        # The library default, which OpenBLAS caps at the CPUs available.
        "blas_threads": threads,
        "nproc": nproc,
        "python": platform.python_version(),
        "git_rev": git_rev,
        "load": "one process, closed loop, one op at a time, no extra threads",
    }


def _fresh_import() -> float:
    """Import magep from scratch (module bodies re-executed); seconds taken."""
    for name in [m for m in sys.modules if m == "magep" or m.startswith("magep.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("magep.checks")
    importlib.import_module("magep.fitting")
    return time.perf_counter() - t0


def tail(times: list[float]) -> tuple[float, float, int]:
    """(time, percentile, samples beyond it) at the highest percentile that
    leaves ``TAIL_BEYOND`` samples beyond it; the maximum when there are too
    few samples for that."""
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "FULL", corrupt: bool = False) -> dict:
    """Set up and run one workload; returns the full result.

    ``corrupt`` perturbs every op's output before its check, which must then
    fail; the smoke test uses it to prove the checks are live.
    """
    w = WORKLOADS[name]
    dims = getattr(w, size)
    os.makedirs(OUT_DIR, exist_ok=True)
    ref = Reference()
    ref.time()  # warm-up
    setup_wall, setup_s, ref_times = [], [], []
    st = None
    for _ in range(SETUP_REPS):
        st = None  # free the previous set-up first, so peak RSS holds one copy
        r0 = ref.time()
        t_import = _fresh_import()
        t0 = time.perf_counter()
        st = w.setup(seed, dims)
        dt = t_import + time.perf_counter() - t0
        r = (r0 + ref.time()) / 2
        setup_wall.append(dt)
        setup_s.append(dt * NOMINAL_S / r)
        ref_times.append(r)

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()

    def run_op(k: int, traced_op: bool):
        """Run, time and check op ``k``: (seconds, reference seconds around
        it, output, failure reason)."""
        try:
            if traced_op:
                tracer.attach()
            try:
                r0 = ref.time()
                t0 = time.perf_counter()
                if traced_op:
                    with tracer.op(k):
                        out = w.op(st, k)
                else:
                    out = w.op(st, k)
                dt = time.perf_counter() - t0
            finally:
                if traced_op:
                    tracer.detach()
            r = (r0 + ref.time()) / 2
            if corrupt:
                out = w.corrupt(out)
            return dt, r, out, w.check(st, out, k)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return None, None, None, "".join(traceback.format_exception_only(type(exc), exc)).strip()

    times, op_refs, items, traced, untraced, failures, laps = [], [], [], [], [], [], []
    try:
        # Op 0 lets caches fill and lazy set-up finish; it is checked, not timed.
        _, _, _, reason = run_op(0, False)
        if reason is not None:
            failures.append({"op": 0, "reason": reason})
        attempted = 1
        start = lap = time.perf_counter()
        while True:
            spent = lap - start
            if attempted > (2 if trace else 1) and spent + statistics.median(laps or [0.0]) > seconds:
                break
            k = attempted
            attempted += 1
            traced_op = tracer is not None and k % 2 == 0
            dt, r, out, reason = run_op(k, traced_op)
            laps.append(time.perf_counter() - lap)
            lap += laps[-1]
            if reason is not None:
                failures.append({"op": k, "reason": reason})
                continue
            times.append(dt)
            op_refs.append(r)
            items.append(w.items(st, out))
            (traced if traced_op else untraced).append(dt)
    finally:
        w.teardown(st)
    # The host's speed during op k is taken from the reference passes around
    # ops k-1, k and k+1: six passes over about three ops track the drift
    # better than op k's own two, whose timing noise is of the same order.
    scaled = [
        dt * NOMINAL_S / statistics.fmean(op_refs[max(0, i - 1):i + 2])
        for i, dt in enumerate(times)
    ]
    ref_times += op_refs

    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "op_wall_s": times,
        "op_scaled_s": scaled,
        "setup_wall_s": setup_wall,
        "setup_scaled_s": setup_s,
        "reference_wall_s": ref_times,
        "reference_nominal_s": NOMINAL_S,
        "env": environment(),
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        if not traced or not untraced:
            result["metrics"] = {}
            return result
        per_layer = tracer.per_op(len(tracer.op_durations()))
        op_total = sum(tracer.op_durations())
        per_layer["trace.op_median_s"] = statistics.median(traced)
        per_layer["trace.untraced_op_median_s"] = statistics.median(untraced)
        per_layer["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        per_layer["trace.wrapped_share"] = tracer.wrapped_self_sum() / op_total
        per_layer["host.reference_s"] = statistics.median(ref_times)
        result["metrics"] = per_layer
        result["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(OUT_DIR, f"{name}.spans.jsonl"))
        return result
    if not times:
        result["metrics"] = {}
        return result
    tail_s, tail_pct, beyond = tail(scaled)
    result.update(
        samples=len(times), tail_percentile=tail_pct, tail_beyond=beyond,
        fail_ratio=len(failures) / attempted,
    )
    result["metrics"] = {
        "items_per_s": sum(items) / sum(scaled),
        "op_median_s": statistics.median(scaled),
        "op_tail_s": tail_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - len(failures)) / attempted,
    }
    return result


UNITS = {
    "items_per_s": "items/s",
    "op_median_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "trace.op_median_s": "s",
    "trace.untraced_op_median_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.wrapped_share": "ratio",
    "host.reference_s": "s",
    "stableterms.all_terms.madds": "computed-madd/op",
    "stableterms.terms_read_ratio": "ratio",
}


def unit_of(metric: str) -> str:
    if metric in UNITS:
        return UNITS[metric]
    return "count/op" if metric.endswith(".calls") else "s/op"


def main(argv=None, size: str = "FULL") -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "magep", "__init__.py")):
        print(f"magep sources not found under {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), size)
    metrics = result.pop("metrics")
    print(json.dumps(result))
    print(json.dumps({
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
