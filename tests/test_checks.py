import json
import math
import os
import pickle
import threading
from collections import Counter
from functools import partial

import numpy as np
import pytest

from magep import checks, cli, jsonio, layers, netfunc, oracle
from magep.dense import Rng
from magep.errors import ValidationError

from report_schema import assert_report


def test_chains_suite_passes_where_cancellation_shrank_the_chain():
    # Seed 381 at 50 trials has a chain whose entries nearly cancel; measured
    # against max|chain| its rounding error read 3.3e-10.
    rec = checks.run_suite("chains", 50, 381)
    assert rec["pass"], rec
    assert rec["max_residual"] <= 1e-15


def test_chains_suite_fails_on_a_perturbed_chain(monkeypatch):
    exact = checks._w_chains

    def perturbed(U):
        chains, bounds = exact(U), exact(U.map(np.abs))
        return {
            # leave the one-step chains exact
            (s, t): v + 1e-9 * bounds[(s, t)] if s - t >= 2 else v
            for (s, t), v in chains.items()
        }

    monkeypatch.setattr(checks, "_w_chains", perturbed)
    rec = checks.run_suite("chains", 5, 381)
    assert not rec["pass"]
    # The (2, 1, 0) identity sees exactly the 1e-9 on its right-hand side.
    assert 0.9e-9 <= rec["max_residual"] <= 1e-8


# Seeds whose oracle residual sits nearest the 1e-12 tolerance at 50 trials:
# over seeds 0-1999 the two largest that pass (9.26e-13 and 7.26e-13) and the
# only two that fail (3.87e-12 and 3.01e-12), and 4105 (3.95e-12), which a
# verify-grid run from a seed near 4100 reaches.  A verify-grid op draws
# seed + k, so a change that moves these residuals can flip a benchmark op.
# The failures are the block-max normalisation of a small interior bias
# (ROADMAP item 5); they must keep failing until that is mended.
@pytest.mark.parametrize("seed", [
    754,
    852,
    pytest.param(1374, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
    pytest.param(1913, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
    pytest.param(4105, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
])
def test_oracle_suite_at_its_near_threshold_seeds(seed):
    rec = checks.run_suite("oracle", 50, seed)
    assert rec["pass"], rec["max_residual"]


def test_stability_suite_fails_when_one_family_breaks_its_law(monkeypatch):
    assert checks.run_suite("stability", 10, 3)["pass"]
    exact = checks.all_terms

    def offset_ww(U, psi):
        terms = exact(U, psi)
        for v in terms.ww.values():
            v[..., 0, 0] += 0.5  # a fixed offset, which g does not move
        return terms

    monkeypatch.setattr(checks, "all_terms", offset_ww)
    rec = checks.run_suite("stability", 10, 3)
    assert not rec["pass"]
    assert rec["max_residual"] > 1e3 * rec["tolerance"]


def _rank_with_terms(monkeypatch, edit):
    """The rank suite at 3 specs, with ``edit`` applied to every term table."""
    exact = oracle.all_terms

    def edited(U, psi):
        terms = exact(U, psi)
        edit(terms, U.spec.L)
        return terms

    monkeypatch.setattr(oracle, "all_terms", edited)
    return checks.run_suite("rank", 60, 1)


def test_rank_suite_fails_when_a_trace_relation_breaks(monkeypatch):
    assert checks.run_suite("rank", 60, 1)["pass"]

    def cube(terms, L):
        # A cubic, which no linear combination of [W]^(L,0) entries follows.
        w = terms.w[(1, 0)].sum(axis=(-2, -1))[..., None, None]
        terms.ww[(1, 1)] += 1e-3 * w**3

    rec = _rank_with_terms(monkeypatch, cube)
    assert not rec["pass"]
    assert rec["details"]["asserted_full_rank"]
    assert not rec["details"]["coupled_deficiency_exact"]
    # Too few null directions: the broken pair lost one.
    for rep in rec["details"]["reports"]:
        ww_pair = rep["coupled"][0]
        assert ww_pair["deficiency"] == ww_pair["expected_deficiency"] - 1


def test_rank_suite_fails_when_a_coupled_family_vanishes(monkeypatch):
    def zero(terms, L):
        terms.bw[(L - 1, L - 1)][...] = 0.0

    rec = _rank_with_terms(monkeypatch, zero)
    assert not rec["pass"]
    assert rec["details"]["asserted_full_rank"]
    # Too many null directions: every column of the zeroed block is null.
    for rep in rec["details"]["reports"]:
        bw_pair = rep["coupled"][1]
        assert bw_pair["deficiency"] > bw_pair["expected_deficiency"]


RECORD_KEYS = ["suite", "trials", "max_residual", "tolerance", "pass", "details"]

DETAIL_KEYS = {
    "group": ["perm_parts_exact", "max_scale_residual", "scale_tolerance"],
    "stability": [],
    "chains": ["one_step_chain_exact"],
    "netinv": ["mismatch_witness_residual", "witness_floor"],
    "equiv": ["sharing_mutation"],
    "inv": [],
    "stack": [],
    "oracle": [],
    "rank": ["asserted_full_rank", "coupled_deficiency_exact", "reports"],
}


def test_suite_records_keep_their_keys_and_order():
    report = checks.run_suites("all", 2, 0)
    assert [rec["suite"] for rec in report["suites"]] == list(checks.SUITE_NAMES)
    for rec in report["suites"]:
        assert list(rec) == RECORD_KEYS
        assert list(rec["details"]) == DETAIL_KEYS[rec["suite"]]


def _explode():
    raise RuntimeError("boom")


def test_a_raising_suite_yields_an_error_record(monkeypatch):
    def broken(trials, rng, grid, tol):
        _explode()

    monkeypatch.setitem(checks._SUITE_FNS, "inv", broken)
    report = checks.run_suites("all", 2, 0)
    rec = report["suites"][checks.SUITE_NAMES.index("inv")]
    assert list(rec) == RECORD_KEYS
    assert rec["max_residual"] is None and rec["pass"] is False
    assert rec["tolerance"] == checks.DEFAULT_TOLERANCES["inv"]
    assert list(rec["details"]) == ["error", "traceback"]
    assert rec["details"]["error"] == "RuntimeError: boom"
    # The summary runs outermost first and ends at the raising function.
    frames = rec["details"]["traceback"]
    assert 1 < len(frames) <= checks.TRACEBACK_FRAMES
    assert frames[-1].startswith("test_checks.py:") and frames[-1].endswith(" in _explode")
    assert frames[-2].endswith(" in broken")
    assert report["pass"] is False
    for other in report["suites"]:
        if other is not rec:
            assert other["pass"] and other["max_residual"] is not None, other["suite"]


@pytest.fixture
def nan_forwards(monkeypatch):
    """Both fast forwards with a NaN in their output."""
    equivariant, invariant = layers.equivariant_forward, layers.invariant_forward

    def nan_equivariant(params, U):
        out = equivariant(params, U)
        out.flat[..., 0] = np.nan
        return out

    monkeypatch.setattr(layers, "equivariant_forward", nan_equivariant)
    monkeypatch.setattr(layers, "invariant_forward", lambda p, U: invariant(p, U) * np.nan)


@pytest.mark.parametrize("suite", ["equiv", "inv", "stack", "oracle"])
def test_a_nan_output_fails_its_suite(nan_forwards, suite):
    # max(worst, nan) keeps worst, so a NaN residual must count as infinite.
    rec = checks.run_suite(suite, 10, 1)
    assert rec["pass"] is False and rec["max_residual"] is None, rec


@pytest.mark.parametrize("position", [0, 1], ids=["residual", "extra"])
def test_a_nan_fails_its_suite_at_any_trial(position):
    # max(x, nan) is x and max(nan, x) is nan: a NaN's trial must not decide
    # whether the record keeps it.
    records = []
    for at in range(3):
        outs = [(1e-16, 0.0, False)] * 3
        outs[at] = tuple(math.nan if i == position else v for i, v in enumerate(outs[at]))
        trial = lambda r, k, grid: outs[k]
        records.append(checks._run_trials("group", trial, checks._group_summary, 3, Rng(0), checks.Grid(), 1e-12))
    assert records[0] == records[1] == records[2]
    assert records[0]["pass"] is False
    assert jsonio.dumps(records[0])  # a non-finite worst reads null, and writes
    assert (records[0]["max_residual"] is None) == (position == 0)


def test_check_reports_a_nan_output_and_exits_one(nan_forwards, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["check", "--suite", "equiv", "--trials", "10", "--seed", "1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert_report(report)
    assert report["pass"] is False and report["suites"][0]["max_residual"] is None
    assert "max_residual=non-finite" in capsys.readouterr().err


def test_check_reports_a_nan_network_output_and_exits_one(monkeypatch, tmp_path):
    # rel_residual reads a NaN as inf, which the netinv witness must not write.
    real = netfunc.mlp_forward
    monkeypatch.setattr(netfunc, "mlp_forward", lambda U, x, act: real(U, x, act) * np.nan)
    out = tmp_path / "report.json"
    assert cli.main(["check", "--suite", "netinv", "--trials", "4", "--seed", "1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert_report(report)
    assert report["suites"][0]["details"]["mismatch_witness_residual"] is None
    assert jsonio.dumps(checks.run_suite("netinv", 4, 1))


def test_run_suites_rejects_an_unknown_selector():
    with pytest.raises(ValidationError, match="unknown suite 'nope'"):
        checks.run_suites("nope", 2, 0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_run_suites_rejects_a_non_finite_tolerance_before_any_suite(tol, monkeypatch):
    monkeypatch.setitem(checks._SUITE_FNS, "group", lambda *a, **k: pytest.fail("suite ran"))
    with pytest.raises(ValidationError, match="must be finite"):
        checks.run_suites("all", 2, 0, tolerance_overrides={"equiv": tol})
    with pytest.raises(ValidationError, match="must be finite"):
        checks.run_suite("equiv", 2, 0, tolerance=tol)


@pytest.mark.parametrize("tol", ["1e-9", True, np.True_, None, 1e-9j, [1e-9]])
def test_run_suites_rejects_a_tolerance_that_is_not_a_real_number_before_any_suite(tol, monkeypatch):
    # A bool would run at tolerance 1 and write "tolerance": true.
    monkeypatch.setitem(checks._SUITE_FNS, "inv", lambda *a, **k: pytest.fail("suite ran"))
    with pytest.raises(ValidationError, match="tolerance of suite 'inv' must be a real number"):
        checks.run_suites("inv", 2, 0, tolerance_overrides={"inv": tol})
    if tol is not None:  # run_suite's None is the suite's default
        with pytest.raises(ValidationError, match="tolerance of suite 'inv' must be a real number"):
            checks.run_suite("inv", 2, 0, tolerance=tol)


@pytest.mark.parametrize("tol", [1, np.float32(1e-9), np.int64(1)])
def test_run_suite_takes_integer_and_numpy_tolerances(tol):
    rec = checks.run_suite("inv", 2, 0, tolerance=tol)
    assert rec["pass"] is True and rec["tolerance"] == tol


def test_run_suites_rejects_an_unknown_suite_in_the_overrides_before_any_suite(monkeypatch):
    monkeypatch.setitem(checks._SUITE_FNS, "inv", lambda *a, **k: pytest.fail("suite ran"))
    with pytest.raises(ValidationError, match="unknown suite 'bogus'"):
        checks.run_suites("inv", 2, 0, tolerance_overrides={"bogus": 1.0})


@pytest.fixture
def no_suite_runs(monkeypatch):
    for name in checks.SUITE_NAMES:
        monkeypatch.setitem(checks._SUITE_FNS, name, lambda *a, **k: pytest.fail("suite ran"))


@pytest.mark.parametrize("selector", ["inv", "stack", "rank"])
def test_a_sharing_mutation_without_equiv_is_rejected_before_any_suite(no_suite_runs, selector):
    # Only equiv reads the mutation; any other suite would pass vacuously.
    with pytest.raises(ValidationError, match="needs the equiv suite"):
        checks.run_suites(selector, 4, 3, mutate_sharing=True)
    with pytest.raises(ValidationError, match="needs the equiv suite"):
        checks.run_suite(selector, 4, 3, mutate_sharing=True)


def test_a_sharing_mutation_fails_equiv_alone_in_a_full_run():
    report = checks.run_suites("all", 4, 3, mutate_sharing=True)
    failed = [rec["suite"] for rec in report["suites"] if not rec["pass"]]
    assert failed == ["equiv"] and report["pass"] is False
    assert [rec["details"].get("sharing_mutation") for rec in report["suites"]] == [
        True if name == "equiv" else None for name in checks.SUITE_NAMES
    ]


@pytest.mark.parametrize(
    "trials, seed, match",
    [
        (True, 0, "trials must be an integer"),
        (2.5, 0, "trials must be an integer"),
        ("2", 0, "trials must be an integer"),
        (0, 0, "trials must be an integer >= 1"),
        (2, 1.7, "seed must be an integer"),
        (2, "1", "seed must be an integer"),
    ],
)
def test_run_suites_rejects_non_integer_trials_and_seed_before_any_suite(no_suite_runs, trials, seed, match):
    for selector in ("inv", "all"):
        with pytest.raises(ValidationError, match=match):
            checks.run_suites(selector, trials, seed)
    with pytest.raises(ValidationError, match=match):
        checks.run_suite("inv", trials, seed)


def test_run_suites_takes_numpy_integers_as_trials_and_seed():
    report = checks.run_suites("inv", np.int64(2), np.int32(1))
    assert type(report["trials"]) is int and type(report["seed"]) is int
    assert report == checks.run_suites("inv", 2, 1)
    assert checks.run_suite("inv", np.int64(2), np.int32(1)) == report["suites"][0]


TRIAL_SUITES = [name for name in checks.SUITE_NAMES if name != "rank"]


@pytest.mark.parametrize("name", TRIAL_SUITES)
def test_one_trial_replays_the_worst_residual_alone(name):
    # Trial k of a suite is its trial function on Rng(seed).child(name, k),
    # whatever the trials around it drew.
    trials, seed, grid = 6, 4, checks.Grid()
    trial = getattr(checks, f"_trial_{name}")

    def residual(k):
        out = trial(Rng(seed).child(name, k), k, grid)
        return out[0] if isinstance(out, tuple) else out

    residuals = [residual(k) for k in range(trials)]
    worst = checks.run_suite(name, trials, seed, grid)["max_residual"]
    assert worst == max(residuals) > 0.0
    k = residuals.index(worst)
    assert residual(k).hex() == worst.hex()


@pytest.mark.parametrize(
    "bad",
    [
        {"L_values": (1, 2)},
        {"L_values": ()},
        {"n_max": 0},
        {"n_max": 1},  # netinv and --corrupt-sharing draw widths >= 2
        {"d_values": (0,)},
        {"e_values": ()},
        {"e_values": (1, -3)},
        {"scale_range": (float("nan"), 4.0)},
        {"scale_range": (0.0, 4.0)},
        {"scale_range": (4.0, 0.25)},
        {"scale_range": (0.25, float("inf"))},
    ],
)
def test_grid_rejects_what_no_suite_can_draw_from(bad):
    with pytest.raises(ValidationError):
        checks.Grid(**bad)


def test_grid_normalizes_its_fields():
    grid = checks.Grid(L_values=[np.int64(2)], n_max=np.int32(3), scale_range=[1, 2])
    assert grid == checks.Grid(L_values=(2,), n_max=3, scale_range=(1.0, 2.0))


_DRAWS = ("uniform", "random", "gaussian", "log_uniform", "signs", "integers", "permutation", "choice")


def test_a_small_grid_builds_and_draws_a_pinned_number_of_times(monkeypatch):
    # The trials' set-up work as counts: a stream is seeded at its first
    # draw, small coefficient blocks are drawn in runs, Psi one buffer at a
    # time, and the rank report draws its design objects once.  A
    # log_uniform call counts its uniform call too.  On one CPU the calling
    # process draws every trial; with more, forked workers would draw their
    # shares out of the count's sight.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    generators, calls = [], Counter()
    pcg64 = np.random.PCG64
    monkeypatch.setattr(np.random, "PCG64", lambda seed: generators.append(seed) or pcg64(seed))

    def counted(name, method):
        def draw(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return draw

    for name in _DRAWS:
        monkeypatch.setattr(Rng, name, counted(name, getattr(Rng, name)))
    checks.run_suites("all", 4, seed=1)
    assert len(generators) == 394
    assert calls == Counter(
        uniform=359, random=46, log_uniform=25, signs=33, integers=138, permutation=58, choice=82
    )


# -- trial shares: run_suites on several CPUs gives the bytes of one ----------


def _report_on(monkeypatch, cpus, *args, **kwargs) -> str:
    """The bytes of ``run_suites(*args, **kwargs)`` with ``cpus`` usable
    CPUs, after asserting that no child process outlives the call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    report = checks.run_suites(*args, **kwargs)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return jsonio.dumps(report)


def _one_process_report(monkeypatch, *args, **kwargs) -> str:
    """The bytes of a run_suites call on three shares, asserted equal to
    those of the same call on one CPU."""
    shared = _report_on(monkeypatch, 3, *args, **kwargs)
    assert shared == _report_on(monkeypatch, 1, *args, **kwargs)
    return shared


@pytest.mark.parametrize("case", ["plain", "sharing-mutation", "nan-forwards"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("trials", [1, 2, 7])
def test_shared_trials_give_the_report_of_one_process(monkeypatch, request, trials, seed, case):
    if case == "nan-forwards":
        request.getfixturevalue("nan_forwards")
    real, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    report = json.loads(_one_process_report(
        monkeypatch, "all", trials, seed, mutate_sharing=case == "sharing-mutation"
    ))
    # One fork per worker, all of them in the three-CPU call.
    assert len(forks) == min(3, trials) - 1
    assert report["pass"] is (case == "plain")


@pytest.mark.parametrize("raising", [{1, 3, 5}, {5}], ids=["every-odd-k", "k-5"])
def test_a_trial_raising_at_an_odd_k_gives_the_error_record_of_one_process(monkeypatch, raising):
    def odd(r, k, grid):
        if k in raising:
            raise ArithmeticError(f"trial {k}")
        return checks._trial_inv(r, k, grid)

    monkeypatch.setitem(checks._SUITE_FNS, "inv", partial(checks._run_trials, "inv", odd, None))
    report = json.loads(_one_process_report(monkeypatch, "all", 7, 1))
    rec = report["suites"][checks.SUITE_NAMES.index("inv")]
    assert rec["details"]["error"] == f"ArithmeticError: trial {min(raising)}"
    assert rec["details"]["traceback"][-1].endswith(" in odd")
    assert [r["suite"] for r in report["suites"] if not r["pass"]] == ["inv"]


@pytest.mark.parametrize(
    "module, name",
    [(checks, "_draw"), (layers, "stack_forward"), (checks, "_trial_rank")],
    ids=["first-suite", "stack", "rank"],
)
def test_a_worker_that_exits_leaves_the_report_of_one_process(monkeypatch, module, name):
    caller, real = os.getpid(), getattr(module, name)

    def exiting(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, exiting)
    assert json.loads(_one_process_report(monkeypatch, "all", 7, 2))["pass"]


def _refuse():
    raise pickle.UnpicklingError("refused")


class _Unloadable(float):
    """A float whose pickle does not load."""

    def __reduce__(self):
        return _refuse, ()


def test_a_message_that_does_not_load_leaves_the_report_of_one_process(monkeypatch):
    caller, real = os.getpid(), checks.rel_residual
    monkeypatch.setattr(
        checks, "rel_residual",
        lambda a, b: real(a, b) if os.getpid() == caller else _Unloadable(real(a, b)),
    )
    assert json.loads(_one_process_report(monkeypatch, "all", 7, 2))["pass"]


def test_a_message_of_another_suite_leaves_the_report_of_one_process(monkeypatch):
    # The workers send nothing for the first suite, so the caller's first
    # read from each is the second suite's message.
    caller, real = os.getpid(), checks._SUITE_FNS["group"]

    def unsent(*args, **kwargs):
        if os.getpid() != caller:
            raise checks._ShareSent
        return real(*args, **kwargs)

    monkeypatch.setitem(checks._SUITE_FNS, "group", unsent)
    assert json.loads(_one_process_report(monkeypatch, "all", 7, 2))["pass"]


def _failing_fork(monkeypatch, after: int) -> None:
    """``os.fork`` raising ``OSError`` from its call ``after`` on."""
    real, calls = os.fork, []

    def fork():
        calls.append(1)
        if len(calls) > after:
            raise OSError("no fork")
        return real()

    monkeypatch.setattr(os, "fork", fork)


@pytest.mark.parametrize("case", ["no-fork", "thread-alive", "fork-fails", "second-fork-fails"])
def test_the_caller_computes_the_shares_no_worker_runs(monkeypatch, case):
    serial = _report_on(monkeypatch, 1, "all", 7, 1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif case == "thread-alive":
        # A forked child could inherit a lock that the other thread holds.
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked beside a live thread"))
        thread.start()
    else:
        _failing_fork(monkeypatch, after=0 if case == "fork-fails" else 1)
    try:
        assert _report_on(monkeypatch, 3, "all", 7, 1) == serial
    finally:
        stop.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
