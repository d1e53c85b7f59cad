import json

import numpy as np
import pytest

from magep import checks, cli, layers, oracle
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


# Seeds whose oracle residual sits nearest the 1e-12 tolerance over seeds
# 0-1999 at 50 trials: the two largest that pass (9.26e-13 and 7.26e-13) and
# the only two that fail (3.87e-12 and 3.01e-12).  A verify-grid op draws
# seed + k, so a change that moves these residuals can flip a benchmark op.
# The failures are the block-max normalisation of a small interior bias
# (ROADMAP item 5); they must keep failing until that is mended.
@pytest.mark.parametrize("seed", [
    754,
    852,
    pytest.param(1374, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
    pytest.param(1913, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 5")),
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


def test_check_reports_a_nan_output_and_exits_one(nan_forwards, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["check", "--suite", "equiv", "--trials", "10", "--seed", "1", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert_report(report)
    assert report["pass"] is False and report["suites"][0]["max_residual"] is None
    assert "max_residual=non-finite" in capsys.readouterr().err


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


def test_run_suites_rejects_an_unknown_suite_in_the_overrides_before_any_suite(monkeypatch):
    monkeypatch.setitem(checks._SUITE_FNS, "inv", lambda *a, **k: pytest.fail("suite ran"))
    with pytest.raises(ValidationError, match="unknown suite 'bogus'"):
        checks.run_suites("inv", 2, 0, tolerance_overrides={"bogus": 1.0})


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
