import numpy as np
import pytest

from magep import checks
from magep.errors import ValidationError


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
    "rank": ["asserted_full_rank", "witness_deficient", "collapse_psi", "reports"],
}


def test_suite_records_keep_their_keys_and_order():
    report = checks.run_suites("all", 2, 0)
    assert [rec["suite"] for rec in report["suites"]] == list(checks.SUITE_NAMES)
    for rec in report["suites"]:
        assert list(rec) == RECORD_KEYS
        assert list(rec["details"]) == DETAIL_KEYS[rec["suite"]]


def test_a_raising_suite_yields_an_error_record(monkeypatch):
    def broken(trials, rng, grid, tol):
        raise RuntimeError("boom")

    monkeypatch.setitem(checks._SUITE_FNS, "inv", broken)
    report = checks.run_suites("all", 2, 0)
    rec = report["suites"][checks.SUITE_NAMES.index("inv")]
    assert list(rec) == RECORD_KEYS
    assert rec["max_residual"] is None and rec["pass"] is False
    assert rec["tolerance"] == checks.DEFAULT_TOLERANCES["inv"]
    assert rec["details"] == {"error": "RuntimeError: boom"}
    assert report["pass"] is False


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
