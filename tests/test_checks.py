import numpy as np

from magep import checks


def test_chains_suite_passes_where_cancellation_shrank_the_chain():
    # Seed 381 at 50 trials has a chain whose entries nearly cancel; measured
    # against max|chain| its rounding error read 3.3e-10.
    rec = checks.run_suite("chains", 50, 381)
    assert rec["pass"], rec
    assert rec["max_residual"] <= 1e-15


def test_chains_suite_fails_on_a_perturbed_chain(monkeypatch):
    exact = checks.w_chain

    def perturbed(U, s, t):
        out = exact(U, s, t)
        if s - t >= 2:  # leave the one-step chains exact
            out = out + 1e-9 * exact(U.map(np.abs), s, t)
        return out

    monkeypatch.setattr(checks, "w_chain", perturbed)
    rec = checks.run_suite("chains", 5, 381)
    assert not rec["pass"]
    # The (2, 1, 0) identity sees exactly the 1e-9 on its right-hand side.
    assert 0.9e-9 <= rec["max_residual"] <= 1e-8
