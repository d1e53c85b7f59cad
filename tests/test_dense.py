import zlib

import numpy as np
import pytest

from magep.dense import SERIAL_MADDS, Rng, rel_residual, serial_matmul


@pytest.mark.parametrize(
    "a_shape, b_shape",
    [
        ((64, 3000), (4, 3000, 32)),    # long contracted axis, broadcast over e
        ((3000,), (2, 3000, 5)),        # unbatched feature row
        ((128, 384), (3, 384, 32)),     # last-layer weight row
        ((2, 7, 9), (2, 9, 5)),         # small: one BLAS call
        ((600, 10), (10, 600)),         # rows x columns above the budget
    ],
)
def test_serial_matmul_matches_matmul(a_shape, b_shape):
    rng = Rng(11)
    a = rng.uniform(-1.0, 1.0, a_shape)
    b = rng.uniform(-1.0, 1.0, b_shape)
    got, want = serial_matmul(a, b), np.matmul(a, b)
    assert got.shape == want.shape
    assert rel_residual(got, want) <= 1e-13


def test_serial_matmul_chunks_stay_within_budget(monkeypatch):
    calls = []
    real = np.matmul

    def spy(x, y, out=None):
        calls.append(x.shape[-2] * x.shape[-1] * y.shape[-1])
        return real(x, y, out=out)

    monkeypatch.setattr(np, "matmul", spy)
    a, b = np.ones((64, 1000)), np.ones((4, 1000, 32))
    out = serial_matmul(a, b)
    assert len(calls) == -(-1000 // (SERIAL_MADDS // (64 * 32)))
    assert max(calls) <= SERIAL_MADDS
    assert np.array_equal(out, np.full((4, 64, 32), 1000.0))


def test_rng_same_seed_same_stream():
    a = Rng(123).uniform(-1.0, 1.0, 10)
    b = Rng(123).uniform(-1.0, 1.0, 10)
    assert np.array_equal(a, b)


def test_rng_child_streams_are_independent_and_reproducible():
    base = Rng(9)
    c1 = base.child("suite", 0).uniform(0.0, 1.0, 4)
    c2 = base.child("suite", 1).uniform(0.0, 1.0, 4)
    again = Rng(9).child("suite", 0).uniform(0.0, 1.0, 4)
    assert np.array_equal(c1, again)
    assert not np.array_equal(c1, c2)


def test_a_lazily_seeded_child_draws_the_stream_of_its_entropy():
    # The generator is built at the first draw; deriving siblings and
    # children first, and drawing from them, must not move the stream.
    base = Rng(-7)
    child = base.child("suite", 3)
    for other in (base.child("suite", 4), child.child("x"), base):
        other.uniform(-1.0, 1.0, 5)
    entropy = (-7 & 0xFFFFFFFFFFFFFFFF, zlib.crc32(b"suite"), 3)
    fresh = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    assert child.random(16).tobytes() == fresh.random(16).tobytes()
    # uniform(lo, hi) is lo + (hi - lo) * random() on the same draws, the
    # identity the coefficient runs rely on.
    a = 0.37
    assert Rng(8).uniform(-a, a, 16).tobytes() == (-a + (a + a) * Rng(8).random(16)).tobytes()


def test_rng_log_uniform_degenerate_and_bounds():
    r = Rng(1)
    assert np.all(r.log_uniform(1.0, 1.0, 5) == 1.0)
    samples = Rng(2).log_uniform(0.25, 4.0, 1000)
    assert samples.min() >= 0.25 and samples.max() <= 4.0
    with pytest.raises(ValueError):
        Rng(3).log_uniform(0.0, 1.0)


def test_rng_signs_are_plus_minus_one():
    s = Rng(4).signs(100)
    assert set(np.unique(s)) <= {-1.0, 1.0}


def test_rel_residual_edge_cases():
    z = np.zeros(3)
    assert rel_residual(z, z) == 0.0
    assert rel_residual(np.ones(3), np.ones(3)) == 0.0
    assert rel_residual(np.ones(3), -np.ones(3)) == 2.0
    # A NaN or infinite entry reads inf: a NaN would vanish from max(worst, r).
    nan, inf = np.nan, np.inf
    cases = [([1, nan], [1, 2]), ([1, 2], [nan, 2]), ([nan], [0]), ([inf], [inf]), ([inf, 1], [1, 1])]
    with np.errstate(invalid="ignore"):  # inf - inf
        for a, b in cases:
            assert rel_residual(np.array(a), np.array(b)) == inf, (a, b)

