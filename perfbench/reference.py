"""A fixed reference computation that measures the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent within seconds, as other tenants load it.  To keep that
drift out of the timings, ``run.py`` times this reference right before and
right after every op (and around every set-up), and reports each timed
interval scaled by ``NOMINAL_S / reference time``: seconds as they would read
on the host at its nominal speed.  The raw wall-clock times stay in the JSON
report that precedes the result line.

The reference mixes what magep's ops are made of: interpreted Python (dict,
list and call traffic), many small NumPy calls, and a few memory-bound array
passes.  It touches no magep code, so a change to magep moves the op time and
not the reference.
"""

from __future__ import annotations

import time

import numpy as np

# The reference's median time between ops on the 2-vCPU Xeon host the bounds
# were set on.  Any constant works; this one keeps corrected seconds close to
# wall seconds there.
NOMINAL_S = 0.050


class Reference:
    """Inputs of the reference, made once so that timing it allocates little."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = rng.uniform(-0.1, 0.1, (16, 16))
        self.vec = rng.uniform(-1.0, 1.0, (16, 4))
        self.big = rng.uniform(-1.0, 1.0, 400_000)
        self.buf = np.empty_like(self.big)
        self.keys = [("k", i % 211) for i in range(4000)]

    def _work(self) -> float:
        counts: dict = {}
        for _ in range(20):
            for key in self.keys:
                counts[key] = counts.get(key, 0) + 1
        acc = float(len(counts))
        x = self.vec
        for _ in range(2400):
            x = np.tanh(np.einsum("ij,jk->ik", self.small, x) + x)
        acc += float(x.sum())
        for _ in range(25):
            np.multiply(self.big, 1.000001, out=self.buf)
            acc += float(self.buf.sum())
        return acc

    def time(self) -> float:
        """Wall seconds one pass of the reference takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0
