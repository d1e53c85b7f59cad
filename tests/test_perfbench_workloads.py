"""Every perfbench workload, at its TINY size, passes its own gate.

The workload module is read from ``perfbench/workloads.py`` as it stands;
the test only calls each workload's ``setup``, ``op``, ``check`` and
``teardown``.  So tier-1 fails when a layer init, forward, fit or
save/load change breaks a gate the benchmark runs.
"""

import importlib.util
import os
import sys
import tracemalloc

import pytest

from helpers import count_matmul
from magep import layers

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "workloads.py")
_NAMES = ["verify-grid", "deep-forward", "probe-fit", "params-io"]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_workload_is_tested(workloads):
    assert list(workloads.WORKLOADS) == _NAMES


@pytest.mark.parametrize("name", _NAMES)
@pytest.mark.parametrize("seed", [1, 2])
def test_tiny_workload_passes_its_gate(workloads, monkeypatch, tmp_path, name, seed):
    # params-io writes its files under OUT_DIR: keep them out of the checkout.
    monkeypatch.setattr(workloads, "OUT_DIR", str(tmp_path))
    workload = workloads.WORKLOADS[name]
    st = workload.setup(seed, workload.TINY)
    try:
        for k in range(2):
            assert workload.check(st, workload.op(st, k), k) is None
    finally:
        workload.teardown(st)


@pytest.fixture(scope="module")
def deep_forward(workloads):
    workload = workloads.WORKLOADS["deep-forward"]
    return workload, workload.setup(1, workload.FULL)


def test_one_deep_forward_op_does_a_pinned_count_of_matmul_work(deep_forward, monkeypatch):
    # A count repeats exactly where a timing does not: a change that moves
    # one updates the pin and states old -> new.
    workload, st = deep_forward
    tally = count_matmul(monkeypatch)
    workload.op(st, 0)
    assert (tally.calls, tally.madds) == (1_592, 669_213_440)
    # Below the low end of OpenBLAS's threading switch (dense.SERIAL_MADDS),
    # every product runs on its calling thread, so the stack's row-block
    # threads never wake BLAS threads of their own.
    assert tally.largest < 800_000


def test_one_deep_forward_row_block_has_a_pinned_traced_peak(deep_forward):
    workload, st = deep_forward
    U = st["inputs"][0].rows(0, layers.ROW_BLOCK)
    layers._stack_rows(st["stack"], st["head"], U)  # first-use caches
    tracemalloc.start()
    try:
        layers._stack_rows(st["stack"], st["head"], U)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each thread of stack_forward holds one block's working set at a time.
    assert peak == 8_746_200
