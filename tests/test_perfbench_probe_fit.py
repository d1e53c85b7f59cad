"""perfbench's probe-fit workload, at its TINY size, passes its own gate.

The workload module is read from ``perfbench/workloads.py`` as it stands;
the test only calls its ``setup``, ``op`` and ``check``.
"""

import importlib.util
import os
import sys

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "workloads.py")


@pytest.fixture(scope="module")
def probe_fit():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while it runs.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS["probe-fit"]


@pytest.mark.parametrize("seed", [1, 2])
def test_probe_fit_tiny_passes_its_gate(probe_fit, seed):
    st = probe_fit.setup(seed, probe_fit.TINY)
    try:
        for k in range(2):
            assert probe_fit.check(st, probe_fit.op(st, k), k) is None
    finally:
        probe_fit.teardown(st)
