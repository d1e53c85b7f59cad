"""Every perfbench workload, at its TINY size, passes its own gate.

The workload module is read from ``perfbench/workloads.py`` as it stands;
the test only calls each workload's ``setup``, ``op``, ``check`` and
``teardown``.  So tier-1 fails when a layer init, forward, fit or
save/load change breaks a gate the benchmark runs.
"""

import importlib.util
import os
import sys

import pytest

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
