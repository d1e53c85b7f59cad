"""The package's public surface, the functions the benchmark traces, and the
coefficient block declarations."""

import importlib
import inspect
import pkgutil
import re
import runpy
from dataclasses import fields
from pathlib import Path

import pytest

import magep
from magep import checks, errors
from magep.layers import EquivariantParams, InvariantParams, MiddleBlocks
from magep.stableterms import PsiParams

MODULES = [
    m.name for m in pkgutil.iter_modules(magep.__path__, "magep.") if m.name != "magep.__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"


def test_declared_blocks_are_the_coefficient_fields():
    # An undeclared block field would drop out of the checks, the
    # initialization, save/load and blocks().
    for cls in (EquivariantParams, InvariantParams):
        declared = [f.name for f in fields(cls) if "block" in f.metadata]
        assert declared == [f.name for f in fields(cls) if f.name.startswith("phi")]
    assert all("block" in f.metadata for f in fields(MiddleBlocks))
    assert [f.name for f in fields(PsiParams) if "block" in f.metadata] == ["bw", "ww"]


TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_functions_resolve():
    # perfbench/tracing.py wraps these by name; a renamed function would
    # drop out of a traced run without an error.
    traced = runpy.run_path(str(TRACING))["TRACED"]
    assert traced
    missing = [
        f"{module}.{name}"
        for module, name in traced
        if not callable(getattr(importlib.import_module(f"magep.{module}"), name, None))
    ]
    assert not missing, f"traced names {missing} do not exist"


def test_suites_reach_run_suite_through_the_module_attribute(monkeypatch):
    # perfbench/tracing.py times suite NAME as checks.suite.NAME.total_s by
    # rebinding checks.run_suite and reading the name from its first
    # argument; a run_suites that bypassed the module attribute would report
    # every suite at 0 s.
    names, run_suite = [], checks.run_suite

    def spy(*args, **kwargs):
        names.append(args[0])
        return run_suite(*args, **kwargs)

    monkeypatch.setattr(checks, "run_suite", spy)
    checks.run_suites("all", 2, 0)
    assert names == list(checks.SUITE_NAMES)
    assert runpy.run_path(str(TRACING))["SUITES"] == checks.SUITE_NAMES


def test_every_error_class_is_raised():
    # An exception class nothing raises is surface that nothing uses.
    source = "\n".join(p.read_text() for p in Path(magep.__file__).parent.glob("*.py"))
    dead = [
        name
        for name, cls in vars(errors).items()
        if inspect.isclass(cls)
        and issubclass(cls, errors.MagepError)
        and cls is not errors.MagepError
        and not re.search(rf"\braise\s+(errors\.)?{name}\b", source)
    ]
    assert not dead, f"magep.errors defines {dead}, which nothing in magep raises"
