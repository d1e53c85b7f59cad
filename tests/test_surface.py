"""The package's public surface and its coefficient block declarations."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import magep
from magep.layers import EquivariantParams, InvariantParams, MiddleBlocks

MODULES = [
    m.name for m in pkgutil.iter_modules(magep.__path__, "magep.") if m.name != "magep.__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}, which do not exist"


def test_declared_blocks_are_the_coefficient_fields():
    # An undeclared block field would drop out of save/load, blocks() and
    # the parameter counts.
    for cls in (EquivariantParams, InvariantParams):
        declared = [f.name for f in fields(cls) if "block" in f.metadata]
        assert declared == [f.name for f in fields(cls) if f.name.startswith("phi")]
    assert all("block" in f.metadata for f in fields(MiddleBlocks))
