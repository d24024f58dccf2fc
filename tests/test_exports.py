"""Every name a module exports in ``__all__`` exists, so an export left
behind by a deleted name fails here, not only under ``import *``."""

import importlib
import pkgutil

import pytest

import zetali

# __main__ runs the command line when imported
MODULES = ["zetali"] + [f"zetali.{info.name}"
                        for info in pkgutil.iter_modules(zetali.__path__)
                        if info.name != "__main__"]


@pytest.mark.parametrize("module", MODULES)
def test_exports_resolve(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate export"
    assert [name for name in exported if not hasattr(mod, name)] == []
