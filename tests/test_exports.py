"""Every name a module exports in ``__all__`` exists, so an export left
behind by a deleted name fails here, not only under ``import *``."""

import importlib
import inspect
import pkgutil

import pytest

import zetali
from zetali import PrecisionContext

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


def test_package_exports_are_the_module_lists():
    # each public name is declared once, in its module's __all__; the
    # package exports exactly those lists and nothing of its own
    modules = (zetali.errors, zetali.numerics, zetali.partitions, zetali.stieltjes,
               zetali.coefficients, zetali.li, zetali.verify)
    assert zetali.__all__ == ["__version__", *(name for mod in modules for name in mod.__all__)]
    assert len(set(zetali.__all__)) == len(zetali.__all__)


def test_callers_state_every_precision():
    # the library picks no precision: no exported callable defaults a
    # context or a bit count, and a context needs both of its fields
    defaulted, checked = [], set()
    for module in MODULES:
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", ()):
            checked.add(name)
            try:
                params = inspect.signature(getattr(mod, name)).parameters
            except (TypeError, ValueError):  # not callable, or no signature
                continue
            defaulted += [f"{module}.{name}({p})" for p in ("ctx", "target_bits", "guard_bits")
                          if p in params and params[p].default is not inspect.Parameter.empty]
    assert defaulted == []
    assert "cauchy_coefficients" in checked
    with pytest.raises(TypeError):
        PrecisionContext(192)
    # nor does the verification suite choose its own size or precision
    params = inspect.signature(zetali.run_verification).parameters.values()
    assert all(p.default is inspect.Parameter.empty for p in params)
