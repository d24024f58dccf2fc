"""Every name a module exports in ``__all__`` exists, so an export left
behind by a deleted name fails here, not only under ``import *``; and,
read from the parsed source, every import and every private top-level
name in ``src/zetali`` is used, so deleted code leaves no helper behind."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import zetali
from zetali import PrecisionContext

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "zetali").glob("*.py"))
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC}

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


def test_no_public_name_is_a_second_name():
    # every export is defined in the package: an alias such as
    # ``X = mp.mpf`` would report mpmath's module and fail here
    foreign = [name for name in zetali.__all__ if name != "__version__"
               and not getattr(getattr(zetali, name), "__module__", "").startswith("zetali.")]
    assert foreign == []


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


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def _loaded(tree):
    """Every name read in ``tree``: a bare name, or an attribute read off
    anything, which covers ``module._helper``."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    # no linter runs here, so an import left behind by deleted code fails
    # this test: each imported name is read in its module or exported
    tree = TREES[module]
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names if alias.name != "*"}
    assert sorted(imported - _loaded(tree) - _declared_all(tree)) == []


def test_every_private_top_level_name_is_used():
    # a private helper that nothing in src/ reads any more is dead code
    defined = {(module, target.id if isinstance(target, ast.Name) else target.name)
               for module, tree in TREES.items() for node in tree.body
               for target in (node.targets if isinstance(node, ast.Assign) else [node])
               if isinstance(target, (ast.Name, ast.FunctionDef, ast.ClassDef))}
    private = {(module, name) for module, name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert len(private) > 20  # the parse sees the helpers
    used = set().union(*map(_loaded, TREES.values()),
                       *({alias.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for alias in node.names}
                         for tree in TREES.values()))
    assert sorted(f"{module}.{name}" for module, name in private if name not in used) == []


@pytest.mark.parametrize("module", ["cli", "verify"])
def test_front_ends_reach_nothing_private_of_the_sums(module):
    # the batch routes serve every multi-index command, so the command
    # line and the verification suite need no private helper of the
    # modules that hold the partition sums, imported or read off them
    tree, sums_modules = TREES[module], {"coefficients", "li"}
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in sums_modules
                for alias in node.names if alias.name.startswith("_")]
    read = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id in sums_modules
            and node.attr.startswith("_")]
    assert imported + read == []
