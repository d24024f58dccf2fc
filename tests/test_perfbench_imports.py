"""Every zetali name that ``perfbench/`` uses still exists.

The benchmark scripts import names from zetali modules and read
attributes off them (``li.lambda_tilde_explicit``,
``zetali.cli.main``).  A name that leaves an ``__all__`` stays
importable; a deleted or renamed one must fail here, not in a benchmark
run.  The scripts are parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _is_module(dotted):
    path = ROOT / "src" / Path(*dotted.split("."))
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def _chain(node):
    """``["a", "b", "c"]`` for the attribute read ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def _uses():
    """``(module, name)`` for every name a script imports from a zetali
    module or reads off one."""
    uses = set()
    for script in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        bound = {}  # local name -> the zetali module it holds
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "zetali":
                        bound[alias.asname or "zetali"] = (alias.name if alias.asname
                                                           else "zetali")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and node.module.split(".")[0] == "zetali"):
                for alias in node.names:
                    uses.add((node.module, alias.name))
                    if _is_module(f"{node.module}.{alias.name}"):
                        bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            parts = _chain(node) if isinstance(node, ast.Attribute) else None
            if not parts or parts[0] not in bound:
                continue
            dotted = [*bound[parts[0]].split("."), *parts[1:]]
            # the longest module prefix, and the first name read off it
            cut = max(i for i in range(1, len(dotted) + 1) if _is_module(".".join(dotted[:i])))
            if cut < len(dotted):
                uses.add((".".join(dotted[:cut]), dotted[cut]))
    return sorted(uses)


USES = _uses()


def test_uses_found():
    # the parse sees both kinds of use, so an empty list cannot pass
    assert ("zetali.verify", "ETA_FIXTURES") in USES
    assert ("zetali.li", "lambda_tilde_explicit") in USES
    assert ("zetali.cli", "main") in USES


@pytest.mark.parametrize("module,name", USES, ids=[f"{m}.{n}" for m, n in USES])
def test_use_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
