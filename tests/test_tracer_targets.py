"""Every function that ``perfbench/tracer.py`` wraps still exists.

The tracer looks each ``(module, attribute)`` pair of its ``TARGETS`` up
with ``getattr`` when it installs, so a deleted or renamed name would
crash ``perfbench/run.py --trace 1``.  The file is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [
                getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


@pytest.mark.parametrize("module,attr",
                         [(module, attr) for module, attr, _, _ in _targets()])
def test_target_resolves(module, attr):
    assert callable(getattr(importlib.import_module("zetali." + module), attr))
