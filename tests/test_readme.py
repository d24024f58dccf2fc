"""The README's library quick start and command-line examples run as a
user would paste them."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from zetali.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _command_lines():
    """Each ``zetali ...`` line of the "Command line" section's block,
    split as a shell would, comment dropped."""
    section = README.split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("zetali ")]


def test_quick_start_runs(tmp_path):
    block = re.search(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert block, "no python block in README.md"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block.group(1)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_command_line_block_found():
    assert len(_command_lines()) == 10


@pytest.mark.parametrize("argv", _command_lines(), ids=" ".join)
def test_command_line_example_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # --out t.json lands here
    assert main(argv) == 0, capsys.readouterr().err
