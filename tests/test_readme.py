"""The README's library quick start runs as a user would paste it."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_quick_start_runs(tmp_path):
    block = re.search(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(
        encoding="utf-8"), re.S | re.M)
    assert block, "no python block in README.md"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block.group(1)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
