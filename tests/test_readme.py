"""The README's "Library use" Python block runs as written, in a fresh
interpreter on the package from source."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_block_runs():
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(
        os.environ, PYTHONPATH=src if not path else src + os.pathsep + path
    )
    done = subprocess.run(
        [sys.executable, "-c", block], env=env, cwd=ROOT, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
