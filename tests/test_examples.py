"""Every script under ``examples/`` runs to completion.

The library surface is what the system, the CLI and the examples call, so
the examples are part of what the suite keeps working: each one runs in its
own interpreter (from a scratch directory, so files it writes land there)
and must exit 0.  ``sharded_serving.py`` asserts sharded ≡ unsharded itself.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_every_example_is_collected():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-4000:]
