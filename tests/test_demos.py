"""Every demo script and the README quick start run to completion.

The demos and the quick start exercise the public API the way a reader
would copy it, so an API change that breaks one shows up here.  Each
runs in seconds and writes nothing to its working directory.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert not any(tmp_path.iterdir())


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "val_r_mean=" in proc.stdout
    assert not any(tmp_path.iterdir())
