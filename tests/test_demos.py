import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("[0-9]*.py"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    # each demo runs from a copy, so what it writes next to itself
    # (demo 03's out/) lands under tmp_path
    demo = tmp_path / "demos" / name
    demo.parent.mkdir()
    shutil.copy(ROOT / "demos" / name, demo)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
