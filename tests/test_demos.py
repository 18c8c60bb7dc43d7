import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# demo 03 writes into demos/out/, so it is left out
DEMOS = ("01_energy_levels.py", "02_driven_nutation.py",
         "04_optical_polarization.py", "05_concentration_round_trip.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
