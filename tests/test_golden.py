"""Golden outputs of `nvdeer simulate` on the analytic engine.

Every experiment runs at its defaults and with noise on; the files it
writes are compared with the reference copies under tests/golden/.
Header lines, column names, units, summary keys and plot specs must
match exactly, numbers to a relative 1e-12 (so that another libm cannot
fail the test).  Sweeps are shortened to keep the reference files small.

After a deliberate change of the simulated outputs, rewrite the
references with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from nvdeer.cli import EXPERIMENTS, main
from nvdeer.datasets import read_summary

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
RTOL = 1e-12

SHORT = ("--set", "sweep.df_mhz=2", "--set", "sweep.n_points=31")
NOISE = ("--noise", "0.01", "--seed", "3")
# diffusion has no default NV density or defect count
EXTRA = {"diffusion": ("--set", "sample.count=4736",
                       "--set", "ensemble.n_nv_ppb=560")}

CASES = {}
for _exp in EXPERIMENTS:
    CASES[_exp] = ("-e", _exp, *SHORT, *EXTRA.get(_exp, ()))
    CASES[f"{_exp}-noise"] = CASES[_exp] + NOISE
# the benchmark's spectrum, and the sensor-sensor (NV) term switched on
CASES["deer-spectrum-bench"] = ("-e", "deer-spectrum", *SHORT, "--noise",
                                "0.01", "--seed", "0",
                                "--set", "ensemble.n_p1_ppb=230",
                                "--set", "ensemble.n_x_ppb=15")
CASES["deer-spectrum-nv"] = ("-e", "deer-spectrum", *SHORT,
                             "--set", "ensemble.n_nv_ppb=560")


def _simulate(case, out_dir):
    assert main(["simulate", *CASES[case], "--out", str(out_dir)]) == 0


def _compare_csv(got, want):
    g_lines = got.read_text().splitlines()
    w_lines = want.read_text().splitlines()
    n_head = sum(line.startswith("#") for line in w_lines) + 1
    # comment block (metadata, units) and column-name row
    assert g_lines[:n_head] == w_lines[:n_head]
    assert len(g_lines) == len(w_lines)
    g = np.array([[float(v) for v in line.split(",")]
                  for line in g_lines[n_head:]])
    w = np.array([[float(v) for v in line.split(",")]
                  for line in w_lines[n_head:]])
    np.testing.assert_allclose(g, w, rtol=RTOL, atol=0)


def _compare_ini(got, want):
    g, w = read_summary(got), read_summary(want)
    assert list(g) == list(w)
    for section in w:
        assert list(g[section]) == list(w[section]), section
        for key, w_val in w[section].items():
            g_val = g[section][key]
            try:
                w_num = float(w_val)
            except ValueError:
                assert g_val == w_val, f"{section}.{key}"
                continue
            np.testing.assert_allclose(float(g_val), w_num, rtol=RTOL,
                                       atol=0, err_msg=f"{section}.{key}")


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_matches_golden(tmp_path, case):
    _simulate(case, tmp_path)
    ref = GOLDEN / case
    names = sorted(p.name for p in ref.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        got, want = tmp_path / name, ref / name
        if name.endswith(".csv"):
            _compare_csv(got, want)
        elif name.endswith(".ini"):
            _compare_ini(got, want)
        else:
            assert json.loads(got.read_text()) == \
                json.loads(want.read_text())


if __name__ == "__main__":
    for case in sorted(CASES):
        out = GOLDEN / case
        out.mkdir(parents=True, exist_ok=True)
        for old in out.iterdir():
            old.unlink()
        _simulate(case, out)
    sys.exit(0)
