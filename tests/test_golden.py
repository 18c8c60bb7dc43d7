"""Golden outputs of `nvdeer simulate` on the analytic engine.

Every experiment runs at its defaults and with noise on; the files it
writes are compared with the reference copies under tests/golden/.
Header lines, column names, units, summary keys and plot specs must
match exactly, numbers to a relative 1e-12 (so that another libm cannot
fail the test).  Sweeps are shortened to keep the reference files small.

After a deliberate change of the simulated outputs, rewrite the
references with ``PYTHONPATH=src python tests/test_golden.py``.  The
rewrite keeps every reference number that is within RTOL of the new run
as it was, so its diff shows only the numbers that really changed.
"""

import json
import pathlib
import re
import sys
import tempfile

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


def _keep_close(new, old):
    """The text `new` with every number that is within RTOL of the one
    at the same place in `old` written as in `old`: a rewrite then
    changes only the numbers that the test would see change."""
    new_lines, old_lines = new.splitlines(True), old.splitlines(True)
    if len(new_lines) != len(old_lines):
        return new
    out = []
    for n_line, o_line in zip(new_lines, old_lines):
        n_tok = re.split(r"(\s*[,=]\s*)", n_line)
        o_tok = re.split(r"(\s*[,=]\s*)", o_line)
        if len(n_tok) == len(o_tok):
            n_tok = [o if _close(n, o) else n for n, o in zip(n_tok, o_tok)]
        out.append("".join(n_tok))
    return "".join(out)


def _close(new, old):
    try:
        n, o = float(new), float(old)
    except ValueError:
        return False
    return abs(n - o) <= RTOL * abs(o)


if __name__ == "__main__":
    for case in sorted(CASES):
        ref = GOLDEN / case
        ref.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            _simulate(case, tmp)
            made = {p.name: p for p in pathlib.Path(tmp).iterdir()}
            for old in ref.iterdir():
                if old.name not in made:
                    old.unlink()
            for name, path in made.items():
                text = path.read_text()
                if (ref / name).exists() and name.endswith((".csv", ".ini")):
                    text = _keep_close(text, (ref / name).read_text())
                (ref / name).write_text(text)
    sys.exit(0)
