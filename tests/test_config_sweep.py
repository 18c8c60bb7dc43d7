"""Sweep of the configuration space: every bad value exits with its code.

A value the schema refuses is a configuration error (exit 2) caught
before anything runs, so no dataset is written.
"""

import pytest

from nvdeer.cli import _SCHEMA, main

FLOAT_KEYS = [f"{sect}.{key}" for sect, keys in _SCHEMA.items()
              for key, (_, conv, _) in keys.items() if conv is float]


def _written(out):
    return sorted(p.name for p in out.iterdir()) if out.exists() else []


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("path", FLOAT_KEYS)
def test_non_finite_float_exit_2(tmp_path, capsys, path, value):
    out = tmp_path / "out"
    assert main(["simulate", "-e", "deer-spectrum", "--set",
                 f"{path}={value}", "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    assert _written(out) == []


def test_non_finite_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"timing": {"t_b_us": Infinity}}')
    out = tmp_path / "out"
    assert main(["simulate", "-e", "deer-rabi", "--engine", "dynamics",
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert "timing.t_b_us" in capsys.readouterr().err
    assert _written(out) == []


# the dynamics engine counts drive periods in int64; a pulse of 2**62 or
# more periods is refused as a configuration error naming the keys that
# set the count
@pytest.mark.parametrize("args, keys", [
    (["deer-spectrum", "ensemble.gamma_mhz=0", "timing.t_b_us=1e16"],
     ("timing.t_b_us", "sweep.f_max_mhz")),
    (["deer-spectrum", "ensemble.gamma_mhz=0", "timing.t_b_us=1e20"],
     ("timing.t_b_us", "sweep.f_max_mhz")),
    (["deer-rabi", "sweep.t_max_us=1e20"], ("sweep.t_max_us", "field.b0_mt")),
], ids=["spectrum-1e16", "spectrum-1e20", "rabi-1e20"])
def test_huge_dynamics_pulse_exit_2(tmp_path, capsys, args, keys):
    experiment, *sets = args
    out = tmp_path / "out"
    argv = ["simulate", "-e", experiment, "--engine", "dynamics",
            "--out", str(out)]
    for item in sets:
        argv += ["--set", item]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys)
    assert _written(out) == []
