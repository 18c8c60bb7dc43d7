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
