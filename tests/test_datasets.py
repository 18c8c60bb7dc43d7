import numpy as np
import pytest

from nvdeer.datasets import (DataSet, read_summary, write_plot_spec,
                             write_summary)
from nvdeer.errors import DataError


def sample_dataset():
    return DataSet(
        columns={"f_mhz": np.array([900.0, 900.5, 901.0]),
                 "contrast": np.array([1.0, 0.97, 0.9913])},
        units={"f_mhz": "MHz", "contrast": "1"},
        meta={"seed": "7", "config": "abc123def456"})


def test_round_trip_is_exact(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "spectrum.csv"
    ds.write_csv(path)
    back = DataSet.read_csv(path)
    assert list(back.columns) == list(ds.columns)
    for name in ds.columns:
        assert np.array_equal(back.columns[name], ds.columns[name])
    assert back.units == ds.units
    assert back.meta == ds.meta


def test_write_is_deterministic(tmp_path):
    ds = sample_dataset()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ds.write_csv(a)
    ds.write_csv(b)
    assert a.read_bytes() == b.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "d.csv"
    sample_dataset().write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# nvdeer-dataset v1"
    assert lines[1] == "# config = abc123def456"
    assert lines[2] == "# seed = 7"
    assert lines[3] == "# units: MHz,1"
    assert lines[4] == "f_mhz,contrast"


def test_full_float_precision(tmp_path):
    vals = np.array([1.0 / 3.0, np.pi, 1e-17])
    ds = DataSet(columns={"v": vals}, units={"v": "1"})
    path = tmp_path / "v.csv"
    ds.write_csv(path)
    assert np.array_equal(DataSet.read_csv(path).columns["v"], vals)


def test_validation_errors():
    with pytest.raises(DataError):
        DataSet(columns={}, units={})
    with pytest.raises(DataError):
        DataSet(columns={"a": [1.0], "b": [1.0, 2.0]},
                units={"a": "1", "b": "1"})
    with pytest.raises(DataError):
        DataSet(columns={"a": [[1.0]]}, units={"a": "1"})
    with pytest.raises(DataError):
        DataSet(columns={"a": [1.0]}, units={})


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# nvdeer-dataset v1\n# units: MHz,1\na,b\n1.0,2.0\n"
                    "3.0,oops\n")
    with pytest.raises(DataError, match="line 5"):
        DataSet.read_csv(path)
    path.write_text("# nvdeer-dataset v1\n# units: MHz,1\na,b\n1.0\n")
    with pytest.raises(DataError, match="line 4"):
        DataSet.read_csv(path)
    path.write_text("not a dataset\n1,2\n")
    with pytest.raises(DataError, match="line 1"):
        DataSet.read_csv(path)
    path.write_text("# nvdeer-dataset v1\n# units: MHz\na,b\n1.0,2.0\n")
    with pytest.raises(DataError, match="2 columns but 1 units"):
        DataSet.read_csv(path)


def test_read_rejects_repeated_column(tmp_path):
    # a repeated name would let the last column replace the first
    path = tmp_path / "dup.csv"
    path.write_text("# nvdeer-dataset v1\n# units: us,1,1\n"
                    "t_us,echo,echo\n1.0,0.9,0.5\n2.0,0.8,0.4\n")
    with pytest.raises(DataError, match="line 3: column 'echo'"):
        DataSet.read_csv(path)


def test_read_missing_file_raises_data_error(tmp_path):
    with pytest.raises(DataError):
        DataSet.read_csv(tmp_path / "nope.csv")


def test_trace_round_trip(tmp_path):
    cols = {"t_us": np.array([1.0, 2.0, 3.0]),
            "contrast": np.array([0.9, 0.8, 0.85]),
            "contrast_err": np.array([0.01, 0.01, 0.02])}
    ds = DataSet(columns=cols,
                 units={"t_us": "us", "contrast": "1", "contrast_err": "1"})
    path = tmp_path / "t.csv"
    ds.write_csv(path)
    back = DataSet.read_csv(path).to_trace("t_us", "contrast",
                                           err_col="contrast_err")
    assert np.array_equal(back.x, cols["t_us"])
    assert np.array_equal(back.y, cols["contrast"])
    assert np.array_equal(back.y_err, cols["contrast_err"])
    assert back.x_label == "t_us (us)"
    with pytest.raises(DataError):
        ds.to_trace("t_us", "missing")


def test_summary_round_trip(tmp_path):
    path = tmp_path / "summary.ini"
    sections = {"estimate": {"value_ppb": 199.63178,
                             "species": "P1"},
                "run": {"seed": 7}}
    write_summary(path, sections)
    back = read_summary(path)
    assert back["estimate"]["species"] == "P1"
    assert float(back["estimate"]["value_ppb"]) == 199.63178
    assert back["run"]["seed"] == "7"
    write_summary(tmp_path / "b.ini", sections)
    assert path.read_bytes() == (tmp_path / "b.ini").read_bytes()


def test_summary_preserves_key_case(tmp_path):
    path = tmp_path / "s.ini"
    write_summary(path, {"sec": {"T2_us": 313.0}})
    assert "T2_us" in read_summary(path)["sec"]


def test_summary_bad_file(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("key_without_section = 1\n")
    with pytest.raises(DataError):
        read_summary(path)


def test_plot_spec_layout(tmp_path):
    import json
    path = tmp_path / "plot.json"
    write_plot_spec(path, "spectrum", "f_B (MHz)", "I",
                    [{"file": "spectrum.csv", "x": "f_mhz", "y": "contrast",
                      "label": "data"}])
    spec = json.loads(path.read_text())
    assert sorted(spec) == ["series", "title", "x_label", "y_label"]
    assert spec["title"] == "spectrum"
    assert spec["series"][0]["file"] == "spectrum.csv"
    # stable serialization
    write_plot_spec(tmp_path / "b.json", "spectrum", "f_B (MHz)", "I",
                    [{"file": "spectrum.csv", "x": "f_mhz", "y": "contrast",
                      "label": "data"}])
    assert path.read_bytes() == (tmp_path / "b.json").read_bytes()
