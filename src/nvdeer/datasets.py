"""On-disk formats: CSV datasets, key-value summaries, plot sidecars.

A DataSet is a bundle of equal-length named numeric columns with units
plus a free-form metadata mapping (acquisition parameters, seed, config
hash, tool version).  It serializes to comma-separated text with a
commented header block so the files stay diffable and readable by any
CSV tool; summaries are INI-style key-value text; plot descriptions are
JSON sidecars naming the data files instead of rendering images.
"""

import configparser
import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["DataSet", "write_summary", "read_summary", "write_plot_spec"]

_MAGIC = "nvdeer-dataset"
_FORMAT_VERSION = "1"


def _fmt(x):
    """Shortest exact decimal form of a float (round-trips via repr)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@dataclass
class DataSet:
    """Named numeric columns with units and metadata.

    columns maps name -> 1-D array; units maps the same names to unit
    strings ("1" for dimensionless).  meta holds string-valued
    acquisition parameters and provenance keys.
    """

    columns: dict
    units: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.columns:
            raise DataError("dataset needs at least one column")
        cols = {}
        n = None
        for name, vals in self.columns.items():
            arr = np.asarray(vals, dtype=float)
            if arr.ndim != 1:
                raise DataError(f"column '{name}' is not one-dimensional")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise DataError(
                    f"column '{name}' has {len(arr)} rows, expected {n}")
            cols[name] = arr
        self.columns = cols
        missing = [k for k in cols if k not in self.units]
        if missing:
            raise DataError(f"columns missing units: {', '.join(missing)}")
        self.units = {k: str(self.units[k]) for k in cols}
        self.meta = {str(k): str(v) for k, v in self.meta.items()}

    def __len__(self):
        return len(next(iter(self.columns.values())))

    def write_csv(self, path):
        """Write the dataset; header block lines start with '#'."""
        buf = io.StringIO()
        buf.write(f"# {_MAGIC} v{_FORMAT_VERSION}\n")
        for key in sorted(self.meta):
            buf.write(f"# {key} = {self.meta[key]}\n")
        buf.write("# units: " + ",".join(
            self.units[k] for k in self.columns) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(self.columns))
        for row in zip(*self.columns.values()):
            writer.writerow([_fmt(v) for v in row])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(buf.getvalue())

    @classmethod
    def read_csv(cls, path):
        """Parse a dataset file; malformed content raises DataError with
        the one-based line number."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise DataError(str(exc)) from None
        meta = {}
        unit_list = None
        body_start = None
        if not lines or not lines[0].startswith(f"# {_MAGIC}"):
            raise DataError(f"{path} line 1: missing '{_MAGIC}' header")
        for i, line in enumerate(lines[1:], start=2):
            if not line.startswith("#"):
                body_start = i
                break
            text = line[1:].strip()
            if text.startswith("units:"):
                unit_list = [u.strip() for u in
                             text[len("units:"):].split(",")]
            elif "=" in text:
                key, _, val = text.partition("=")
                meta[key.strip()] = val.strip()
            elif text:
                raise DataError(
                    f"{path} line {i}: header line is neither 'key = "
                    f"value' nor 'units:'")
        if body_start is None:
            raise DataError(f"{path}: no column header row after the "
                            "comment block")
        if unit_list is None:
            raise DataError(f"{path}: missing '# units:' line")
        names = next(csv.reader([lines[body_start - 1]]))
        names = [n.strip() for n in names]
        for j, n in enumerate(names):
            if n in names[:j]:
                raise DataError(f"{path} line {body_start}: column '{n}' "
                                "appears more than once")
        if len(unit_list) != len(names):
            raise DataError(
                f"{path} line {body_start}: {len(names)} columns but "
                f"{len(unit_list)} units")
        rows = []
        for i, line in enumerate(lines[body_start:], start=body_start + 1):
            if not line.strip():
                continue
            cells = next(csv.reader([line]))
            if len(cells) != len(names):
                raise DataError(
                    f"{path} line {i}: expected {len(names)} fields, "
                    f"got {len(cells)}")
            try:
                rows.append([float(v) for v in cells])
            except ValueError as exc:
                raise DataError(f"{path} line {i}: {exc}") from None
        if not rows:
            raise DataError(f"{path}: no data rows")
        data = np.asarray(rows, dtype=float)
        columns = {n: data[:, j] for j, n in enumerate(names)}
        units = dict(zip(names, unit_list))
        return cls(columns=columns, units=units, meta=meta)

    def to_trace(self, x_col, y_col, err_col=None):
        """View two (or three) columns as a SpectrumTrace."""
        from .trace import SpectrumTrace
        for name in filter(None, (x_col, y_col, err_col)):
            if name not in self.columns:
                raise DataError(f"dataset has no column '{name}'")
        return SpectrumTrace(
            self.columns[x_col], self.columns[y_col],
            y_err=self.columns[err_col] if err_col else None,
            x_label=f"{x_col} ({self.units[x_col]})",
            y_label=f"{y_col} ({self.units[y_col]})")


def write_summary(path, sections):
    """Write an INI-style summary: {section: {key: value}}.

    Values are formatted with repr for floats so identical inputs give
    byte-identical files.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    for section in sections:
        parser.add_section(section)
        for key, val in sections[section].items():
            if isinstance(val, float):
                parser.set(section, key, _fmt(val))
            else:
                parser.set(section, key, str(val))
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)


def read_summary(path):
    """Read an INI-style summary back into {section: {key: str}}."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise DataError(f"{path}: {exc}") from None
    return {s: dict(parser.items(s)) for s in parser.sections()}


def write_plot_spec(path, title, x_label, y_label, series):
    """Write a declarative plot description as JSON.

    series is a list of dicts, each naming a data file and the columns
    to draw: {"file": ..., "x": ..., "y": ..., ("y_err": ...,)
    "label": ...}.  No images are rendered; the sidecar is enough for
    any plotting frontend to reproduce the figure.
    """
    spec = {
        "title": title,
        "x_label": x_label,
        "y_label": y_label,
        "series": list(series),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=2, sort_keys=True)
        fh.write("\n")
