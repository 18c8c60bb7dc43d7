"""Light container for 1-D measured or simulated traces."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["SpectrumTrace"]


@dataclass
class SpectrumTrace:
    """A sampled 1-D signal: x grid, values, optional per-point errors.

    Used for frequency sweeps (x in MHz), time sweeps (x in us) and field
    sweeps (x in mT); the axis labels say which.
    """

    x: np.ndarray
    y: np.ndarray
    y_err: Optional[np.ndarray] = None
    x_label: str = ""
    y_label: str = ""

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.ndim != 1 or self.x.shape != self.y.shape:
            raise ValueError("x and y must be 1-D arrays of equal length")
        if self.y_err is not None:
            self.y_err = np.asarray(self.y_err, dtype=float)
            if self.y_err.shape != self.x.shape:
                raise ValueError("y_err must match the x grid")
            if np.any(self.y_err < 0):
                raise ValueError("y_err must be non-negative")

    def __len__(self):
        return len(self.x)

    def window(self, x_min, x_max):
        """Sub-trace with x_min <= x <= x_max (inclusive)."""
        m = (self.x >= x_min) & (self.x <= x_max)
        err = self.y_err[m] if self.y_err is not None else None
        return SpectrumTrace(self.x[m], self.y[m], err,
                             self.x_label, self.y_label)
