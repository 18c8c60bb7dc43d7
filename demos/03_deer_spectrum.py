"""
DEER spectrum: density-matrix simulation vs closed-form model
=============================================================

The headline consistency check of the toolkit.  The P1 pump probability
P_B(f_B) is computed two independent ways:

* numerically, by propagating each P1 ensemble member in the lab frame
  through the pump pulse and summing weighted transition probabilities;
* analytically, by convolving the detuned Rabi formula with Lorentzian
  lines at the same positions and weights.

Both are mapped to echo contrast through the exponential dephasing
model I = exp(-C n T_B P_B) at 200 ppb and compared point by point.
The two curves share no code path beyond the line table and that
contrast map (deer_signal_from_transfer), so agreement at the few-1e-3
level validates each against the other.

Takes roughly half a minute (the numeric half integrates six spins over
a hundred-point frequency grid).  Writes spectrum_demo.csv plus a plot
sidecar into demos/out/.
"""

import pathlib
import time

import numpy as np

from nvdeer import (FieldConfiguration, LorentzianPeak,
                    deer_signal_from_transfer, ensemble_transfer, p1_ensemble,
                    p1_line_table, population_transfer)
from nvdeer.datasets import DataSet, write_plot_spec

field = FieldConfiguration(b0_mag_mt=37.2, tilt_deg=0.1, rabi_mhz=2.0,
                           drive_freq_mhz=1042.0)
T_B = 0.25        # pump pulse length, us
T_B_DELAY = 20.0  # echo delay the contrast accumulates over, us
N_PPB = 200.0

rows = p1_line_table(field)
f_lines = np.array([r[0] for r in rows])
f_grid = np.arange(f_lines.min() - 12.0, f_lines.max() + 12.0, 2.0)
print(f"{len(f_grid)} frequency points, {len(rows)} P1 lines")

# numeric branch: lab-frame propagation of every ensemble member
t0 = time.time()
members = p1_ensemble(merge_off_axis=True)
p_num = ensemble_transfer(members, field, f_grid, T_B, substeps=32)
print(f"numeric P_B done in {time.time() - t0:.1f} s")

# analytic branch: Lorentzian convolution of the detuned Rabi formula.
# Zero width reproduces the bare line positions of the numeric model;
# finite widths enter later as fit parameters.
peaks = [LorentzianPeak(f, 0.0, a) for f, a in rows]
p_ana = population_transfer(peaks, field.rabi_mhz, f_grid, T_B)

# map both to echo contrast at the working concentration
i_num = deer_signal_from_transfer(p_num, N_PPB, T_B_DELAY)
i_ana = deer_signal_from_transfer(p_ana, N_PPB, T_B_DELAY)

dev = np.abs(i_num - i_ana)
print(f"max |I_num - I_ana| = {dev.max():.4f} "
      f"(at f = {f_grid[dev.argmax()]:.1f} MHz)")
print(f"rms deviation        = {np.sqrt((dev ** 2).mean()):.5f}")
print(f"deepest dip: I = {i_num.min():.3f} "
      f"at f = {f_grid[i_num.argmin()]:.1f} MHz")

out_dir = pathlib.Path(__file__).resolve().parent / "out"
out_dir.mkdir(exist_ok=True)
ds = DataSet(columns={"f_mhz": f_grid, "i_numeric": i_num,
                      "i_analytic": i_ana},
             units={"f_mhz": "MHz", "i_numeric": "1", "i_analytic": "1"},
             meta={"n_p1_ppb": f"{N_PPB}", "t_b_us": f"{T_B}",
                   "t_b_delay_us": f"{T_B_DELAY}"})
ds.write_csv(out_dir / "spectrum_demo.csv")
write_plot_spec(out_dir / "spectrum_demo_plot.json",
                title="P1 DEER spectrum, numeric vs closed form",
                x_label="f_B (MHz)", y_label="I_DEER",
                series=[{"file": "spectrum_demo.csv", "x": "f_mhz",
                         "y": "i_numeric", "label": "density matrix"},
                        {"file": "spectrum_demo.csv", "x": "f_mhz",
                         "y": "i_analytic", "label": "closed form"}])
print(f"wrote {out_dir / 'spectrum_demo.csv'}")
