"""
Concentration round trip: synthesize, add noise, fit back
=========================================================

End-to-end exercise of the staged estimation pipeline on a synthetic
spectrum whose ground truth is known.  A two-species target ensemble
(200 ppb P1 plus a 13 ppb S=1/2 shoulder species, "X") is rendered with
the forward model that `nvdeer simulate` renders and the fit stages fit
(SpectrumModel), 1% Gaussian noise is added, and the fit runs the path
of `nvdeer fit -e deer-spectrum`.  Stage two, the Rabi frequency, comes
from a separate nutation trace (fit_rabi_frequency).
fitting.fit_deer_spectrum, the function the command-line fit calls,
runs the rest:

1. Lorentzian dip positions on the raw spectrum,
3. per-peak concentration fits with the line widths free, the middle
   dip fitted as the field's central P1 pair,
4. a two-species fit of the central window that separates X from P1.

The model's six P1 lines are those of p1_line_table; the two central
lines overlap into one observed dip, so stage one finds five.  Every
fit makes one start from its seed; the script runs in under a second
(0.7 s on a 2-core x86 host), most of it imports.
"""

import numpy as np

from nvdeer import (FieldConfiguration, SpectrumModel, detection_limit_ppb,
                    fit_deer_spectrum, fit_rabi_frequency)
from nvdeer.trace import SpectrumTrace

SEED = 20
N_P1, N_X, GAMMA = 200.0, 13.0, 1.2
OMEGA, T_B, T_B_DELAY = 2.0, 0.25, 20.0

field = FieldConfiguration(b0_mag_mt=37.2, tilt_deg=0.1, rabi_mhz=OMEGA,
                           drive_freq_mhz=1042.0)
rng = np.random.default_rng(SEED)

# ----------------------------------------------------------------------
# synthesize the measured spectrum
# ----------------------------------------------------------------------
f_grid = np.arange(900.0, 1190.0, 0.25)
y = SpectrumModel(field, OMEGA, T_B, T_B_DELAY).signal(
    f_grid, {"P1": N_P1, "X": N_X}, GAMMA)
trace = SpectrumTrace(f_grid,
                      y + 0.01 * rng.standard_normal(len(f_grid)),
                      y_err=np.full(len(f_grid), 0.01),
                      x_label="f_B (MHz)", y_label="I_DEER")
print(f"synthetic spectrum: {len(f_grid)} points, truth "
      f"P1 = {N_P1:.0f} ppb, X = {N_X:.0f} ppb")

# ----------------------------------------------------------------------
# stage 2: drive calibration from a nutation trace
# ----------------------------------------------------------------------
t_r = np.linspace(0.02, 3.0, 120)
y_r = (0.5 - 0.5 * np.exp(-t_r / 8.0) * np.cos(2 * np.pi * OMEGA * t_r)
       + 0.01 * rng.standard_normal(len(t_r)))
omega_fit, _ = fit_rabi_frequency(
    SpectrumTrace(t_r, y_r, x_label="t (us)", y_label="P"))
print(f"\nstage 2 Rabi frequency: {omega_fit:.4f} MHz")

# ----------------------------------------------------------------------
# stages 1, 3 and 4: the staged fit of `nvdeer fit -e deer-spectrum`
# ----------------------------------------------------------------------
fit = fit_deer_spectrum(trace, omega_fit, T_B, T_B_DELAY, field=field)
print("stage 1 dip positions (MHz): "
      + ", ".join(f"{p.f_r_mhz:.2f}" for p in fit.peaks))
print(f"stage 3 P1 estimate: {fit.p1.value_ppb:.1f} "
      f"+/- {fit.p1.uncertainty_ppb:.1f} ppb "
      f"({100 * abs(fit.p1.value_ppb / N_P1 - 1):.1f}% off truth)")
print("  per-peak values:",
      ", ".join(f"{v:.1f}" for v in fit.p1.per_peak_values))
print(f"stage 4 two-species central fit: X = {fit.x.value_ppb:.1f} "
      f"+/- {fit.x.uncertainty_ppb:.1f} ppb "
      f"({100 * abs(fit.x.value_ppb / N_X - 1):.1f}% off truth)")

# what the method could still see under these settings
lim = detection_limit_ppb(0.05, 100.0, line_amp=1.0 / 3.0)
print(f"\ndetection limit at 5% contrast and T_B = 100 us: {lim:.1f} ppb")
