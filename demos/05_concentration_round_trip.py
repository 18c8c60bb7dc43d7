"""
Concentration round trip: synthesize, add noise, fit back
=========================================================

End-to-end exercise of the staged estimation pipeline on a synthetic
spectrum whose ground truth is known.  A two-species target ensemble
(200 ppb P1 plus a 13 ppb S=1/2 shoulder species, "X") is rendered with
the closed-form contrast model, 1% Gaussian noise is added, and the fit
runs in the same three stages the command-line pipeline uses:

1. Lorentzian dip positions on the raw spectrum,
2. Rabi frequency from a separate nutation trace,
3. per-peak concentration fits with the line widths free, then a
   two-species refit of the central group that separates X from P1.

Takes about a minute; most of it is stage 3 multistart fitting.
"""

import numpy as np

from nvdeer import (DeerFixedParams, FieldConfiguration, LorentzianPeak,
                    P1_FIVE_LINE_AMPLITUDES, deer_signal_from_transfer,
                    detection_limit_ppb, fit_central_line_two_species,
                    fit_concentration_spectrum, fit_lorentzian_peaks,
                    fit_rabi_frequency, p1_group_table, population_transfer,
                    x_line_frequency)
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
# merge the two overlapping central P1 lines into one weighted group so
# the generator matches what a spectrometer resolves (five dips)
centers, amps = p1_group_table(field)
f_x = x_line_frequency(field)

f_grid = np.arange(900.0, 1190.0, 0.25)
pt_p1 = sum(population_transfer([LorentzianPeak(fc, GAMMA, aa)],
                                OMEGA, f_grid, T_B)
            for fc, aa in zip(centers, amps))
pt_x = population_transfer([LorentzianPeak(f_x, GAMMA, 1.0)],
                           OMEGA, f_grid, T_B)
y = deer_signal_from_transfer([pt_p1, pt_x], [N_P1, N_X], T_B_DELAY)
trace = SpectrumTrace(f_grid,
                      y + 0.01 * rng.standard_normal(len(f_grid)),
                      y_err=np.full(len(f_grid), 0.01),
                      x_label="f_B (MHz)", y_label="I_DEER")
print(f"synthetic spectrum: {len(f_grid)} points, truth "
      f"P1 = {N_P1:.0f} ppb, X = {N_X:.0f} ppb")

# ----------------------------------------------------------------------
# stage 1: dip positions
# ----------------------------------------------------------------------
peakset, _ = fit_lorentzian_peaks(trace, 5, seed=SEED)
found = sorted(p.f_r_mhz for p in peakset)
print("\nstage 1 dip positions (MHz): "
      + ", ".join(f"{f:.2f}" for f in found))

# ----------------------------------------------------------------------
# stage 2: drive calibration from a nutation trace
# ----------------------------------------------------------------------
t_r = np.linspace(0.02, 3.0, 120)
y_r = (0.5 - 0.5 * np.exp(-t_r / 8.0) * np.cos(2 * np.pi * OMEGA * t_r)
       + 0.01 * rng.standard_normal(len(t_r)))
omega_fit, _ = fit_rabi_frequency(
    SpectrumTrace(t_r, y_r, x_label="t (us)", y_label="P"), seed=SEED)
print(f"stage 2 Rabi frequency: {omega_fit:.4f} MHz")

# ----------------------------------------------------------------------
# stage 3: concentrations
# ----------------------------------------------------------------------
fixed = DeerFixedParams(omega_mhz=omega_fit, t_b_us=T_B,
                        t_b_delay_us=T_B_DELAY,
                        amps=P1_FIVE_LINE_AMPLITUDES)
est_p1, res_peaks = fit_concentration_spectrum(trace, peakset, fixed,
                                               seed=SEED)
print(f"\nstage 3 P1 estimate: {est_p1.value_ppb:.1f} "
      f"+/- {est_p1.uncertainty_ppb:.1f} ppb "
      f"({100 * abs(est_p1.value_ppb / N_P1 - 1):.1f}% off truth)")
print("  per-peak values:",
      ", ".join(f"{v:.1f}" for v in est_p1.per_peak_values))

ctr = found[2]
sub = trace.window(ctr - 16.0, ctr + 12.0)
background = [(r.params["n_ppb"], r.params["f_r"], r.params["gamma"], a)
              for i, (r, a) in enumerate(zip(res_peaks,
                                             P1_FIVE_LINE_AMPLITUDES))
              if i != 2]
est_x, _ = fit_central_line_two_species(sub, est_p1.value_ppb, fixed,
                                        background=background, seed=SEED)
print(f"two-species central refit: X = {est_x.value_ppb:.1f} "
      f"+/- {est_x.uncertainty_ppb:.1f} ppb "
      f"({100 * abs(est_x.value_ppb / N_X - 1):.1f}% off truth)")

# what the method could still see under these settings
lim = detection_limit_ppb(0.05, 100.0, sigma_b=0.5, line_amp=1.0 / 3.0)
print(f"\ndetection limit at 5% contrast and T_B = 100 us: {lim:.1f} ppb")
