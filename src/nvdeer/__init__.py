"""nvdeer: simulation and fitting for NV-based DEER defect metrology.

The package has two halves that check each other:

* a first-principles half (spincore, hamiltonians, dynamics,
  photophysics) that builds defect spin Hamiltonians and propagates them
  in the lab frame under the actual pulsed drive;
* a closed-form half (deer, fitting) with the analytic echo-contrast
  model used to fit measured or simulated spectra and extract defect
  concentrations and derived material quantities.

The cli module wires both into simulate / fit / report / selftest
commands; datasets handles the on-disk formats.
"""

__version__ = "0.1.0"

from . import constants
from .errors import (ConfigError, DataError, DataQualityWarning, FitError,
                     FitWarning, IntegrationError, NumericError)
from .spincore import (ORIENTATIONS, FieldConfiguration, Orientation,
                       SpinOperatorSet, eigensystem, orientation_families,
                       rotation_matrix, spin_operators, tensor_embed)
from .hamiltonians import (NVParams, P1Params, SpinSystem, XParams,
                           allowed_transitions, apply_orientation, build_nv,
                           build_p1, build_x, drive_hamiltonian,
                           nv_line_table, nv_offaxis_member, nv_onaxis_member,
                           p1_ensemble, p1_group_table, p1_line_table,
                           static_hamiltonian, transition_frequency,
                           x_line_frequency, x_member)
from .trace import SpectrumTrace
from .deer import (DeerModelParams, LorentzianPeak, LorentzianPeakSet,
                   NormalizedSignal, P1_FIVE_LINE_AMPLITUDES, deer_signal,
                   deer_signal_from_transfer, detection_limit_ppb,
                   lorentzian, normalize_signal, population_transfer,
                   rabi_probability)
from .dynamics import (SinusoidalDrive, compute_sigma, ensemble_transfer,
                       propagate, propagate_unitary, simulate_rabi,
                       transition_probability, transition_spectrum)
from .photophysics import (PulseTrain, RateModelParams, base_rate_matrix,
                           dark_rates, evolve_populations,
                           ground_populations, mixing_coefficients,
                           rate_generator, signal_fraction,
                           steady_state_populations, transformed_rates)
from .fitting import (ConcentrationEstimate, DeerFixedParams, FitResult,
                      aggregate_estimates, diffusion_coefficient,
                      epr_concentration, epr_double_integral,
                      fit_central_line_two_species,
                      fit_concentration_spectrum, fit_deer_decay,
                      fit_eseem, fit_hahn_decay, fit_lorentzian_peaks,
                      fit_rabi_frequency, fit_saturation, nv_count)
