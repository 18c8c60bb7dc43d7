"""Closed-form model of the double-resonance echo-decay signal.

The normalized DEER contrast of the sensor echo, with the pump pulse at
frequency f_B applied to a dilute bath species B, is

    I(f_B) = exp(-C(sigma_B) * n_B * T_B * P_B(f_B))

where C is the angular-averaged dipolar rate constant of two electron
spins at g = G_ELECTRON (constants module), n_B the species density,
T_B the dipolar evolution time and P_B the pump flip probability.  P_B
follows from the species' EPR lineshape, a sum of unit-area
Lorentzians, convolved with the finite-pulse Rabi kernel

    P_R(Omega, Delta, t_b) = Omega^2/(Omega^2 + Delta^2)
                             * sin^2(pi sqrt(Omega^2 + Delta^2) t_b).

The convolution is a sum over the Fourier modes of the kernel, built
once per pulse.  SpectrumModel, the forward model that simulate and the
fits evaluate, joins it to the species' lines and the contrast law.
Everything here is analytic; the dynamics module produces the same
quantities from explicit time propagation, which is the cross-check used
by the self tests.
"""

import functools
from dataclasses import dataclass

import numpy as np
# numpy loads numpy.fft on first use; load it with this module instead
import numpy.fft  # noqa: F401

from . import constants as c
from .dynamics import compute_sigma
from .errors import KernelReachError
from .hamiltonians import (allowed_transitions, nv_offaxis_member,
                           p1_line_table, static_hamiltonian, x_member)
from .spincore import FieldConfiguration

__all__ = [
    "SpectrumModel",
    "LorentzianPeak",
    "LorentzianPeakSet",
    "rabi_probability",
    "population_transfer",
    "line_transfer_gradient",
    "deer_signal_from_transfer",
    "contrast_rate_per_ppb",
    "detection_limit_ppb",
    "P1_FIVE_LINE_AMPLITUDES",
]

# relative amplitudes of the five allowed P1 lines for a powder of the four
# <111> families with uniform level populations: the on-axis family (weight
# 1/4) and the merged off-axis families (weight 3/4) each contribute three
# lines of equal strength, and the two central lines overlap in pairs of
# windows far narrower than their separation is resolved by; ordered low to
# high frequency this gives (1/12, 1/4, 1/12 + 1/4, 1/4, 1/12) with the
# central entry counting both families.
P1_FIVE_LINE_AMPLITUDES = (1.0 / 12, 1.0 / 4, 1.0 / 3, 1.0 / 4, 1.0 / 12)

# The Rabi kernel is sampled every KERNEL_STEP_MHZ over one period of its
# Fourier series: KERNEL_PERIOD_MHZ, doubled until the kernel's images one
# period away move the flip probability at the farthest pump frequency by
# < KERNEL_ALIAS (_kernel_period), up to KERNEL_MAX_PERIOD_MHZ.  The modes
# dropped from the series sum to KERNEL_TAIL.  Mode sums run over at most
# MODE_CHUNK pump frequencies at a time, which keeps each complex product
# far below the size at which OpenBLAS starts threads: threaded, the
# 581-point sweep's product took 0.1 to 8 ms on a 2-core host, depending
# on the other core's load, against ~0.2 ms on one thread.
KERNEL_STEP_MHZ = 0.01
KERNEL_PERIOD_MHZ = 1600.0
KERNEL_MAX_PERIOD_MHZ = 25600.0
KERNEL_ALIAS = 1e-5
KERNEL_TAIL = 1e-8
MODE_CHUNK = 64


@dataclass(frozen=True)
class LorentzianPeak:
    """One Lorentzian line: center (MHz), HWHM gamma (MHz), area fraction.

    gamma = 0 is allowed and means the zero-width (delta) limit, useful
    when the only broadening considered is the pulse itself.
    """

    f_r_mhz: float
    gamma_mhz: float
    amp: float

    def __post_init__(self):
        if self.gamma_mhz < 0:
            raise ValueError("gamma_mhz must be >= 0")
        if self.amp < 0:
            raise ValueError("amp must be >= 0")


@dataclass(frozen=True)
class LorentzianPeakSet:
    """A normalized multi-line EPR spectrum (sum of peak areas = 1)."""

    peaks: tuple

    def __post_init__(self):
        peaks = tuple(self.peaks)
        object.__setattr__(self, "peaks", peaks)
        if not peaks:
            raise ValueError("peak set must contain at least one peak")
        total = sum(p.amp for p in peaks)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"peak amplitudes must sum to 1, got {total}")

    def __iter__(self):
        return iter(self.peaks)

    def __len__(self):
        return len(self.peaks)

    def __getitem__(self, i):
        return self.peaks[i]


def rabi_probability(omega_mhz, detuning_mhz, t_b_us):
    """Finite-pulse flip probability of a two-level system.

    P = Omega^2/(Omega^2 + Delta^2) * sin^2(pi sqrt(Omega^2 + Delta^2) t_b),
    the generalized Rabi formula for a resonant-or-detuned square pulse of
    duration t_b.  On resonance a pi pulse (t_b = 1/(2 Omega)) gives 1.
    """
    om2 = float(omega_mhz) ** 2
    det = np.asarray(detuning_mhz, dtype=float)
    if om2 == 0:
        return np.zeros_like(det)
    g2 = om2 + det**2
    return om2 / g2 * np.sin(np.pi * np.sqrt(g2) * t_b_us)**2


def population_transfer(peaks, omega_mhz, f_b_mhz, t_b_us):
    """Pump flip probability P_B(f_B): lineshape (x) Rabi kernel.

    Zero-width peaks give the bare rabi_probability.  A Lorentzian of
    HWHM gamma at f_r scales mode k of the kernel (_kernel_modes) by
    exp(-2 pi gamma nu_k - 2 pi i nu_k f_r), so the broad peaks make one
    coefficient vector, summed at each f_b with no quadrature and no
    interpolation: within 6e-6 of a tight quadrature for gamma up to
    3 MHz out to 240 MHz.  The series is periodic; its period grows with
    the pump's reach beyond the lines and the drive (_kernel_period), and
    past its cap raises KernelReachError.  Vectorized over f_b_mhz.

    Returns
    -------
    float or ndarray in [0, 1].
    """
    if omega_mhz < 0:
        raise ValueError("omega_mhz must be >= 0")
    if t_b_us < 0:
        raise ValueError("t_b_us must be >= 0")
    fb = np.atleast_1d(np.asarray(f_b_mhz, dtype=float))
    out = np.zeros_like(fb)
    widths = {}
    for p in peaks:
        if p.gamma_mhz == 0:
            out = out + p.amp * rabi_probability(omega_mhz, fb - p.f_r_mhz,
                                                 t_b_us)
        else:
            widths.setdefault(p.gamma_mhz, []).append(p)
    if widths and omega_mhz > 0:
        broad = [p for group in widths.values() for p in group]
        period = _kernel_period(broad, omega_mhz, fb)
        beta = sum(_line_modes(group, omega_mhz, t_b_us, period)[1]
                   for group in widths.values())
        out = out + _mode_sum(fb, beta[None], period)[0]
    out = np.clip(out, 0.0, 1.0)
    if np.isscalar(f_b_mhz) or np.asarray(f_b_mhz).ndim == 0:
        return float(out[0])
    return out


def _kernel_period(peaks, omega_mhz, fb):
    """Period (MHz) of the mode sum for broad `peaks` seen from pump
    frequencies fb: the smallest KERNEL_PERIOD_MHZ * 2^m that puts the
    kernel's images at least d = sqrt(2 w / KERNEL_ALIAS) beyond the
    farthest pump-line offset.  Far from a line the line (x) kernel falls
    as w / d^2, w = Omega^2/2 + gamma Omega: the kernel's mean tail
    Omega^2 / (2 d^2), plus the Lorentzian's tail gamma / (pi d^2) times
    the kernel's area (<= pi Omega); the two nearest images add up to
    2 w / d^2.
    """
    f_r = [p.f_r_mhz for p in peaks]
    reach = max(fb.max(initial=-np.inf) - min(f_r),
                max(f_r) - fb.min(initial=np.inf))
    gamma = max(p.gamma_mhz for p in peaks)
    need = reach + np.sqrt(2.0 * (omega_mhz**2 / 2 + gamma * omega_mhz)
                           / KERNEL_ALIAS)
    period = KERNEL_PERIOD_MHZ
    while period < need and period < KERNEL_MAX_PERIOD_MHZ:
        period *= 2.0
    if period < need:
        raise KernelReachError(
            f"a {omega_mhz:g} MHz drive reaching {reach:.0f} MHz beyond the "
            f"lines needs a line-operator period of {need:.0f} MHz, above "
            f"its cap of {KERNEL_MAX_PERIOD_MHZ:.0f} MHz")
    return period


@functools.lru_cache(maxsize=8)
def _kernel_modes(omega_mhz, t_b_us, period):
    """Fourier coefficients c_k of the Rabi kernel of one pulse, with
    R(delta) = sum_k c_k cos(2 pi k delta / period).  The pulse
    band-limits R to |nu| <= t_b, so the series stops where the remaining
    |c_k| sum to KERNEL_TAIL.  Read-only, built once per pulse and period.
    """
    n = round(period / KERNEL_STEP_MHZ)
    det = np.fft.fftfreq(n, 1.0 / period)
    coef = np.fft.rfft(rabi_probability(omega_mhz, det, t_b_us)).real / n
    coef[1:] *= 2.0  # R is even: mode k > 0 stands for +k and -k
    tail = np.cumsum(np.abs(coef[::-1]))[::-1]
    coef = coef[:max(np.count_nonzero(tail > KERNEL_TAIL), 1)].copy()
    coef.flags.writeable = False
    return coef


def _line_modes(peaks, omega_mhz, t_b_us, period):
    """(nu_k, beta_k) of Lorentzians of one width gamma: beta_k =
    c_k exp(-2 pi gamma nu_k) sum_j a_j exp(-2 pi i nu_k f_j)."""
    coef = _kernel_modes(float(omega_mhz), float(t_b_us), period)
    nu = np.arange(len(coef)) / period
    shift = _powers(np.exp((-2j * np.pi / period)
                           * np.array([p.f_r_mhz for p in peaks])), len(coef))
    return nu, coef * np.exp(-2.0 * np.pi * peaks[0].gamma_mhz * nu) * (
        np.array([p.amp for p in peaks]) @ shift)


def _powers(w, m):
    """w[:, None] ** (0, 1, ..., m - 1) by repeated multiplication."""
    out = np.empty((len(w), m), dtype=complex)
    out[:, 0] = 1.0
    out[:, 1:] = w[:, None]
    return np.cumprod(out, axis=1)


def _mode_sum(fb, beta, period):
    """Re sum_k beta[v, k] exp(2 pi i nu_k f_b) for each row v of beta,
    nu_k = k / period.  With k = B q + b the phase is e^(i z b)
    e^(i z B q), so each f_b costs one exponential and ~2 sqrt(K)
    products, and the sum is a matrix product per MODE_CHUNK f_b."""
    n_v, k = beta.shape
    b = int(np.ceil(np.sqrt(k)))
    q = -(-k // b)
    beta = np.concatenate([beta, np.zeros((n_v, b * q - k))], axis=1)
    beta = beta.reshape(n_v, q, b).transpose(0, 2, 1)
    out = np.empty((n_v, len(fb)))
    for start in range(0, len(fb), MODE_CHUNK):
        w = np.exp((2j * np.pi / period) * fb[start:start + MODE_CHUNK])
        fine = _powers(w, b)
        coarse = _powers(fine[:, -1] * w, q)
        out[:, start:start + MODE_CHUNK] = (
            (fine @ beta) * coarse).sum(axis=2).real
    return out


def line_transfer_gradient(peaks, omega_mhz, f_b_mhz, t_b_us):
    """Flip probability of lines of one width, and its slopes.

    peaks is a sequence of LorentzianPeaks sharing gamma_mhz > 0.
    Returns (P, dP/ds, dP/dgamma) on the pump grid, P as
    population_transfer(peaks, ...) and s a shift of every centre (for
    one line, dP/df_r): the same mode sum with mode k scaled by
    -2 pi i nu_k and -2 pi nu_k.  Where P is clipped to [0, 1] its
    derivatives are zero, as for the clipped function.  The fit models
    build their Jacobians on this.
    """
    if omega_mhz <= 0 or any(p.gamma_mhz != peaks[0].gamma_mhz or
                             p.gamma_mhz <= 0 for p in peaks):
        raise ValueError("line_transfer_gradient needs omega_mhz > 0 and "
                         "one shared gamma_mhz > 0")
    fb = np.atleast_1d(np.asarray(f_b_mhz, dtype=float))
    period = _kernel_period(peaks, omega_mhz, fb)
    nu, beta = _line_modes(peaks, omega_mhz, t_b_us, period)
    prob, d_s, d_gamma = _mode_sum(
        fb, np.stack([beta, -2j * np.pi * nu * beta, -2 * np.pi * nu * beta]),
        period)
    clipped = (prob < 0.0) | (prob > 1.0)
    d_s[clipped] = 0.0
    d_gamma[clipped] = 0.0
    return np.clip(prob, 0.0, 1.0), d_s, d_gamma


def deer_signal_from_transfer(p_b, n_b_ppb, t_b_delay_us, sigma_b=0.5):
    """Echo contrast exp(-C T_B sum_i n_i P_i) from flip probabilities.

    p_b and n_b_ppb are one species' flip probability and concentration,
    or equal-length sequences of them for several species that share
    sigma_b.  t_b_delay_us may be an array (a decay versus delay).  This
    is the one place the contrast law is written
    out: the analytic route (P_B from population_transfer), the simulated
    route (P_B from time propagation) and the fit models all use it;
    detection_limit_ppb is its inverse.
    """
    rate_t = _rate_t(t_b_delay_us, sigma_b)
    # the grouping sets the last bits, which fits amplify: (C T n) P for
    # one species, C T sum(n P) for several
    if np.ndim(n_b_ppb) == 0:
        return np.exp(-rate_t * c.ppb_to_per_m3(n_b_ppb) * np.asarray(p_b))
    return np.exp(-rate_t * sum(c.ppb_to_per_m3(n) * np.asarray(p)
                                for n, p in zip(n_b_ppb, p_b)))


def _rate_t(t_b_delay_us, sigma_b):
    """C T_B in m^3: the exponent per spin density."""
    return (c.dipolar_rate_constant(sigma_b)                 # m^3/s
            * np.asarray(t_b_delay_us, dtype=float) * c.US_TO_S)


def contrast_rate_per_ppb(t_b_delay_us):
    """C T_B per ppb at sigma_B = 1/2, so that deer_signal_from_transfer
    is I = exp(-rate sum_i n_i P_i) and dI/dn_i = -rate P_i I."""
    return _rate_t(t_b_delay_us, 0.5) * c.ppb_to_per_m3(1.0)


def detection_limit_ppb(min_contrast, t_b_delay_us, line_amp=1.0 / 3.0):
    """Smallest detectable concentration for a given contrast floor.

    Solves 1 - exp(-C n T_B P) = min_contrast for n, with C at
    sigma_B = 1/2 (an S = 1/2 bath spin) and the pump flipping the
    addressed line completely (P = line_amp, the area fraction of that
    line; a pi pulse on the central line of the five-line nitrogen pattern
    has line_amp = 1/3).  Returns ppb.  This inverts
    deer_signal_from_transfer for one species, so any flip probability in
    (0, 1] may stand in for line_amp, e.g. to seed a fit from a dip depth.
    """
    if not 0 < min_contrast < 1:
        raise ValueError("min_contrast must be in (0, 1)")
    if t_b_delay_us <= 0:
        raise ValueError("t_b_delay_us must be > 0")
    if not 0 < line_amp <= 1:
        raise ValueError("line_amp must be in (0, 1]")
    rate = c.dipolar_rate_constant()
    n_per_m3 = -np.log(1.0 - min_contrast) / (
        rate * t_b_delay_us * c.US_TO_S * line_amp)
    return float(c.per_m3_to_ppb(n_per_m3))


@functools.lru_cache(maxsize=8)
def _species_lines(field):
    """SpectrumModel.lines as (species, rows) pairs, and the sigma of the
    off-axis NV 2<->3 line."""
    x = allowed_transitions(x_member(), field)[:1]
    nv = [r for r in allowed_transitions(nv_offaxis_member(), field)
          if r[2:] == (2, 3)][:1]
    return ((("P1", tuple(p1_line_table(field))),
             ("X", tuple((f, 1.0) for f, *_ in x)),
             ("NV", tuple((f, 1.0) for f, *_ in nv))),
            compute_sigma(static_hamiltonian(nv_offaxis_member(), field),
                          2, 3))


@dataclass(frozen=True)
class SpectrumModel:
    """The forward model of a DEER spectrum at a field, for a pump pulse
    (Rabi frequency omega_mhz, length t_b_us) and a dipolar window
    t_a_us: the species' lines, the line operator (population_transfer,
    line_transfer_gradient) and the contrast law
    (deer_signal_from_transfer).  signal runs all three."""

    field: FieldConfiguration
    omega_mhz: float
    t_b_us: float
    t_a_us: float

    @property
    def lines(self):
        """(frequency, area) rows by species, built once per field: P1's
        from p1_line_table, the first drive-allowed X line and the
        off-axis NV 2<->3 line at area 1, none where no line is allowed."""
        return dict(_species_lines(self.field)[0])

    def transfer(self, f, lines, width):
        """Pump flip probability at f of rows of HWHM width."""
        return self._transfer(f, lines, width, 0.0)

    def _transfer(self, f, rows, width, shift, slopes=False):
        operator = line_transfer_gradient if slopes else population_transfer
        return operator([LorentzianPeak(fr + shift, width, a)
                         for fr, a in rows], self.omega_mhz, f, self.t_b_us)

    def contrast(self, transfers, densities):
        """Echo contrast from the species' flip probabilities, both by
        species (a missing density is 0): P1 and X in one exponent, times
        3/4 of the NVs on their off-axis line when n_NV > 0."""
        out = deer_signal_from_transfer(
            [transfers["P1"], transfers["X"]],
            [densities.get("P1", 0.0), densities.get("X", 0.0)], self.t_a_us)
        if densities.get("NV", 0.0) > 0:
            out = out * deer_signal_from_transfer(
                0.75 * transfers["NV"], densities["NV"], self.t_a_us,
                _species_lines(self.field)[1])
        return out

    def signal(self, f, densities, width, shift=0.0, lines=None,
               jac=False):
        """Echo contrast I(f) of lines of HWHM width shifted by shift
        (MHz).  lines None is the model's species with densities by
        species (contrast).  Otherwise lines is one row set with a scalar
        density, which keeps the one-species grouping of the contrast
        law, or a sequence of row sets with a density (and a width, or
        one for all) each.  With lines and jac, returns (I, G), G's
        columns d ln I / d(shift, width, each density)."""
        if lines is None:
            return self.contrast(
                {s: self._transfer(f, rows, width, shift)
                 for s, rows in self.lines.items()
                 if s != "NV" or densities.get("NV", 0.0) > 0}, densities)
        single = np.ndim(densities) == 0
        sets, dens = ([lines], [densities]) if single else (lines, densities)
        terms = [self._transfer(f, rows, w, shift, jac)
                 for rows, w in zip(sets, np.broadcast_to(width, len(sets)))]
        probs = [t[0] for t in terms] if jac else terms
        out = deer_signal_from_transfer(probs[0] if single else probs,
                                        densities, self.t_a_us)
        if not jac:
            return out
        rate = contrast_rate_per_ppb(self.t_a_us)
        return out, np.column_stack(
            [sum(-rate * n * t[k] for n, t in zip(dens, terms))
             for k in (1, 2)] + [-rate * p for p in probs])
