"""Closed-form model of the double-resonance echo-decay signal.

The normalized DEER contrast of the sensor echo, with the pump pulse at
frequency f_B applied to a dilute bath species B, is

    I(f_B) = exp(-C(g_A, g_B, sigma_B) * n_B * T_B * P_B(f_B))

where C is the angular-averaged dipolar rate constant (constants module),
n_B the species density, T_B the dipolar evolution time and P_B the pump
flip probability.  P_B follows from the species' EPR lineshape, a sum of
unit-area Lorentzians, convolved with the finite-pulse Rabi kernel

    P_R(Omega, Delta, t_b) = Omega^2/(Omega^2 + Delta^2)
                             * sin^2(pi sqrt(Omega^2 + Delta^2) t_b).

Everything here is analytic or a 1-D quadrature; the dynamics module
produces the same quantities from explicit time propagation, which is the
cross-check used by the self tests.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad_vec

from . import constants as c
from .errors import IntegrationError

__all__ = [
    "LorentzianPeak",
    "LorentzianPeakSet",
    "lorentzian",
    "rabi_probability",
    "population_transfer",
    "line_transfer_gradient",
    "deer_signal_from_transfer",
    "contrast_rate_per_ppb",
    "detection_limit_ppb",
    "NormalizedSignal",
    "normalize_signal",
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

# Gauss-Legendre nodes per broad peak of the method="gauss" transfer; 256
# keeps the rule within ~1e-4 of the adaptive reference
N_GAUSS_NODES = 256


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


def lorentzian(peaks, xi_mhz):
    """Spectral density of a peak set at frequencies xi (1/MHz units).

    L(xi) = sum_i (A_i / pi) * gamma_i / (gamma_i^2 + (xi - f_i)^2).
    Zero-width peaks contribute no density here (they are handled as
    deltas by population_transfer); integrating L over xi for gamma > 0
    peaks returns their total area.
    """
    xi = np.asarray(xi_mhz, dtype=float)
    out = np.zeros_like(xi, dtype=float)
    for p in peaks:
        if p.gamma_mhz > 0:
            out = out + (p.amp / np.pi) * p.gamma_mhz / (
                p.gamma_mhz**2 + (xi - p.f_r_mhz)**2)
    return out


def rabi_probability(omega_mhz, detuning_mhz, t_b_us):
    """Finite-pulse flip probability of a two-level system.

    P = Omega^2/(Omega^2 + Delta^2) * sin^2(pi sqrt(Omega^2 + Delta^2) t_b),
    the generalized Rabi formula for a resonant-or-detuned square pulse of
    duration t_b.  On resonance a pi pulse (t_b = 1/(2 Omega)) gives 1.
    """
    om2 = float(omega_mhz) ** 2
    if om2 == 0:
        return np.zeros_like(np.asarray(detuning_mhz, dtype=float))
    return _rabi_kernel(om2, np.asarray(detuning_mhz, dtype=float), t_b_us)


def _rabi_kernel(om2, det, t_b_us, slope=False):
    """rabi_probability for Omega^2 = om2 > 0; with slope=True also its
    derivative in the detuning,

        dP/dDelta = 2 Omega^2 Delta / G^2 * sin(phi)
                    * (pi t_b cos(phi) / G - sin(phi) / G^2),

    with G^2 = Omega^2 + Delta^2 and phi = pi G t_b."""
    g2 = om2 + det**2
    root = np.sqrt(g2)
    phase = np.pi * root * t_b_us
    sin_ = np.sin(phase)
    prob = om2 / g2 * sin_**2
    if not slope:
        return prob
    slope_ = 2.0 * om2 * det / g2 * sin_ * (np.pi * t_b_us * np.cos(phase)
                                            / root - sin_ / g2)
    return prob, slope_


def population_transfer(peaks, omega_mhz, f_b_mhz, t_b_us, abs_tol=1e-6,
                        method="adaptive"):
    """Pump flip probability P_B(f_B): lineshape (x) Rabi kernel.

    Convolves the Lorentzian spectral density with rabi_probability over
    the detuning.  Zero-width peaks are added analytically; broad peaks
    are integrated either by adaptive quadrature (method="adaptive",
    absolute tolerance abs_tol) or by a fixed Gauss-Legendre rule on the
    arctangent-substituted integral (method="gauss", N_GAUSS_NODES nodes
    per peak, the rule built once per process).  The gauss path is
    within ~1e-4 of the adaptive reference and about 5x faster (one line
    on 582 pump frequencies: 7.7 ms against 40 ms on a 2-core x86 host)
    and is what the iterative fits use, with line_transfer_gradient for
    the derivatives; the adaptive path is the reference.
    Vectorized over f_b_mhz.

    Returns
    -------
    float or ndarray in [0, 1].
    """
    if omega_mhz < 0:
        raise ValueError("omega_mhz must be >= 0")
    if t_b_us < 0:
        raise ValueError("t_b_us must be >= 0")
    if method not in ("adaptive", "gauss"):
        raise ValueError(f"unknown method {method!r}")
    fb = np.atleast_1d(np.asarray(f_b_mhz, dtype=float))
    out = np.zeros_like(fb)
    peaks = list(peaks)
    sharp = [p for p in peaks if p.gamma_mhz == 0]
    broad = [p for p in peaks if p.gamma_mhz > 0]
    for p in sharp:
        out = out + p.amp * rabi_probability(omega_mhz, fb - p.f_r_mhz, t_b_us)
    if broad and omega_mhz > 0:
        if method == "gauss":
            out = out + _transfer_gauss(broad, omega_mhz, fb, t_b_us)
        else:
            out = out + _transfer_adaptive(broad, omega_mhz, fb, t_b_us,
                                           abs_tol)
    out = np.clip(out, 0.0, 1.0)
    if np.isscalar(f_b_mhz) or np.asarray(f_b_mhz).ndim == 0:
        return float(out[0])
    return out


def _transfer_adaptive(broad, omega_mhz, fb, t_b_us, abs_tol):
    gmax = max(p.gamma_mhz for p in broad)
    half = max(50.0 * gmax, 10.0 * omega_mhz)
    lo = min(p.f_r_mhz for p in broad) - half
    hi = max(p.f_r_mhz for p in broad) + half

    def integrand(xi):
        return lorentzian(broad, xi) * rabi_probability(
            omega_mhz, fb - xi, t_b_us)

    val, err = quad_vec(integrand, lo, hi, epsabs=abs_tol,
                        epsrel=1e-8, limit=400)
    if not np.all(np.isfinite(val)) or err > 10 * abs_tol * max(len(fb), 1):
        raise IntegrationError(
            f"population transfer quadrature failed (err={err:.2e})")
    return val


@functools.lru_cache(maxsize=1)
def _gauss_rule():
    """tan(theta) and weights of the N_GAUSS_NODES-point Gauss-Legendre
    rule on (-pi/2, pi/2); read-only, built on first use."""
    theta, wt = np.polynomial.legendre.leggauss(N_GAUSS_NODES)
    tan_t = np.tan(theta * (np.pi / 2.0))
    wt = wt * (np.pi / 2.0)
    tan_t.flags.writeable = False
    wt.flags.writeable = False
    return tan_t, wt


def _gauss_line(peak, omega_mhz, fb, t_b_us, slope=False):
    # substitute xi = f_r + gamma tan(theta): the Lorentzian density
    # becomes a flat dtheta/pi measure, leaving only the Rabi kernel of
    # delta = f_b - f_r - gamma tan(theta), so d/df_r = -R'(delta) and
    # d/dgamma = -tan(theta) R'(delta) under the same sum
    tan_t, wt = _gauss_rule()
    det = fb[:, None] - peak.f_r_mhz - peak.gamma_mhz * tan_t[None, :]
    scale = peak.amp / np.pi
    om2 = float(omega_mhz) ** 2
    if not slope:
        return scale * (_rabi_kernel(om2, det, t_b_us) @ wt)
    prob, dprob = _rabi_kernel(om2, det, t_b_us, slope=True)
    return (scale * (prob @ wt), -scale * (dprob @ wt),
            -scale * (dprob @ (tan_t * wt)))


def _transfer_gauss(broad, omega_mhz, fb, t_b_us):
    val = np.zeros_like(fb)
    for p in broad:
        val = val + _gauss_line(p, omega_mhz, fb, t_b_us)
    return val


def line_transfer_gradient(peak, omega_mhz, f_b_mhz, t_b_us):
    """Gauss-rule flip probability of one broad line and its slopes.

    Returns (P, dP/df_r, dP/dgamma) on the pump grid f_b_mhz: P is
    population_transfer([peak], ..., method="gauss") and the two
    derivatives come from one more pass of the same rule and kernel.
    Where P is clipped to [0, 1] its derivatives are zero, as for the
    clipped function.  The fit models build their Jacobians on this.
    """
    if peak.gamma_mhz <= 0 or omega_mhz <= 0:
        raise ValueError("line_transfer_gradient needs gamma_mhz > 0 and "
                         "omega_mhz > 0")
    fb = np.atleast_1d(np.asarray(f_b_mhz, dtype=float))
    prob, d_fr, d_gamma = _gauss_line(peak, omega_mhz, fb, t_b_us,
                                      slope=True)
    clipped = (prob < 0.0) | (prob > 1.0)
    d_fr[clipped] = 0.0
    d_gamma[clipped] = 0.0
    return np.clip(prob, 0.0, 1.0), d_fr, d_gamma


def deer_signal_from_transfer(p_b, n_b_ppb, t_b_delay_us, sigma_b=0.5,
                              g_a=c.G_ELECTRON, g_b=c.G_ELECTRON):
    """Echo contrast exp(-C T_B sum_i n_i P_i) from flip probabilities.

    p_b and n_b_ppb are one species' flip probability and concentration,
    or equal-length sequences of them for several species that share
    sigma_b and the g factors.  t_b_delay_us may be an array (a decay
    versus delay).  This is the one place the contrast law is written
    out: the analytic route (P_B from population_transfer), the simulated
    route (P_B from time propagation) and the fit models all use it;
    detection_limit_ppb is its inverse.
    """
    rate_t = _rate_t(t_b_delay_us, sigma_b, g_a, g_b)
    # the grouping sets the last bits, which fits amplify: (C T n) P for
    # one species, C T sum(n P) for several
    if np.ndim(n_b_ppb) == 0:
        return np.exp(-rate_t * c.ppb_to_per_m3(n_b_ppb) * np.asarray(p_b))
    return np.exp(-rate_t * sum(c.ppb_to_per_m3(n) * np.asarray(p)
                                for n, p in zip(n_b_ppb, p_b)))


def _rate_t(t_b_delay_us, sigma_b, g_a, g_b):
    """C T_B in m^3: the exponent per spin density."""
    return (c.dipolar_rate_constant(g_a, g_b, sigma_b)       # m^3/s
            * np.asarray(t_b_delay_us, dtype=float) * c.US_TO_S)


def contrast_rate_per_ppb(t_b_delay_us, sigma_b=0.5, g_a=c.G_ELECTRON,
                          g_b=c.G_ELECTRON):
    """C T_B per ppb, so that deer_signal_from_transfer is
    I = exp(-rate sum_i n_i P_i) and dI/dn_i = -rate P_i I."""
    return _rate_t(t_b_delay_us, sigma_b, g_a, g_b) * c.ppb_to_per_m3(1.0)


def detection_limit_ppb(min_contrast, t_b_delay_us, sigma_b=0.5,
                        line_amp=1.0 / 3.0, g_a=c.G_ELECTRON,
                        g_b=c.G_ELECTRON):
    """Smallest detectable concentration for a given contrast floor.

    Solves 1 - exp(-C n T_B P) = min_contrast for n with the pump flipping
    the addressed line completely (P = line_amp, the area fraction of that
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
    rate = c.dipolar_rate_constant(g_a, g_b, sigma_b)
    n_per_m3 = -np.log(1.0 - min_contrast) / (
        rate * t_b_delay_us * c.US_TO_S * line_amp)
    return float(c.per_m3_to_ppb(n_per_m3))


@dataclass(frozen=True)
class NormalizedSignal:
    """Common-mode-rejected echo readout.

    i_nv is the two-phase difference signal, i_nv_off its off-resonance
    (pump far detuned) baseline and i_deer = i_nv / i_nv_off the
    normalized DEER contrast with laser and charge-state drifts removed.
    """

    i_nv: np.ndarray
    i_nv_off: float
    i_deer: np.ndarray


def normalize_signal(pl_sig_plus, pl_ref_plus, pl_sig_minus, pl_ref_minus,
                     pl_sig_plus_off=None, pl_ref_plus_off=None,
                     pl_sig_minus_off=None, pl_ref_minus_off=None,
                     i_nv_off=None):
    """Photon counts -> normalized DEER contrast.

    Each echo shot is read out twice: a signal window (sig) and a
    reference window (ref) later in the same laser pulse, for the final
    pi/2 projection phase +x and -x.  The phase-alternated, reference-
    normalized signal is

        I_NV = (sig+ / ref+ - sig- / ref-) / 2

    and the DEER contrast is I_NV divided by the same quantity with the
    pump far off resonance (given either as raw counts or directly as
    i_nv_off).

    Counts may be scalars or arrays (e.g. one entry per pump frequency).
    """
    i_nv = _phase_alternated(pl_sig_plus, pl_ref_plus, pl_sig_minus,
                             pl_ref_minus)
    if i_nv_off is None:
        if pl_sig_plus_off is None:
            raise ValueError("provide i_nv_off or the off-resonance counts")
        i_nv_off = np.mean(_phase_alternated(
            pl_sig_plus_off, pl_ref_plus_off, pl_sig_minus_off,
            pl_ref_minus_off))
    i_nv_off = float(i_nv_off)
    if i_nv_off == 0:
        raise ValueError("i_nv_off must be non-zero")
    return NormalizedSignal(i_nv=i_nv, i_nv_off=i_nv_off,
                            i_deer=i_nv / i_nv_off)


def _phase_alternated(sig_plus, ref_plus, sig_minus, ref_minus):
    """I_NV = (sig+ / ref+ - sig- / ref-) / 2 from raw counts."""
    sp, rp, sm, rm = (np.asarray(v, dtype=float)
                      for v in (sig_plus, ref_plus, sig_minus, ref_minus))
    if np.any(rp <= 0) or np.any(rm <= 0):
        raise ValueError("reference counts must be positive")
    return 0.5 * (sp / rp - sm / rm)
