"""Least-squares estimators for spectra, decays and derived quantities.

All fits go through one trust-region least-squares wrapper (scipy
least_squares, '3-point' numeric Jacobians) with per-point sigma
weighting when the trace carries errors, covariance from J^T J scaled by
the reduced chi-square, and a deterministic 5-start multi-start.  The
concentration extraction follows the staged protocol: Lorentzian peak
positions first, Rabi frequency second, then per-peak echo-contrast fits
with everything but (f_r, Gamma, n_b) frozen.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares
from scipy.signal import find_peaks

from . import constants as c
from .deer import (LorentzianPeak, LorentzianPeakSet,
                   deer_signal_from_transfer, detection_limit_ppb,
                   population_transfer)
from .errors import DataError, FitError, FitWarning, DataQualityWarning

__all__ = [
    "FitResult",
    "ConcentrationEstimate",
    "DeerFixedParams",
    "fit_lorentzian_peaks",
    "fit_rabi_frequency",
    "fit_concentration_spectrum",
    "fit_central_line_two_species",
    "fit_deer_decay",
    "fit_hahn_decay",
    "fit_eseem",
    "fit_saturation",
    "nv_count",
    "diffusion_coefficient",
    "epr_double_integral",
    "epr_concentration",
    "aggregate_estimates",
]

N_MULTISTART = 5


@dataclass
class FitResult:
    """Converged parameter estimates of one least-squares fit."""

    param_names: tuple
    params: dict
    std_errors: dict
    covariance: np.ndarray
    residual_norm: float
    n_points: int
    converged: bool
    optimality: float = np.nan
    message: str = ""


@dataclass
class ConcentrationEstimate:
    """A defect concentration with its uncertainty and provenance."""

    species: str
    value_ppb: float
    uncertainty_ppb: float
    method: str
    per_peak_values: list = field(default_factory=list)
    per_peak_errors: list = field(default_factory=list)
    is_upper_bound: bool = False

    def __post_init__(self):
        if self.species not in ("P1", "X", "NV"):
            raise ValueError(f"unknown species {self.species!r}")
        if self.method not in ("spectrum", "decay", "rabi"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.value_ppb < 0:
            raise ValueError("value_ppb must be >= 0")


def _weights(trace):
    if trace.y_err is None:
        return np.ones_like(trace.y)
    err = np.asarray(trace.y_err, dtype=float).copy()
    pos = err > 0
    if not np.any(pos):
        return np.ones_like(trace.y)
    # zero entries would blow up the weights; floor them at the smallest
    # positive error
    err[~pos] = err[pos].min()
    return err


def _run_fit(model, x, y, sigma, p0, names, lower=None, upper=None,
             seed=0, n_starts=N_MULTISTART, perturb=0.05, x_scale=None):
    """Weighted least squares with deterministic multi-start.

    model(x, params_vector) -> y; returns FitResult with params mapped to
    `names`.  Raises FitError when no start converges.
    """
    p0 = np.asarray(p0, dtype=float)
    k = len(p0)
    if len(y) <= k:
        raise FitError(f"need more than {k} points to fit {k} parameters")
    lo = -np.inf * np.ones(k) if lower is None else np.asarray(lower, float)
    hi = np.inf * np.ones(k) if upper is None else np.asarray(upper, float)

    def residual(p):
        return (model(x, p) - y) / sigma

    rng = np.random.default_rng(seed)
    scale = np.where(np.abs(p0) > 0, np.abs(p0), 1.0)
    best = None
    for s in range(n_starts):
        start = p0 if s == 0 else np.clip(
            p0 + perturb * scale * rng.standard_normal(k), lo, hi)
        try:
            res = least_squares(residual, start, jac="3-point",
                                bounds=(lo, hi), method="trf",
                                x_scale=x_scale if x_scale is not None else "jac")
        except ValueError:
            continue
        if not np.all(np.isfinite(res.fun)):
            continue
        if best is None or res.cost < best.cost - 1e-15:
            best = res
        if (s == 0 and res.status > 0
                and 2.0 * res.cost / max(len(y) - k, 1) < 1e-9):
            break  # noiseless data, nailed on the first start
    if best is None or best.status <= 0:
        raise FitError("fit did not converge from any start")

    jac = best.jac
    dof = max(len(y) - k, 1)
    chi2_red = 2.0 * best.cost / dof
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj) * chi2_red
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * chi2_red
    # conditioning of the column-scaled JTJ, so parameters on very
    # different scales (a decay time ~1e9 us next to an offset ~1) do not
    # read as degenerate; a zero column is a parameter the data miss
    norms = np.sqrt(np.diag(jtj))
    live = norms > 0
    if not live.all():
        free = ", ".join(n for n, ok in zip(names, live) if not ok)
        warnings.warn(f"unconstrained parameters: {free}", FitWarning)
    if live.any():
        cond = np.linalg.cond(jtj[np.ix_(live, live)]
                              / np.outer(norms[live], norms[live]))
        if cond > 1e10:
            warnings.warn(f"ill-conditioned fit (scaled cond(JTJ) = "
                          f"{cond:.1e}); parameters are degenerate",
                          FitWarning)
    std = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        param_names=tuple(names),
        params={n: float(v) for n, v in zip(names, best.x)},
        std_errors={n: float(e) for n, e in zip(names, std)},
        covariance=cov,
        residual_norm=float(np.sqrt(2.0 * best.cost)),
        n_points=len(y),
        converged=bool(best.status > 0),
        optimality=float(best.optimality),
        message=str(best.message),
    )


# ---------------------------------------------------------------- peaks

def _find_dips(x, y, n_peaks):
    """Seed peak positions from the most prominent local minima."""
    w = min(max(len(y) // 100, 3), 9)
    ys = np.convolve(y, np.ones(w) / w, mode="same")
    # high-frequency noise estimate, insensitive to the dips themselves
    sigma = 1.4826 * np.median(np.abs(np.diff(y))) / np.sqrt(2) + 1e-15
    prom = 3.0 * sigma / np.sqrt(w)
    dist = max(int(len(y) / (8.0 * n_peaks)), 1)
    idx, props = find_peaks(-ys, prominence=prom, distance=dist)
    if len(idx) < n_peaks:
        raise FitError(f"found only {len(idx)} candidate dips, "
                       f"need {n_peaks}; trace may be flat or too noisy")
    top = idx[np.argsort(props["prominences"])[::-1][:n_peaks]]
    return np.sort(x[top])


def fit_lorentzian_peaks(trace, n_peaks, init=None, seed=0):
    """Fit a spectrum with a baseline minus n_peaks Lorentzian dips.

    Model: y = c0 - sum_i d_i * g_i^2 / (g_i^2 + (x - f_i)^2), i.e. each
    dip has depth d_i and HWHM g_i.  Used for stage one of the
    concentration protocol: locating resonance positions in a normalized
    echo-contrast spectrum (dips) before any physics is attached to them.

    Parameters
    ----------
    trace : SpectrumTrace
    n_peaks : int
    init : optional sequence of seed center frequencies (MHz); found from
        local minima when absent.

    Returns
    -------
    (LorentzianPeakSet, FitResult); the peak set holds centers, widths
    and area fractions normalized to sum 1.
    """
    if n_peaks < 1:
        raise ValueError("n_peaks must be >= 1")
    x, y = trace.x, trace.y
    if len(x) < 4 * n_peaks:
        raise ValueError(f"need at least {4 * n_peaks} points for "
                         f"{n_peaks} peaks")
    if init is not None:
        centers = np.sort(np.asarray(init, dtype=float))
        if len(centers) != n_peaks:
            raise ValueError("init must supply one seed per peak")
    else:
        centers = _find_dips(x, y, n_peaks)

    span = x[-1] - x[0]
    g0 = max(span / (20.0 * n_peaks), 2.0 * np.median(np.diff(x)))
    c0 = float(np.percentile(y, 90))
    depths = [max(c0 - y[np.argmin(np.abs(x - f))], 1e-3 * abs(c0) + 1e-6)
              for f in centers]

    def model(xv, p):
        out = np.full_like(xv, p[0])
        for i in range(n_peaks):
            f_i, g_i, d_i = p[1 + 3 * i: 4 + 3 * i]
            out = out - d_i * g_i**2 / (g_i**2 + (xv - f_i)**2)
        return out

    p0 = [c0]
    names = ["c0"]
    lo, hi = [-np.inf], [np.inf]
    for i, (f_i, d_i) in enumerate(zip(centers, depths)):
        p0 += [f_i, g0, d_i]
        names += [f"f_{i}", f"gamma_{i}", f"depth_{i}"]
        lo += [x[0], np.median(np.diff(x)) / 4, 0.0]
        hi += [x[-1], span, np.inf]

    result = _run_fit(model, x, y, _weights(trace), p0, names,
                      lower=lo, upper=hi, seed=seed)
    rows = sorted(
        ((result.params[f"f_{i}"], result.params[f"gamma_{i}"],
          result.params[f"depth_{i}"]) for i in range(n_peaks)),
        key=lambda r: r[0])
    areas = np.array([d * np.pi * g for f, g, d in rows])
    if areas.sum() <= 0:
        raise FitError("all fitted dip areas are zero")
    amps = areas / areas.sum()
    peaks = LorentzianPeakSet(tuple(
        LorentzianPeak(f, g, a) for (f, g, _), a in zip(rows, amps)))
    return peaks, result


# ----------------------------------------------------------------- rabi

def fit_rabi_frequency(trace, seed=0):
    """Rabi frequency from a driven-nutation trace.

    Model: y = c + a exp(-t/tau) cos(2 pi f t + phi), seeded by the
    dominant FFT bin.  Returns (omega_mhz, FitResult); the result also
    carries t_pi = 1/(2 Omega) with its propagated error.
    """
    t, y = trace.x, trace.y
    if len(t) < 8:
        raise ValueError("need at least 8 points")
    dt = np.median(np.diff(t))
    yc = y - y.mean()
    if np.std(yc) < 1e-12:
        raise FitError("no oscillation detected (constant trace)")
    freqs = np.fft.rfftfreq(len(t), dt)
    spec = np.abs(np.fft.rfft(yc))
    k = 1 + int(np.argmax(spec[1:]))
    f0 = freqs[k]
    if f0 <= 0 or spec[k] < 3.0 * np.median(spec[1:] + 1e-30):
        raise FitError("no oscillation detected in the spectrum")
    if t[-1] - t[0] < 1.5 / f0:
        raise ValueError("trace must span at least 1.5 oscillation periods")

    p0 = [y.mean(), (y.max() - y.min()) / 2, t[-1] - t[0], f0, 0.0]
    names = ["c", "a", "tau", "f", "phi"]

    def model(tv, p):
        return p[0] + p[1] * np.exp(-tv / p[2]) * np.cos(
            2 * np.pi * p[3] * tv + p[4])

    lo = [-np.inf, 0.0, dt, f0 / 3.0, -np.pi]
    hi = [np.inf, np.inf, np.inf, min(3.0 * f0, freqs[-1] * 1.5), np.pi]
    result = _run_fit(model, t, y, _weights(trace), p0, names,
                      lower=lo, upper=hi, seed=seed)
    f = result.params["f"]
    f_err = result.std_errors["f"]
    if f_err > abs(f):
        raise FitError("oscillation frequency is not resolved")
    result.params["t_pi"] = 1.0 / (2.0 * f)
    result.std_errors["t_pi"] = f_err / (2.0 * f**2)
    result.param_names = result.param_names + ("t_pi",)
    return f, result


# -------------------------------------------------- concentration fits

@dataclass(frozen=True)
class DeerFixedParams:
    """Stage-three frozen parameters of the echo-contrast model."""

    omega_mhz: float
    t_b_us: float
    t_b_delay_us: float
    amps: tuple
    sigma_b: float = 0.5
    g_a: float = c.G_ELECTRON
    g_b: float = c.G_ELECTRON

    def __post_init__(self):
        if self.omega_mhz <= 0 or self.t_b_us <= 0 or self.t_b_delay_us <= 0:
            raise ValueError("omega_mhz, t_b_us, t_b_delay_us must be > 0")
        amps = tuple(float(a) for a in self.amps)
        if any(a <= 0 for a in amps):
            raise ValueError("line amplitudes must be positive")
        object.__setattr__(self, "amps", amps)

    def transfer(self, f_r, gamma, amp, f):
        """Gauss-rule pump flip probability of one Lorentzian line."""
        return population_transfer([LorentzianPeak(f_r, gamma, amp)],
                                   self.omega_mhz, f, self.t_b_us,
                                   method="gauss")

    def contrast(self, p_b, n_ppb):
        """Echo contrast of one species, or of sequences of several
        (deer_signal_from_transfer)."""
        return deer_signal_from_transfer(p_b, n_ppb, self.t_b_delay_us,
                                         self.sigma_b, self.g_a, self.g_b)


def _background(fixed, rows, f):
    """Contrast of already-fitted lines, rows of (n_ppb, f_r, gamma, amp);
    1.0 for no rows."""
    return fixed.contrast([fixed.transfer(fj, gj, aj, f)
                           for _, fj, gj, aj in rows],
                          [nj for nj, _, _, _ in rows])


def fit_concentration_spectrum(trace, seeds, fixed, window_mhz=None,
                               exclude_central=True, seed=0):
    """Per-peak concentration fits of a normalized echo-contrast spectrum.

    For each seed peak the trace is windowed around the center and fitted
    with I(f) = b exp(-C n T_B A_i P(f; f_r, Gamma)), the fixed amplitude
    A_i taken from `fixed.amps` in frequency order; free parameters are
    (f_r, Gamma, n_b) plus a local baseline b that absorbs the wings of
    the neighboring lines (without it the weak outer lines bias high by
    several percent).  A second pass then refits every peak with the
    others' first-pass contributions multiplied in as a fixed background
    and the baseline pinned at 1, which decorrelates the shallow dips
    from their baseline.  The species aggregate combines the outer peaks
    with aggregate_estimates: the inverse-variance weighted mean, with
    the larger of its standard error and the weighted scatter over the
    peaks as uncertainty (per-peak values and standard errors are carried
    along separately).

    Parameters
    ----------
    trace : SpectrumTrace
        Normalized contrast, ~1 off resonance.
    seeds : LorentzianPeakSet or sequence of center frequencies (MHz)
        Usually the stage-one output.
    fixed : DeerFixedParams
        amps must have one entry per seed, frequency-ordered.
    window_mhz : float
        Half width of each per-peak fit window; default covers the pulse
        bandwidth and the seed linewidth.
    exclude_central : bool
        Drop the middle peak (odd count) from the aggregate; that line
        overlaps the X defect and is fitted separately.

    Returns
    -------
    (ConcentrationEstimate, list of FitResult), fit results in frequency
    order.
    """
    if isinstance(seeds, LorentzianPeakSet):
        centers = [p.f_r_mhz for p in seeds]
        gammas = [max(p.gamma_mhz, 0.1) for p in seeds]
    else:
        centers = [float(f) for f in seeds]
        gammas = [1.0] * len(centers)
    order = np.argsort(centers)
    centers = [centers[i] for i in order]
    gammas = [gammas[i] for i in order]
    if len(fixed.amps) != len(centers):
        raise ValueError("fixed.amps must have one amplitude per peak")

    def fit_one(f_c, g_c, amp, n0, background):
        # first pass: n0 None (seeded from the dip depth) and background
        # None (a free baseline instead)
        if window_mhz is None:
            w = max(8.0 * g_c, 5.0 * fixed.omega_mhz, 10.0)
        else:
            w = window_mhz
        sub = trace.window(f_c - w, f_c + w)
        if len(sub) < 8:
            raise ValueError(f"window around {f_c:.1f} MHz has too few "
                             "points")
        if n0 is None:
            p_res = population_transfer([LorentzianPeak(0.0, 0.5, amp)],
                                        fixed.omega_mhz, 0.0, fixed.t_b_us)
            n0 = detection_limit_ppb(
                np.clip(1.0 - sub.y.min(), 1e-4, 0.999), fixed.t_b_delay_us,
                fixed.sigma_b, max(p_res, 1e-6), fixed.g_a, fixed.g_b)
        bg = _background(fixed, background or [], sub.x)

        def model(fv, p):
            base = p[3] if background is None else 1.0
            pb = fixed.transfer(p[0], max(p[1], 0.0), amp, fv)
            return base * bg * fixed.contrast(pb, p[2])

        p0 = [f_c, g_c, n0]
        names = ["f_r", "gamma", "n_ppb"]
        lo = [sub.x[0], 0.01, 0.0]
        hi = [sub.x[-1], 50.0, 1e6]
        xs = [1.0, 1.0, max(n0, 1.0)]
        if background is None:
            p0.append(float(np.percentile(sub.y, 90)))
            names.append("base")
            lo.append(0.5)
            hi.append(1.5)
            xs.append(1.0)
        return _run_fit(model, sub.x, sub.y, _weights(sub), p0, names,
                        lower=lo, upper=hi, seed=seed, x_scale=xs)

    first = []
    for f_c, g_c, amp in zip(centers, gammas, fixed.amps):
        r = fit_one(f_c, g_c, amp, None, None)
        first.append((r.params["n_ppb"], r.params["f_r"], r.params["gamma"],
                      amp))
    results = [fit_one(f_i, g_i, amp, max(n_i, 1.0),
                       first[:i] + first[i + 1:])
               for i, (n_i, f_i, g_i, amp) in enumerate(first)]

    values = [r.params["n_ppb"] for r in results]
    errors = [r.std_errors["n_ppb"] for r in results]
    if any(v >= 0.999e6 for v in values):
        warnings.warn("concentration hit the upper bound", FitWarning)

    keep = list(range(len(values)))
    if exclude_central and len(values) % 2 == 1 and len(values) > 1:
        keep.remove(len(values) // 2)
    agg = [values[i] for i in keep]
    agg_err = [errors[i] for i in keep]
    mean, std = aggregate_estimates(agg, agg_err)
    est = ConcentrationEstimate(
        species="P1", value_ppb=mean, uncertainty_ppb=std,
        method="spectrum", per_peak_values=agg,
        per_peak_errors=agg_err)
    return est, results


def fit_central_line_two_species(trace, n_p1_ppb, fixed, central_amp=1.0 / 3.0,
                                 x_offset_mhz=-7.0, background=None, seed=0):
    """X concentration from the central line with the P1 part frozen.

    Model: I = exp(-C T_B [n_P1 A_c P_c(f) + n_X P_x(f)]) with n_P1 and
    A_c fixed; free parameters are the two line positions, widths and
    n_X.  The X species is a bare S = 1/2 line (amplitude 1).

    `background`, when given, is a list of (n_ppb, f_r, gamma, amp) rows
    for already-fitted neighboring lines; their contrast is multiplied in
    as a fixed factor and the free baseline is pinned at 1, which keeps
    the shallow X dip from trading against the baseline.

    Returns a ConcentrationEstimate for X; when the fitted amplitude is
    within its own uncertainty the estimate is flagged as an upper bound.
    """
    if n_p1_ppb < 0:
        raise ValueError("n_p1_ppb must be >= 0")
    free_base = background is None
    bg = _background(fixed, background or [], trace.x)

    def model(fv, p):
        f_c, g_c, f_x, g_x, n_x = p[:5]
        base = p[5] if free_base else 1.0
        p_c = fixed.transfer(f_c, g_c, central_amp, fv)
        p_x = fixed.transfer(f_x, g_x, 1.0, fv)
        return base * bg * fixed.contrast([p_c, p_x], [n_p1_ppb, n_x])

    f_c0 = trace.x[np.argmin(trace.y)]
    n_x0 = max(0.05 * n_p1_ppb, 1.0)
    p0 = [f_c0, 1.0, f_c0 + x_offset_mhz, 1.0, n_x0]
    names = ["f_central", "gamma_central", "f_x", "gamma_x", "n_x_ppb"]
    lo = [trace.x[0], 0.01, trace.x[0], 0.01, 0.0]
    hi = [trace.x[-1], 50.0, trace.x[-1], 50.0, 1e6]
    xs = [1.0, 1.0, 1.0, 1.0, max(n_x0, 1.0)]
    if free_base:
        p0.append(float(np.percentile(trace.y, 90)))
        names.append("base")
        lo.append(0.5)
        hi.append(1.5)
        xs.append(1.0)
    res = _run_fit(model, trace.x, trace.y, _weights(trace), p0, names,
                   lower=lo, upper=hi, seed=seed, x_scale=xs)
    n_x = res.params["n_x_ppb"]
    err = res.std_errors["n_x_ppb"]
    upper = n_x < err
    est = ConcentrationEstimate(
        species="X", value_ppb=n_x, uncertainty_ppb=err, method="spectrum",
        is_upper_bound=bool(upper))
    return est, res


def fit_deer_decay(trace, p_b, sigma_b=0.5, g_a=c.G_ELECTRON,
                   g_b=c.G_ELECTRON, seed=0):
    """Concentration from an echo-contrast decay versus delay time.

    Model: I(T_B) = exp(-C n P_B T_B) with P_B fixed (the pump flip
    probability at the chosen line).  Needs >= 8 delay points.
    """
    if not 0 <= p_b <= 1:
        raise ValueError("p_b must be in [0, 1]")
    if p_b == 0:
        raise FitError("P_B = 0 makes the concentration unidentifiable")
    if len(trace) < 8:
        raise ValueError("need at least 8 delay points")
    if np.any(trace.y <= 0):
        raise ValueError("contrast values must be positive")

    # non-monotonicity beyond the noise level is a red flag for decays
    err = trace.y_err if trace.y_err is not None else np.full_like(
        trace.y, np.std(trace.y) * 0.1 + 1e-12)
    rises = np.diff(trace.y) > 3 * np.sqrt(err[1:]**2 + err[:-1]**2)
    if np.count_nonzero(rises) > len(trace) // 4:
        warnings.warn("decay trace is non-monotone beyond its noise",
                      FitWarning)

    def model(tv, p):
        return deer_signal_from_transfer(p_b, p[0], tv, sigma_b, g_a, g_b)

    # seed: the log-slope is the contrast lost per us; a flat or rising
    # trace clips to the floor of 1 ppb
    slope0 = -np.polyfit(trace.x, np.log(trace.y), 1)[0]
    n0 = max(detection_limit_ppb(np.clip(-np.expm1(-slope0), 1e-12,
                                         1.0 - 1e-12),
                                 1.0, sigma_b, p_b, g_a, g_b), 1.0)
    res = _run_fit(model, trace.x, trace.y, _weights(trace), [n0],
                   ["n_ppb"], lower=[0.0], upper=[1e6], seed=seed,
                   x_scale=[max(n0, 1.0)])
    est = ConcentrationEstimate(
        species="P1", value_ppb=res.params["n_ppb"],
        uncertainty_ppb=res.std_errors["n_ppb"], method="decay")
    return est, res


# ------------------------------------------------------------- decays

def fit_hahn_decay(trace, seed=0):
    """Stretched-exponential echo decay a exp(-(t/T2)^n).

    Returns FitResult with params a, t2_us, n.
    """
    t, y = trace.x, trace.y
    if len(t) < 6:
        raise ValueError("need at least 6 points")
    if np.all(y <= 0):
        raise ValueError("decay data must contain positive values")
    a0 = float(np.max(y))
    below = t[y < a0 / np.e]
    t2_0 = float(below[0]) if len(below) else float(t[-1])

    def model(tv, p):
        a, t2, n = p
        return a * np.exp(-np.power(np.clip(tv, 0, None) / t2, n))

    res = _run_fit(model, t, y, _weights(trace), [a0, t2_0, 1.5],
                   ["a", "t2_us", "n"],
                   lower=[0.0, np.min(np.diff(t)), 0.2],
                   upper=[np.inf, np.inf, 6.0], seed=seed)
    return res


def fit_eseem(trace, b0_mt, seed=0):
    """Nuclear modulation on a stretched-exponential echo decay.

    Model: y = a exp(-(t/T2)^n) (1 - k sin^2(pi f t + phi)).  The
    modulation frequency seed comes from the FFT of the envelope-divided
    signal.  Returns (info dict with f_mhz and gamma_n_mhz_per_t,
    FitResult); gamma_n = 2 f / B0.
    """
    if b0_mt <= 0:
        raise ValueError("b0_mt must be > 0")
    t, y = trace.x, trace.y
    if len(t) < 16:
        raise ValueError("need at least 16 points")
    # crude envelope: stretched-exp fit without modulation
    env = fit_hahn_decay(trace, seed=seed)
    a0, t2_0, n0 = (env.params["a"], env.params["t2_us"], env.params["n"])
    resid = y / np.clip(a0 * np.exp(-np.power(t / t2_0, n0)), 1e-12, None)
    dt = np.median(np.diff(t))
    freqs = np.fft.rfftfreq(len(t), dt)
    spec = np.abs(np.fft.rfft(resid - resid.mean()))
    k_bin = 1 + int(np.argmax(spec[1:]))
    f_half = freqs[k_bin]          # sin^2 modulates at 2f
    f0 = f_half / 2.0
    if f0 <= 0:
        raise FitError("no modulation detected")
    if t[-1] - t[0] < 2.0 / f_half:
        raise ValueError("trace must span at least 2 modulation periods")

    def model(tv, p):
        a, t2, n, k_mod, f, phi = p
        envl = a * np.exp(-np.power(np.clip(tv, 0, None) / t2, n))
        return envl * (1.0 - k_mod * np.sin(np.pi * f * tv + phi) ** 2)

    res = _run_fit(model, t, y, _weights(trace),
                   [a0, t2_0, n0, 0.5 * (1 - resid.min()), 2 * f0, 0.0],
                   ["a", "t2_us", "n", "k", "f_mhz", "phi"],
                   lower=[0.0, dt, 0.2, 0.0, f0 / 2, -np.pi],
                   upper=[np.inf, np.inf, 6.0, 1.0, 4 * f0, np.pi],
                   seed=seed)
    f = res.params["f_mhz"]
    gamma_n = 2.0 * f / b0_mt * 1e3      # MHz/mT -> MHz/T
    gamma_err = 2.0 * res.std_errors["f_mhz"] / b0_mt * 1e3
    info = {"f_mhz": f, "f_err_mhz": res.std_errors["f_mhz"],
            "gamma_n_mhz_per_t": gamma_n, "gamma_n_err_mhz_per_t": gamma_err}
    return info, res


# --------------------------------------------------------- saturation

def fit_saturation(trace, background=None, seed=0):
    """PL saturation curve F(P) = F_sat P / (P + P_sat).

    background, when given, is a trace on the same power grid subtracted
    point-wise first (linear APD background).  Warns when the data stops
    below half the fitted saturation power.
    """
    x, y = trace.x, trace.y.copy()
    if background is not None:
        if len(background) != len(trace) or np.any(background.x != x):
            raise ValueError("background grid must match the trace")
        y = y - background.y
    if np.any(x < 0):
        raise ValueError("powers must be non-negative")

    def model(pv, p):
        return p[0] * pv / (pv + p[1])

    p_sat0 = float(np.median(x[x > 0])) if np.any(x > 0) else 1.0
    res = _run_fit(model, x, y, _weights(trace),
                   [2.0 * float(np.max(y)), p_sat0],
                   ["f_sat", "p_sat"],
                   lower=[0.0, 1e-9], upper=[np.inf, np.inf], seed=seed)
    if np.max(x) < 0.5 * res.params["p_sat"]:
        warnings.warn("data stops below 0.5 P_sat; saturation level is "
                      "poorly constrained", FitWarning)
    return res


def nv_count(ensemble_f_sat, single_f_sat):
    """NV number = ensemble / single saturation intensity, with error.

    Both inputs are (value, std_error) pairs; returns (count, error)
    with the relative errors added in quadrature.
    """
    fe, se = float(ensemble_f_sat[0]), float(ensemble_f_sat[1])
    fs, ss = float(single_f_sat[0]), float(single_f_sat[1])
    if fs <= 0:
        raise ValueError("single-NV saturation intensity must be > 0")
    if fe < 0 or se < 0 or ss < 0:
        raise ValueError("intensities and errors must be non-negative")
    n = fe / fs
    rel = np.sqrt((se / fe) ** 2 + (ss / fs) ** 2) if fe > 0 else ss / fs
    return n, n * rel


# ------------------------------------------------- derived quantities

def diffusion_coefficient(n_nv_ppb, count, r_vac_nm, anneal_s):
    """Vacancy diffusion from the NV-occupied volume around an implant site.

    V = count / density(n_nv), r_nv from the equivalent sphere,
    d_rms = sqrt(r_nv^2 - r_vac^2), D = d_rms^2 / (6 t).

    Returns dict with v_nv_um3, r_nv_nm, d_rms_nm, d_nm2_per_s.
    """
    if n_nv_ppb <= 0 or count <= 0 or r_vac_nm <= 0 or anneal_s <= 0:
        raise ValueError("all inputs must be > 0")
    density_um3 = c.ppb_to_per_m3(n_nv_ppb) * 1e-18
    v_um3 = count / density_um3
    r_nv_nm = (3.0 * v_um3 / (4.0 * np.pi)) ** (1.0 / 3.0) * 1e3
    if r_nv_nm < r_vac_nm:
        raise DataError(f"r_nv = {r_nv_nm:.1f} nm is smaller than the "
                        f"vacancy-creation radius {r_vac_nm} nm")
    d_rms_nm = np.sqrt(r_nv_nm**2 - r_vac_nm**2)
    d_coeff = d_rms_nm**2 / (6.0 * anneal_s)
    return {"v_nv_um3": float(v_um3), "r_nv_nm": float(r_nv_nm),
            "d_rms_nm": float(d_rms_nm), "d_nm2_per_s": float(d_coeff)}


def epr_double_integral(field_mt, deriv_signal, baseline_frac=0.1):
    """Double integral of a derivative EPR sweep, linear baseline removed.

    The baseline is a straight line fit to the first and last
    baseline_frac of the sweep; warns when the correction moves the
    result by more than 10%.
    """
    x = np.asarray(field_mt, dtype=float)
    y = np.asarray(deriv_signal, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 8:
        raise ValueError("field and signal must be 1-D arrays, >= 8 points")
    k = max(int(len(x) * baseline_frac), 2)
    edge = np.r_[np.arange(k), np.arange(len(x) - k, len(x))]
    coef = np.polyfit(x[edge], y[edge], 1)
    y_corr = y - np.polyval(coef, x)

    def double_int(sig):
        absorb = np.concatenate(
            ([0.0], np.cumsum(0.5 * (sig[1:] + sig[:-1]) * np.diff(x))))
        return float(np.trapezoid(absorb, x))

    di = double_int(y_corr)
    di_raw = double_int(y)
    if abs(di) > 0 and abs(di_raw - di) > 0.1 * abs(di):
        warnings.warn("baseline correction changed the double integral by "
                      ">10%; sweep baseline is drifting", DataQualityWarning)
    return di


def epr_concentration(di_sample, mass_sample_mg, di_ref, mass_ref_mg,
                      n_ref_ppm):
    """Spin concentration against a reference: n = n_ref (DI/m)/(DI_ref/m_ref).

    Returns ppb.
    """
    if di_ref <= 0 or mass_ref_mg <= 0 or n_ref_ppm <= 0:
        raise ValueError("reference values must be > 0")
    if mass_sample_mg <= 0:
        raise ValueError("sample mass must be > 0")
    if di_sample < 0:
        raise ValueError("sample double integral must be >= 0")
    n_ppm = n_ref_ppm * (di_sample / mass_sample_mg) / (di_ref / mass_ref_mg)
    return n_ppm * 1e3


def aggregate_estimates(values, errors=None):
    """Combine per-peak estimates into one value with uncertainty.

    Without errors: plain mean and sample standard deviation.  With
    per-estimate standard errors: inverse-variance weighted mean, and
    the larger of the weighted standard error and the weighted scatter,
    so disagreement between peaks is never under-reported.
    """
    v = np.asarray(values, dtype=float)
    if len(v) < 2:
        raise ValueError("need at least two values to aggregate")
    if errors is None:
        return float(v.mean()), float(v.std(ddof=1))
    e = np.asarray(errors, dtype=float)
    if e.shape != v.shape:
        raise ValueError("errors must match values in length")
    if np.any(~np.isfinite(e)) or np.any(e <= 0):
        return float(v.mean()), float(v.std(ddof=1))
    w = 1.0 / e**2
    mean = float(np.sum(w * v) / np.sum(w))
    se = float(np.sqrt(1.0 / np.sum(w)))
    scatter = float(np.sqrt(np.sum(w * (v - mean) ** 2)
                            / ((len(v) - 1) * np.sum(w))))
    return mean, max(se, scatter)
