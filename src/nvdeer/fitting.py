"""Least-squares estimators for spectra, decays and derived quantities.

All fits go through one trust-region least-squares wrapper (scipy
least_squares, with the analytic Jacobian every model supplies) with
per-point sigma weighting when the trace carries errors and covariance
from J^T J scaled by the reduced chi-square.  Every fit makes one start
from a seed taken from the data (dip positions, the dominant FFT bin's
frequency and phase, the dip depth) and raises FitError when that start
fails; there are no random restarts.  The four stage fits of the
spectrum still accept an unused `seed` keyword, because the benchmark
workloads pass it.  The concentration extraction follows the staged
protocol: Lorentzian peak positions first, Rabi frequency second, then
per-peak echo-contrast fits with everything but (f_r, Gamma, n_b)
frozen, and a central fit of the P1 pair and the X line, both placed by
the field.  Stages three and four fit one line model (_fit_lines), the
forward model that simulate renders (deer.SpectrumModel), with the
contrast law of an S = 1/2 bath spin.  fit_deer_spectrum runs stages
one, three and four for the CLI, the selftest and the demos.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import constants as c
from .deer import (LorentzianPeak, LorentzianPeakSet,
                   P1_FIVE_LINE_AMPLITUDES, SpectrumModel,
                   contrast_rate_per_ppb, deer_signal_from_transfer,
                   detection_limit_ppb)
from .errors import DataError, FitError, FitWarning, DataQualityWarning
from .spincore import FieldConfiguration

__all__ = [
    "FitResult",
    "ConcentrationEstimate",
    "DeerFixedParams",
    "SpectrumFit",
    "fit_lorentzian_peaks",
    "fit_rabi_frequency",
    "fit_concentration_spectrum",
    "fit_central_line_two_species",
    "fit_deer_spectrum",
    "fit_deer_decay",
    "fit_hahn_decay",
    "fit_eseem",
    "fit_saturation",
    "diffusion_coefficient",
    "epr_double_integral",
    "epr_concentration",
    "aggregate_estimates",
]

# share of the sweep at each end that fixes the EPR baseline
EPR_BASELINE_FRAC = 0.1
# the default config field (37.2 mT tilted 0.1 deg, 2 MHz drive at
# 1042 MHz), where the central fit places its lines when given no field
DEFAULT_FIELD = FieldConfiguration(37.2, 0.1, 2.0, 1042.0)
# the per-peak concentration fits refit with each other's lines as
# background until no density moves by more than BACKFIT_TOL of its
# standard error, at most BACKFIT_PASSES times
BACKFIT_TOL = 0.01
BACKFIT_PASSES = 8


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
    nfev: int = 0
    njev: int = 0


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


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first fit so that
    simulate and report start without scipy.optimize.  _run_fit calls it
    through this module attribute, which tests and the benchmark tracer
    replace to count solves."""
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


def _run_fit(model, x, y, sigma, p0, names, lower=None, upper=None,
             x_scale=None):
    """Weighted least squares: one trust-region solve from p0.

    model(x, params_vector) -> (y, J) with J[i, j] = dy_i/dp_j; returns
    FitResult with params mapped to `names` and the solver's function and
    Jacobian evaluation counts.  There is no second start: each fit
    seeds p0 in the basin of the answer, so a fit that fails from there
    has a wrong model or seed.  Raises FitError when the solve fails,
    leaves non-finite residuals or stops without converging.
    """
    p0 = np.asarray(p0, dtype=float)
    k = len(p0)
    if len(y) <= k:
        raise FitError(f"need more than {k} points to fit {k} parameters")
    lo = -np.inf * np.ones(k) if lower is None else np.asarray(lower, float)
    hi = np.inf * np.ones(k) if upper is None else np.asarray(upper, float)
    # a seed outside its bounds starts from the nearest bound
    p0 = np.clip(p0, lo, hi)

    # least_squares asks for the Jacobian at the point it just evaluated,
    # so one model call serves both
    last = {}

    def evaluate(p):
        key = p.tobytes()
        if last.get("key") != key:
            yv, jv = model(x, p)
            last.update(key=key, fun=(yv - y) / sigma,
                        jac=jv / sigma[:, None])
        return last

    def residual(p):
        return evaluate(p)["fun"]

    def jacobian(p):
        return evaluate(p)["jac"]

    # gtol is an absolute bound on the scaled gradient: at the default
    # 1e-8 an unweighted fit of exact data stops one step short of its
    # zero-residual minimum; weighted fits of noisy data stop on ftol
    try:
        best = least_squares(residual, p0, jac=jacobian, bounds=(lo, hi),
                             method="trf", gtol=1e-10,
                             x_scale=x_scale if x_scale is not None else "jac")
    except ValueError as exc:
        raise FitError(f"fit failed at its start: {exc}") from None
    if not np.all(np.isfinite(best.fun)) or best.status <= 0:
        raise FitError(f"fit did not converge: {best.message}")

    jac = best.jac
    dof = max(len(y) - k, 1)
    chi2_red = 2.0 * best.cost / dof
    jtj = jac.T @ jac
    try:
        cov = np.linalg.inv(jtj) * chi2_red
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * chi2_red
    # conditioning of the column-scaled JTJ, so parameters in very
    # different units (a density in ppb next to a line centre in MHz) do
    # not read as degenerate; a zero column is a parameter the data miss
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
        nfev=int(best.nfev),
        njev=int(best.njev or 0),
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
    idx, prominences = _prominent_minima(ys, prom, dist)
    if len(idx) < n_peaks:
        raise FitError(f"found only {len(idx)} candidate dips, "
                       f"need {n_peaks}; trace may be flat or too noisy")
    top = idx[np.argsort(prominences)[::-1][:n_peaks]]
    return np.sort(x[top])


def _prominent_minima(y, prominence, distance):
    """Indices and prominences of the minima of y that
    scipy.signal.find_peaks(-y, prominence=, distance=) returns: the
    middles of flat runs below both neighbours, thinned deepest first to
    `distance` samples apart, then kept where the lower of the highest
    points out to the nearest lower sample on either side stands at
    least `prominence` above them."""
    step = np.sign(np.diff(y))
    turns = np.flatnonzero(step)
    down_up = (step[turns[:-1]] < 0) & (step[turns[1:]] > 0)
    idx = (turns[:-1][down_up] + 1 + turns[1:][down_up]) // 2
    keep = np.ones(len(idx), dtype=bool)
    for j in np.argsort(-y[idx])[::-1]:
        if keep[j]:
            keep[np.abs(idx - idx[j]) < distance] = False
            keep[j] = True
    idx = idx[keep]
    prominences = np.empty(len(idx))
    for n, i in enumerate(idx):
        lower = np.flatnonzero(y < y[i])
        lo = lower[lower < i].max(initial=-1) + 1
        hi = lower[lower > i].min(initial=len(y))
        prominences[n] = min(y[lo:i + 1].max(), y[i:hi].max()) - y[i]
    deep = prominences >= prominence
    return idx[deep], prominences[deep]


def fit_lorentzian_peaks(trace, n_peaks, seed=0):
    """Fit a spectrum with a baseline minus n_peaks Lorentzian dips.

    Model: y = c0 - sum_i d_i * g_i^2 / (g_i^2 + (x - f_i)^2), i.e. each
    dip has depth d_i and HWHM g_i.  Used for stage one of the
    concentration protocol: locating resonance positions in a normalized
    echo-contrast spectrum (dips) before any physics is attached to them.

    Parameters
    ----------
    trace : SpectrumTrace
    n_peaks : int
        number of dips, seeded at the most prominent local minima.
    seed : accepted and unused; the fit makes one start.

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
    centers = _find_dips(x, y, n_peaks)

    span = x[-1] - x[0]
    g0 = max(span / (20.0 * n_peaks), 2.0 * np.median(np.diff(x)))
    c0 = float(np.percentile(y, 90))
    depths = [max(c0 - y[np.argmin(np.abs(x - f))], 1e-3 * abs(c0) + 1e-6)
              for f in centers]

    def model(xv, p):
        out = np.full_like(xv, p[0])
        jac = np.empty((len(xv), len(p)))
        jac[:, 0] = 1.0
        for i in range(n_peaks):
            f_i, g_i, d_i = p[1 + 3 * i: 4 + 3 * i]
            u = xv - f_i
            den = g_i**2 + u**2
            out = out - d_i * g_i**2 / den
            jac[:, 1 + 3 * i] = -2.0 * d_i * g_i**2 * u / den**2
            jac[:, 2 + 3 * i] = -2.0 * d_i * g_i * u**2 / den**2
            jac[:, 3 + 3 * i] = -g_i**2 / den
        return out, jac

    p0 = [c0]
    names = ["c0"]
    lo, hi = [-np.inf], [np.inf]
    for i, (f_i, d_i) in enumerate(zip(centers, depths)):
        p0 += [f_i, g0, d_i]
        names += [f"f_{i}", f"gamma_{i}", f"depth_{i}"]
        lo += [x[0], np.median(np.diff(x)) / 4, 0.0]
        hi += [x[-1], span, np.inf]

    result = _run_fit(model, x, y, _weights(trace), p0, names,
                      lower=lo, upper=hi)
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

    Model: y = c + a exp(-k t) cos(2 pi f t + phi), seeded by the
    dominant FFT bin: its frequency seeds f and its phase, referred to
    t = 0, seeds phi, which is bounded to one turn around that seed and
    reported wrapped into (-pi, pi].  (A nutation (1 - cos)/2 has
    phi = pi.)  The decay rate k_per_us lies in [0, 1/dt], seeded at
    1/(t span), so an undamped trace stops at its bound k = 0.  Returns
    (omega_mhz, FitResult); the result also carries t_pi = 1/(2 Omega)
    with its propagated error.  `seed` is accepted and unused: the fit
    makes one start.
    """
    t, y = trace.x, trace.y
    if len(t) < 8:
        raise ValueError("need at least 8 points")
    dt = np.median(np.diff(t))
    yc = y - y.mean()
    if np.std(yc) < 1e-12:
        raise FitError("no oscillation detected (constant trace)")
    freqs = np.fft.rfftfreq(len(t), dt)
    bins = np.fft.rfft(yc)
    spec = np.abs(bins)
    k = 1 + int(np.argmax(spec[1:]))
    f0 = freqs[k]
    if f0 <= 0 or spec[k] < 3.0 * np.median(spec[1:] + 1e-30):
        raise FitError("no oscillation detected in the spectrum")
    if t[-1] - t[0] < 1.5 / f0:
        raise ValueError("trace must span at least 1.5 oscillation periods")
    phi0 = _wrap_phase(np.angle(bins[k]) - 2 * np.pi * f0 * t[0])

    p0 = [y.mean(), (y.max() - y.min()) / 2, 1.0 / (t[-1] - t[0]), f0,
          phi0]
    names = ["c", "a", "k_per_us", "f", "phi"]

    def model(tv, p):
        c_, a, k_, f, phi = p
        env = np.exp(-k_ * tv)
        phase = 2 * np.pi * f * tv + phi
        cos_, sin_ = np.cos(phase), np.sin(phase)
        jac = np.column_stack([np.ones_like(tv), env * cos_,
                               -a * env * cos_ * tv,
                               -2 * np.pi * a * env * sin_ * tv,
                               -a * env * sin_])
        return c_ + a * env * cos_, jac

    lo = [-np.inf, 0.0, 0.0, f0 / 3.0, phi0 - np.pi]
    hi = [np.inf, np.inf, 1.0 / dt, min(3.0 * f0, freqs[-1] * 1.5),
          phi0 + np.pi]
    result = _run_fit(model, t, y, _weights(trace), p0, names,
                      lower=lo, upper=hi)
    result.params["phi"] = _wrap_phase(result.params["phi"])
    f = result.params["f"]
    f_err = result.std_errors["f"]
    if f_err > abs(f):
        raise FitError("oscillation frequency is not resolved")
    result.params["t_pi"] = 1.0 / (2.0 * f)
    result.std_errors["t_pi"] = f_err / (2.0 * f**2)
    result.param_names = result.param_names + ("t_pi",)
    return f, result


def _wrap_phase(phi):
    """phi wrapped into (-pi, pi]."""
    return float(np.pi - (np.pi - phi) % (2 * np.pi))


# -------------------------------------------------- concentration fits

@dataclass(frozen=True)
class DeerFixedParams:
    """Stage-three frozen parameters of the echo-contrast model."""

    omega_mhz: float
    t_b_us: float
    t_b_delay_us: float
    amps: tuple

    def __post_init__(self):
        if self.omega_mhz <= 0 or self.t_b_us <= 0 or self.t_b_delay_us <= 0:
            raise ValueError("omega_mhz, t_b_us, t_b_delay_us must be > 0")
        amps = tuple(float(a) for a in self.amps)
        if any(a <= 0 for a in amps):
            raise ValueError("line amplitudes must be positive")
        object.__setattr__(self, "amps", amps)


def _central_window_lines(model):
    """The two middle P1 rows (the central pair) and the X row of the
    model's lines, each as (offset, area) from the pair's area-weighted
    centre."""
    rows = model.lines["P1"]
    mid = rows[len(rows) // 2 - 1: len(rows) // 2 + 1]
    centre = sum(f * a for f, a in mid) / sum(a for _, a in mid)
    return tuple(tuple((f - centre, a) for f, a in lines)
                 for lines in (mid, model.lines["X"]))


def _fit_lines(trace, model, groups, f_c, gamma, n0, background,
               names=("f_r", "gamma", "n_ppb")):
    """The line fit of stages three and four: I = b bg exp(-C T_B
    sum_s n_s P_s(f)), every line shifted by f_c and of width gamma
    (model.signal).

    groups holds (n_ppb, ((offset from f_c, area), ...)); the one group
    with n_ppb None has the free density, seeded at n0.  The parameters
    are f_c, gamma and that density (under `names`) and, with background
    None, a free baseline b ("base"); otherwise bg is the contrast of the
    background rows (n_ppb, f_r, gamma, amp), f_r and amp scalars or
    sequences, and b = 1.  Returns the FitResult and its model(f, p) ->
    (I, J).
    """
    free = [n for n, _ in groups].index(None)
    # one group keeps the one-species grouping of the contrast law
    one = len(groups) == 1
    lines = groups[0][1] if one else [rows for _, rows in groups]
    free_base = background is None
    rows = background or []
    bg = model.signal(trace.x, [n for n, _, _, _ in rows],
                      [g for _, _, g, _ in rows],
                      lines=[tuple(zip(np.atleast_1d(f), np.atleast_1d(a)))
                             for _, f, _, a in rows])

    def fit_model(fv, p):
        dens = [p[2] if n is None else n for n, _ in groups]
        contrast, slopes = model.signal(fv, dens[0] if one else dens, p[1],
                                        p[0], lines, jac=True)
        out = (p[3] if free_base else 1.0) * bg * contrast
        cols = [slopes[:, j] * out for j in (0, 1, 2 + free)]
        if free_base:
            cols.append(bg * contrast)
        return out, np.column_stack(cols)

    p0, xs = [f_c, gamma, n0], [1.0, 1.0, max(n0, 1.0)]
    lo, hi = [trace.x[0], 0.01, 0.0], [trace.x[-1], 50.0, 1e6]
    if free_base:
        names, p0 = names + ("base",), p0 + [np.percentile(trace.y, 90)]
        lo, hi, xs = lo + [0.5], hi + [1.5], xs + [1.0]
    res = _run_fit(fit_model, trace.x, trace.y, _weights(trace), p0, names,
                   lower=lo, upper=hi, x_scale=xs)
    return res, fit_model


def fit_concentration_spectrum(trace, seeds, fixed, exclude_central=True,
                               seed=0, field=None):
    """Per-peak concentration fits of a normalized echo-contrast spectrum.

    For each seed peak the trace is windowed to max(8 Gamma, 5 Omega, 10)
    MHz around the center and fitted (_fit_lines) with
    I(f) = b exp(-C n T_B A_i P(f; f_r, Gamma)), the fixed amplitude
    A_i taken from `fixed.amps` in frequency order; free parameters are
    (f_r, Gamma, n_b) plus a local baseline b that absorbs the wings of
    the neighboring lines (without it the weak outer lines bias high by
    several percent).  Later passes then refit every peak with the
    others' latest contributions multiplied in as a fixed background and
    the baseline pinned at 1, which decorrelates the shallow dips from
    their baseline, until no density of the aggregate moves by more than
    BACKFIT_TOL of its standard error (at most BACKFIT_PASSES passes);
    stopping after one such pass left P1 0.2 ppb high on noiseless data.
    (The excluded middle peak carries the X line, and its fit shifts by
    ~0.1 sigma with its seed from pass to pass.)  The species aggregate
    combines the outer peaks with aggregate_estimates: the
    inverse-variance weighted mean, with the larger of its standard error
    and the weighted scatter over the peaks as uncertainty (per-peak
    values and standard errors are carried along separately).

    Parameters
    ----------
    trace : SpectrumTrace
        Normalized contrast, ~1 off resonance.
    seeds : LorentzianPeakSet or sequence of center frequencies (MHz)
        Usually the stage-one output.
    fixed : DeerFixedParams
        amps must have one entry per seed, frequency-ordered.
    exclude_central : bool
        Drop the middle peak (odd count) from the aggregate; that line
        overlaps the X defect and is fitted separately.
    seed : accepted and unused; every fit makes one start.
    field : FieldConfiguration, optional (None is DEFAULT_FIELD)
        With five peaks the middle one is fitted as the central P1 pair
        of p1_line_table(field) (_central_window_lines), shifted together
        by its f_r: one line would take up the pair's splitting in an
        inflated width and density, and bias the other peaks through its
        wings.

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

    model = SpectrumModel(field or DEFAULT_FIELD, fixed.omega_mhz,
                          fixed.t_b_us, fixed.t_b_delay_us)
    lines = [((0.0, a),) for a in fixed.amps]
    if len(lines) == 5:
        lines[2] = _central_window_lines(model)[0]

    def fit_one(f_c, g_c, group, n0, background):
        # first pass: n0 None (seeded from the dip depth) and background
        # None (a free baseline instead)
        w = max(8.0 * g_c, 5.0 * fixed.omega_mhz, 10.0)
        sub = trace.window(f_c - w, f_c + w)
        if len(sub) < 8:
            raise ValueError(f"window around {f_c:.1f} MHz has too few "
                             "points")
        if n0 is None:
            n0 = detection_limit_ppb(
                np.clip(1.0 - sub.y.min(), 1e-4, 0.999), fixed.t_b_delay_us,
                max(model.transfer(0.0, group, 0.5), 1e-6))
        return _fit_lines(sub, model, [(None, group)], f_c, g_c, n0,
                          background)[0]

    results = [fit_one(f_c, g_c, group, None, None)
               for f_c, g_c, group in zip(centers, gammas, lines)]
    keep = list(range(len(lines)))
    if exclude_central and len(keep) % 2 == 1 and len(keep) > 1:
        keep.remove(len(keep) // 2)
    for _ in range(BACKFIT_PASSES):
        rows = [(r.params["n_ppb"], [r.params["f_r"] + d for d, _ in group],
                 r.params["gamma"], [a for _, a in group])
                for r, group in zip(results, lines)]
        results = [fit_one(r.params["f_r"], r.params["gamma"], group,
                           max(r.params["n_ppb"], 1.0),
                           rows[:i] + rows[i + 1:])
                   for i, (r, group) in enumerate(zip(results, lines))]
        if all(abs(results[i].params["n_ppb"] - rows[i][0])
               <= BACKFIT_TOL * results[i].std_errors["n_ppb"] for i in keep):
            break

    values = [r.params["n_ppb"] for r in results]
    errors = [r.std_errors["n_ppb"] for r in results]
    if any(v >= 0.999e6 for v in values):
        warnings.warn("concentration hit the upper bound", FitWarning)

    agg = [values[i] for i in keep]
    agg_err = [errors[i] for i in keep]
    mean, std = aggregate_estimates(agg, agg_err)
    est = ConcentrationEstimate(
        species="P1", value_ppb=mean, uncertainty_ppb=std,
        method="spectrum", per_peak_values=agg,
        per_peak_errors=agg_err)
    return est, results


def fit_central_line_two_species(trace, n_p1_ppb, fixed, field=None,
                                 background=None, seed=0):
    """X concentration from the central window with the P1 part frozen.

    Model (_fit_lines): I = exp(-C T_B [n_P1 sum_j P(f; f_c + d_j,
    Gamma, A_j) + n_X P(f; f_c + d_X, Gamma, 1)]), the central P1 pair
    (areas A_j of 1/12 and 1/4) and the X line of the field's
    SpectrumModel lines, at their offsets d from the pair's area-weighted
    centre f_c (_central_window_lines); n_P1 is fixed.  The free
    parameters are f_c, Gamma and n_X (plus a baseline `base` when no
    background is given); f_x and gamma_x are reported as derived
    params.  `fixed` supplies the pulse and contrast constants; its amps
    are not used.  field=None is DEFAULT_FIELD.  `seed` is accepted and
    unused: the fit makes one start.

    `background`, when given, is a list of (n_ppb, f_r, gamma, amp) rows
    for already-fitted neighboring lines; their contrast is multiplied in
    as a fixed factor and the free baseline is pinned at 1, which keeps
    the shallow X dip from trading against the baseline.

    Returns a ConcentrationEstimate for X; when the fitted amplitude is
    within its own uncertainty the estimate is flagged as an upper bound.
    """
    if n_p1_ppb < 0:
        raise ValueError("n_p1_ppb must be >= 0")
    spectrum = SpectrumModel(field or DEFAULT_FIELD, fixed.omega_mhz,
                             fixed.t_b_us, fixed.t_b_delay_us)
    pair, x_line = _central_window_lines(spectrum)
    res, model = _fit_lines(
        trace, spectrum, [(n_p1_ppb, pair), (None, x_line)],
        trace.x[np.argmin(trace.y)], 1.0, max(0.05 * n_p1_ppb, 1.0),
        background, names=("f_central", "gamma_central", "n_x_ppb"))
    # trf closes in on a bound geometrically and stops short of it: on
    # X-free data n_X ends ~1e-3 ppb above 0, where the residual it leaves
    # makes that seven of its own sigmas.  When the bound fits at least as
    # well it is the constrained minimum, and n_X is reported there.
    at_bound = np.array([res.params[n] for n in res.param_names])
    at_bound[2] = 0.0
    if np.linalg.norm((model(trace.x, at_bound)[0] - trace.y)
                      / _weights(trace)) <= res.residual_norm:
        res.params["n_x_ppb"] = 0.0
    res.params["f_x"] = res.params["f_central"] + x_line[0][0]
    res.std_errors["f_x"] = res.std_errors["f_central"]
    res.params["gamma_x"] = res.params["gamma_central"]
    res.std_errors["gamma_x"] = res.std_errors["gamma_central"]
    res.param_names = res.param_names + ("f_x", "gamma_x")
    n_x = res.params["n_x_ppb"]
    err = res.std_errors["n_x_ppb"]
    upper = n_x < err
    est = ConcentrationEstimate(
        species="X", value_ppb=n_x, uncertainty_ppb=err, method="spectrum",
        is_upper_bound=bool(upper))
    return est, res


@dataclass
class SpectrumFit:
    """The stage results of fit_deer_spectrum."""

    peaks: LorentzianPeakSet
    peak_fit: FitResult
    p1: ConcentrationEstimate
    line_fits: list
    x: ConcentrationEstimate
    central_fit: FitResult


def fit_deer_spectrum(trace, omega_mhz, t_b_us, t_b_delay_us, field=None):
    """Stages one, three and four of the spectrum fit, given stage two's
    pump Rabi frequency: five dips (fit_lorentzian_peaks), their P1
    densities at P1_FIVE_LINE_AMPLITUDES (fit_concentration_spectrum),
    and the X line in the window from 16 MHz below to 12 MHz above the
    middle dip, the outer lines as background
    (fit_central_line_two_species); on X-free data the X estimate is an
    upper bound.  field=None is DEFAULT_FIELD.  Returns a SpectrumFit.
    """
    peaks, peak_fit = fit_lorentzian_peaks(trace, 5)
    fixed = DeerFixedParams(omega_mhz=omega_mhz, t_b_us=t_b_us,
                            t_b_delay_us=t_b_delay_us,
                            amps=P1_FIVE_LINE_AMPLITUDES)
    p1, line_fits = fit_concentration_spectrum(trace, peaks, fixed,
                                               field=field)
    ctr = sorted(p.f_r_mhz for p in peaks)[2]
    background = [(r.params["n_ppb"], r.params["f_r"], r.params["gamma"], a)
                  for i, (r, a) in enumerate(zip(line_fits, fixed.amps))
                  if i != 2]
    x, central_fit = fit_central_line_two_species(
        trace.window(ctr - 16.0, ctr + 12.0), p1.value_ppb, fixed,
        field=field, background=background)
    return SpectrumFit(peaks, peak_fit, p1, line_fits, x, central_fit)


def fit_deer_decay(trace, p_b):
    """Concentration from an echo-contrast decay versus delay time.

    Model: I(T_B) = exp(-C n P_B T_B) with P_B fixed (the pump flip
    probability at the chosen line) and C at sigma_B = 1/2.  Needs >= 8
    delay points.
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
        out = deer_signal_from_transfer(p_b, p[0], tv)
        rate = contrast_rate_per_ppb(tv)
        return out, (-rate * p_b * out)[:, None]

    # seed: the log-slope is the contrast lost per us; a flat or rising
    # trace clips to the floor of 1 ppb
    slope0 = -np.polyfit(trace.x, np.log(trace.y), 1)[0]
    n0 = max(detection_limit_ppb(np.clip(-np.expm1(-slope0), 1e-12,
                                         1.0 - 1e-12),
                                 1.0, p_b), 1.0)
    res = _run_fit(model, trace.x, trace.y, _weights(trace), [n0],
                   ["n_ppb"], lower=[0.0], upper=[1e6],
                   x_scale=[max(n0, 1.0)])
    est = ConcentrationEstimate(
        species="P1", value_ppb=res.params["n_ppb"],
        uncertainty_ppb=res.std_errors["n_ppb"], method="decay")
    return est, res


# ------------------------------------------------------------- decays

def _stretched_exp(tv, a, t2, n):
    """a exp(-(t/T2)^n) and its derivatives in (a, T2, n) as columns;
    t < 0 counts as 0, where the n derivative is 0."""
    ratio = np.clip(tv, 0, None) / t2
    q = np.power(ratio, n)
    env = np.exp(-q)
    out = a * env
    log_r = np.log(ratio, out=np.zeros_like(ratio), where=ratio > 0)
    return out, np.column_stack([env, out * n * q / t2, -out * q * log_r])


def fit_hahn_decay(trace):
    """Stretched-exponential echo decay a exp(-(t/T2)^n).

    Returns FitResult with params a, t2_us, n.  Warns when the data end
    before the fitted T2, where T2 and n trade against each other.
    """
    t, y = trace.x, trace.y
    if len(t) < 6:
        raise ValueError("need at least 6 points")
    if np.all(y <= 0):
        raise ValueError("decay data must contain positive values")
    a0 = float(np.max(y))
    below = t[y < a0 / np.e]
    t2_0 = float(below[0]) if len(below) else float(t[-1])

    res = _run_fit(lambda tv, p: _stretched_exp(tv, *p), t, y,
                   _weights(trace), [a0, t2_0, 1.5], ["a", "t2_us", "n"],
                   lower=[0.0, np.min(np.diff(t)), 0.2],
                   upper=[np.inf, np.inf, 6.0])
    if t[-1] < res.params["t2_us"]:
        warnings.warn("data end before the fitted T2; T2 and the stretch "
                      "are poorly constrained", FitWarning)
    return res


def fit_eseem(trace, b0_mt):
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
    env = fit_hahn_decay(trace)
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
        k_mod, f, phi = p[3:]
        envl, d_env = _stretched_exp(tv, *p[:3])
        phase = np.pi * f * tv + phi
        sin2 = np.sin(phase) ** 2
        mod = 1.0 - k_mod * sin2
        d_phase = -envl * k_mod * np.sin(2.0 * phase)
        jac = np.column_stack([d_env * mod[:, None], -envl * sin2,
                               d_phase * np.pi * tv, d_phase])
        return envl * mod, jac

    res = _run_fit(model, t, y, _weights(trace),
                   [a0, t2_0, n0, 0.5 * (1 - resid.min()), 2 * f0, 0.0],
                   ["a", "t2_us", "n", "k", "f_mhz", "phi"],
                   lower=[0.0, dt, 0.2, 0.0, f0 / 2, -np.pi],
                   upper=[np.inf, np.inf, 6.0, 1.0, 4 * f0, np.pi])
    f = res.params["f_mhz"]
    gamma_n = 2.0 * f / b0_mt * 1e3      # MHz/mT -> MHz/T
    gamma_err = 2.0 * res.std_errors["f_mhz"] / b0_mt * 1e3
    info = {"f_mhz": f, "f_err_mhz": res.std_errors["f_mhz"],
            "gamma_n_mhz_per_t": gamma_n, "gamma_n_err_mhz_per_t": gamma_err}
    return info, res


# --------------------------------------------------------- saturation

def fit_saturation(trace):
    """PL saturation curve F(P) = F_sat P / (P + P_sat).

    Warns when the data stops below half the fitted saturation power.
    """
    x, y = trace.x, trace.y
    if np.any(x < 0):
        raise ValueError("powers must be non-negative")

    def model(pv, p):
        den = pv + p[1]
        out = p[0] * pv / den
        return out, np.column_stack([pv / den, -out / den])

    p_sat0 = float(np.median(x[x > 0])) if np.any(x > 0) else 1.0
    res = _run_fit(model, x, y, _weights(trace),
                   [2.0 * float(np.max(y)), p_sat0],
                   ["f_sat", "p_sat"],
                   lower=[0.0, 1e-9], upper=[np.inf, np.inf])
    if np.max(x) < 0.5 * res.params["p_sat"]:
        warnings.warn("data stops below 0.5 P_sat; saturation level is "
                      "poorly constrained", FitWarning)
    return res


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


def epr_double_integral(field_mt, deriv_signal):
    """Double integral of a derivative EPR sweep, linear baseline removed.

    The baseline is a straight line fit to the first and last
    EPR_BASELINE_FRAC of the sweep; warns when the correction moves the
    result by more than 10%.
    """
    x = np.asarray(field_mt, dtype=float)
    y = np.asarray(deriv_signal, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 8:
        raise ValueError("field and signal must be 1-D arrays, >= 8 points")
    k = max(int(len(x) * EPR_BASELINE_FRAC), 2)
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
