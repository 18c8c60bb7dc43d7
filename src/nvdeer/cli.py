"""Command-line pipeline: simulate | fit | report | selftest.

Configuration is layered: an optional JSON file provides values, long
flags override individual entries, and everything else falls back to
documented defaults.  Every output file carries the resolved-config
hash, the seed and the package version, so re-running a command with
identical inputs reproduces identical bytes.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numeric
failure.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .datasets import DataSet, read_summary, write_plot_spec, write_summary
from .deer import (LorentzianPeak, deer_signal_from_transfer,
                   population_transfer, rabi_probability)
from .dynamics import compute_sigma, ensemble_transfer, simulate_rabi
from .errors import (ConfigError, DataError, FitError, IntegrationError,
                     NumericError)
from .fitting import (diffusion_coefficient, epr_concentration,
                      epr_double_integral, fit_deer_decay, fit_deer_spectrum,
                      fit_eseem, fit_hahn_decay, fit_rabi_frequency,
                      fit_saturation)
from .hamiltonians import (allowed_transitions, apply_orientation,
                           nv_line_table, nv_offaxis_member,
                           nv_onaxis_member, p1_ensemble, p1_group_table,
                           p1_line_table, static_hamiltonian, x_member)
from .photophysics import (PulseTrain, RateModelParams, evolve_populations,
                           ground_populations, steady_state_populations)
from .spincore import FieldConfiguration

__all__ = ["RunConfig", "load_config", "config_hash", "main"]

EXPERIMENTS = ("deer-spectrum", "deer-rabi", "deer-decay", "hahn", "eseem",
               "saturation", "photophysics", "diffusion", "epr")
ENGINES = ("analytic", "dynamics")


def _positive(v):
    return v > 0, "must be > 0"


def _non_negative(v):
    return v >= 0, "must be >= 0"


def _fraction(v):
    return 0 <= v < 1, "must be in [0, 1)"


def _any(v):
    return True, ""


# section -> key -> (default, converter, validator)
_SCHEMA = {
    "field": {
        "b0_mt": (37.2, float, _positive),
        "tilt_deg": (0.1, float, _any),
        "rabi_mhz": (2.0, float, _positive),
        "drive_freq_mhz": (1042.0, float, _positive),
    },
    "ensemble": {
        "n_p1_ppb": (200.0, float, _non_negative),
        "n_x_ppb": (0.0, float, _non_negative),
        "n_nv_ppb": (0.0, float, _non_negative),
        "gamma_mhz": (1.2, float, _non_negative),
        "beta": (0.03, float, _positive),
    },
    "timing": {
        "t_a_us": (20.0, float, _positive),
        "t_b_us": (0.25, float, _positive),
    },
    "sweep": {
        "f_min_mhz": (900.0, float, _positive),
        "f_max_mhz": (1190.0, float, _positive),
        "df_mhz": (0.5, float, _positive),
        "t_min_us": (0.02, float, _non_negative),
        "t_max_us": (3.0, float, _positive),
        "n_points": (121, int, _positive),
        "p_max_mw": (2.0, float, _positive),
    },
    "fit": {
        "rabi_mhz": (0.0, float, _non_negative),
        "p_b": (0.0, float, _fraction),
    },
    "decay": {
        "t2_us": (100.0, float, _positive),
        "stretch": (1.5, float, _positive),
        "k_mod": (0.35, float, _fraction),
        "gamma_n_mhz_per_t": (10.708, float, _positive),
    },
    "sample": {
        "count": (0.0, float, _non_negative),
        "r_vac_nm": (37.5, float, _positive),
        "anneal_s": (7200.0, float, _positive),
        "mass_mg": (0.0, float, _non_negative),
        "ref_di": (0.0, float, _non_negative),
        "ref_mass_mg": (0.0, float, _non_negative),
        "ref_n_ppm": (0.0, float, _non_negative),
        "f_sat_kcps": (250.0, float, _positive),
        "p_sat_mw": (0.5, float, _positive),
    },
    "run": {
        "engine": ("analytic", str, lambda v: (v in ENGINES,
                                               f"must be one of {ENGINES}")),
        "seed": (0, int, _non_negative),
        "noise": (0.0, float, _fraction),
        "dose": (0.0, float, _non_negative),
    },
}

# (command, experiment) -> config paths that must be set non-trivially
_REQUIRED = {
    ("simulate", "diffusion"): ("sample.count", "ensemble.n_nv_ppb"),
    ("fit", "epr"): ("sample.mass_mg", "sample.ref_di",
                     "sample.ref_mass_mg", "sample.ref_n_ppm"),
}


class RunConfig:
    """Resolved run configuration; attribute access mirrors 'section.key'.

    Built by load_config from defaults, an optional JSON file, and flag
    overrides, in that order.  The canonical dict (as_dict) is what gets
    hashed into every output.
    """

    def __init__(self, experiment, sections):
        if experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: got {experiment!r}, must be one of "
                + ", ".join(EXPERIMENTS))
        self.experiment = experiment
        self._sections = sections
        self.out_dir = "."
        if sections["sweep"]["f_max_mhz"] <= sections["sweep"]["f_min_mhz"]:
            raise ConfigError("sweep.f_max_mhz: must exceed sweep.f_min_mhz")
        if sections["sweep"]["t_max_us"] <= sections["sweep"]["t_min_us"]:
            raise ConfigError("sweep.t_max_us: must exceed sweep.t_min_us")

    def require(self, command):
        """Check the experiment-specific required fields of a command."""
        for path in _REQUIRED.get((command, self.experiment), ()):
            sect, key = path.split(".")
            if not self._sections[sect][key]:
                raise ConfigError(f"{path}: required for '{command}' with "
                                  f"experiment '{self.experiment}'")

    def __getitem__(self, path):
        sect, key = path.split(".")
        return self._sections[sect][key]

    def as_dict(self):
        out = {"experiment": self.experiment}
        for sect in sorted(self._sections):
            out[sect] = dict(sorted(self._sections[sect].items()))
        return out

    def field_config(self):
        return FieldConfiguration(
            self["field.b0_mt"], self["field.tilt_deg"],
            self["field.rabi_mhz"], self["field.drive_freq_mhz"])

    def f_grid(self):
        s = self._sections["sweep"]
        return np.arange(s["f_min_mhz"],
                         s["f_max_mhz"] + s["df_mhz"] / 2, s["df_mhz"])

    def t_grid(self):
        s = self._sections["sweep"]
        return np.linspace(s["t_min_us"], s["t_max_us"], s["n_points"])


def _coerce(sect, key, value):
    default, conv, validator = _SCHEMA[sect][key]
    try:
        if conv is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        coerced = conv(value)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{sect}.{key}: cannot interpret {value!r} as {conv.__name__}")
    ok, msg = validator(coerced)
    if not ok:
        raise ConfigError(f"{sect}.{key}: {msg} (got {coerced!r})")
    return coerced


def load_config(experiment=None, config_file=None, overrides=()):
    """Build a RunConfig from defaults, a JSON file and override pairs.

    overrides is an iterable of ('section.key', value) applied last;
    unknown paths raise ConfigError naming the path.
    """
    sections = {s: {k: v[0] for k, v in keys.items()}
                for s, keys in _SCHEMA.items()}
    file_experiment = None
    if config_file is not None:
        try:
            with open(config_file, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {config_file}: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config file: top level must be an object")
        for sect, val in raw.items():
            if sect == "experiment":
                file_experiment = val
                continue
            if sect not in _SCHEMA:
                raise ConfigError(f"{sect}: unknown config section")
            if not isinstance(val, dict):
                raise ConfigError(f"{sect}: must be an object")
            for key, v in val.items():
                if key not in _SCHEMA[sect]:
                    raise ConfigError(f"{sect}.{key}: unknown config key")
                sections[sect][key] = _coerce(sect, key, v)
    for path, value in overrides:
        if "." not in path:
            raise ConfigError(f"{path}: override paths look like "
                              "'section.key'")
        sect, key = path.split(".", 1)
        if sect not in _SCHEMA or key not in _SCHEMA[sect]:
            raise ConfigError(f"{path}: unknown config key")
        sections[sect][key] = _coerce(sect, key, value)
    experiment = experiment or file_experiment
    if experiment is None:
        raise ConfigError("experiment: set it via --experiment or the "
                          "config file")
    return RunConfig(experiment, sections)


def config_hash(cfg):
    """Short stable digest of the resolved configuration."""
    blob = json.dumps(cfg.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _run_section(cfg, timing=False):
    """Provenance of a run; dataset headers also carry the pulse timing."""
    out = {
        "experiment": cfg.experiment,
        "config_hash": config_hash(cfg),
        "seed": cfg["run.seed"],
        "version": __version__,
        "dose": cfg["run.dose"],
    }
    if timing:
        out["t_a_us"] = cfg["timing.t_a_us"]
        out["t_b_us"] = cfg["timing.t_b_us"]
    return out


def _write_ini(cfg, name, sections):
    """Write an INI summary into the output directory, "run" first."""
    write_summary(os.path.join(cfg.out_dir, name),
                  {"run": _run_section(cfg), **sections})


# ------------------------------------------------------------ simulate

@dataclass
class _Sim:
    """What one simulator produced; cmd_simulate writes it out.

    stem names the dataset (stem.csv) and its plot spec (stem_plot.json);
    columns maps name -> (values, unit), the x column first and the
    measured y second.  With run.noise > 0, y gets Gaussian noise of
    run.noise * noise_scale and an error column named err (no noise when
    err is None).  summary holds the summary.ini sections after "run";
    plot is (title, x label, y label) and series the (y column, label)
    pairs drawn, by default y as "simulated".
    """

    summary: dict
    stem: str = ""
    columns: dict = None
    plot: tuple = ()
    err: str = None
    noise_scale: float = 1.0
    series: tuple = ()


def _spectrum_transfer(cfg, field, fgrid, f_x, f_nv):
    """Per-species pump flip probabilities over the frequency grid, with
    the X line at f_x and the off-axis NV 2<->3 line at f_nv (lists,
    empty where the line is not drive-allowed).  The NV's is None at
    zero NV density, where its contrast factor is 1."""
    gamma = cfg["ensemble.gamma_mhz"]
    omega = field.rabi_mhz
    t_b = cfg["timing.t_b_us"]
    if cfg["run.engine"] == "dynamics":
        # the propagator models zero-width members; broadening them is
        # not implemented, and dropping the width would pass off a sharp
        # spectrum as a broad one
        if gamma > 0:
            raise ConfigError(
                f"ensemble.gamma_mhz: the dynamics engine models zero-width "
                f"lines, set it to 0 (got {gamma!r})")
        pt_p1 = ensemble_transfer(p1_ensemble(merge_off_axis=True), field,
                                  fgrid, t_b)
        pt_x = ensemble_transfer([x_member()], field, fgrid, t_b)
    else:
        rows = p1_line_table(field)
        pt_p1 = population_transfer(
            [LorentzianPeak(f, gamma, a) for f, a in rows],
            omega, fgrid, t_b)
        pt_x = population_transfer(
            [LorentzianPeak(f, gamma, 1.0) for f in f_x], omega, fgrid, t_b)
    pt_nv = None
    if cfg["ensemble.n_nv_ppb"] > 0:
        pt_nv = population_transfer(
            [LorentzianPeak(f, gamma, 1.0) for f in f_nv], omega, fgrid, t_b)
    return pt_p1, pt_x, pt_nv


def _field_error(cfg, what):
    """ConfigError for a field at which `what` has no drive-allowed line."""
    return ConfigError(
        f"field.b0_mt, field.tilt_deg: {what} has no drive-allowed line at "
        f"b0 = {cfg['field.b0_mt']} mT, tilt {cfg['field.tilt_deg']} deg")


def _nv_sigma_table(field):
    rows = []
    for member in ("on", "off"):
        sys_m = (nv_onaxis_member() if member == "on"
                 else nv_offaxis_member())
        h0 = static_hamiltonian(sys_m, field)
        for a, b in ((1, 2), (2, 3), (1, 3)):
            rows.append((member, a, b, compute_sigma(h0, a, b)))
    return rows


def _simulate_deer_spectrum(cfg):
    field = cfg.field_config()
    fgrid = cfg.f_grid()
    t_a = cfg["timing.t_a_us"]
    centers, amps = p1_group_table(field)
    f_x = [f for f, _, _, _ in allowed_transitions(x_member(), field)[:1]]
    nv_table = nv_line_table(field)
    f_nv = [f for f, _, a, b, label in nv_table
            if label != "[111]" and (a, b) == (2, 3)][:1]
    for key, lines in (("ensemble.n_p1_ppb", centers),
                       ("ensemble.n_x_ppb", f_x),
                       ("ensemble.n_nv_ppb", f_nv)):
        if cfg[key] > 0 and len(lines) == 0:
            raise ConfigError(
                f"{key}: this species has no drive-allowed line at "
                f"b0 = {cfg['field.b0_mt']} mT, tilt "
                f"{cfg['field.tilt_deg']} deg (got {cfg[key]!r})")
    pt_p1, pt_x, pt_nv = _spectrum_transfer(cfg, field, fgrid, f_x, f_nv)
    member = nv_offaxis_member()
    y = deer_signal_from_transfer(
        [pt_p1, pt_x], [cfg["ensemble.n_p1_ppb"], cfg["ensemble.n_x_ppb"]],
        t_a)
    if pt_nv is not None:
        # sensor-sensor contribution: 3/4 of the NVs sit on off-axis lines
        sigma_nv = compute_sigma(static_hamiltonian(member, field), 2, 3)
        y = y * deer_signal_from_transfer(
            0.75 * pt_nv, cfg["ensemble.n_nv_ppb"], t_a, sigma_nv)

    lines_p1 = {f"group_{i + 1}_mhz": float(fc)
                for i, fc in enumerate(centers)}
    lines_p1.update({f"group_{i + 1}_amp": float(aa)
                     for i, aa in enumerate(amps)})
    nv_lines = {}
    for f, el, a, b, label in nv_table:
        tag = "onaxis" if label == "[111]" else "offaxis"
        nv_lines[f"{tag}_{a}{b}_mhz"] = float(f)
    sigmas = {f"{m}axis_{a}{b}": float(s)
              for m, a, b, s in _nv_sigma_table(field)}
    b_member, _ = apply_orientation(member.orientation, field)
    pops7, n_pulses = steady_state_populations(
        RateModelParams.for_field(b_member, beta=cfg["ensemble.beta"]),
        PulseTrain())
    n123 = ground_populations(pops7)
    return _Sim(
        {"lines.p1": lines_p1,
         "lines.x": {"f_mhz": float(f_x[0])} if f_x else {},
         "lines.nv": nv_lines,
         "sigma": sigmas,
         "populations.offaxis": {
             "n1": float(n123[0]), "n2": float(n123[1]),
             "n3": float(n123[2]), "pulses_to_steady_state": n_pulses}},
        "spectrum", {"f_b_mhz": (fgrid, "MHz"), "i_deer": (y, "1")},
        ("DEER spectrum", "pump frequency f_B (MHz)", "echo contrast I_DEER"),
        err="i_deer_err")


def _simulate_deer_rabi(cfg):
    field = cfg.field_config()
    t = cfg.t_grid()
    if cfg["run.engine"] == "dynamics":
        member = x_member()
        # the carrier is the X line (x_line_frequency), which a field
        # along the drive leaves without a drive-allowed transition
        lines = allowed_transitions(member, field)
        if not lines:
            raise _field_error(cfg, "the X species")
        trace = simulate_rabi(
            member, field.replace(drive_freq_mhz=lines[0][0]), t)
        y = trace.y
    else:
        y = rabi_probability(field.rabi_mhz, 0.0, t)
    return _Sim(
        {"drive": {"rabi_mhz": cfg["field.rabi_mhz"],
                   "t_pi_us": 0.5 / cfg["field.rabi_mhz"]}},
        "rabi", {"t_us": (t, "us"), "p_flip": (y, "1")},
        ("Driven nutation", "pulse length (us)", "flip probability"),
        err="p_flip_err")


def _decay_p_b(cfg, field):
    """Pump flip probability on the addressed line (defaults to the
    central P1 line unless fit.p_b overrides)."""
    if cfg["fit.p_b"] > 0:
        return cfg["fit.p_b"]
    peak = LorentzianPeak(field.drive_freq_mhz, cfg["ensemble.gamma_mhz"],
                          1.0 / 3.0)
    return float(population_transfer([peak], field.rabi_mhz,
                                     field.drive_freq_mhz,
                                     cfg["timing.t_b_us"]))


def _simulate_deer_decay(cfg):
    t = cfg.t_grid()
    p_b = _decay_p_b(cfg, cfg.field_config())
    y = deer_signal_from_transfer(p_b, cfg["ensemble.n_p1_ppb"], t)
    return _Sim(
        {"decay": {"p_b": p_b, "n_p1_ppb": cfg["ensemble.n_p1_ppb"]}},
        "decay", {"t_b_delay_us": (t, "us"), "i_deer": (y, "1")},
        ("DEER decay", "pump delay T (us)", "echo contrast"),
        err="i_deer_err")


def _simulate_hahn(cfg, eseem=False):
    t = cfg.t_grid()
    env = np.exp(-((t / cfg["decay.t2_us"]) ** cfg["decay.stretch"]))
    summary = {"decay": {"t2_us": cfg["decay.t2_us"],
                         "stretch": cfg["decay.stretch"]}}
    if eseem:
        f_mod = (cfg["decay.gamma_n_mhz_per_t"] * cfg["field.b0_mt"]
                 / 2.0 * 1e-3)
        env = env * (1.0 - cfg["decay.k_mod"]
                     * np.sin(np.pi * f_mod * t) ** 2)
        summary["modulation"] = {
            "f_mod_mhz": f_mod,
            "gamma_n_mhz_per_t": cfg["decay.gamma_n_mhz_per_t"]}
    return _Sim(summary, "eseem" if eseem else "hahn",
                {"t_us": (t, "us"), "echo": (env, "1")},
                ("Echo decay", "total delay (us)", "echo amplitude"),
                err="echo_err")


def _simulate_saturation(cfg):
    p = np.linspace(0.0, cfg["sweep.p_max_mw"], cfg["sweep.n_points"])
    f_sat, p_sat = cfg["sample.f_sat_kcps"], cfg["sample.p_sat_mw"]
    y = f_sat * p / (p + p_sat)
    return _Sim(
        {"saturation": {"f_sat_kcps": f_sat, "p_sat_mw": p_sat}},
        "saturation", {"power_mw": (p, "mW"), "rate_kcps": (y, "kcps")},
        ("PL saturation", "laser power (mW)", "count rate (kcps)"),
        err="rate_err", noise_scale=f_sat)


def _simulate_photophysics(cfg):
    field = cfg.field_config()
    member = nv_offaxis_member()
    b_member, _ = apply_orientation(member.orientation, field)
    params = RateModelParams.for_field(b_member, beta=cfg["ensemble.beta"])
    pops7, n_pulses = steady_state_populations(params, PulseTrain())
    history = evolve_populations(
        params, PulseTrain(n_pulses=max(n_pulses, 10)))
    cols = {"pulse": (np.arange(1, len(history) + 1, dtype=float), "1")}
    for i in range(7):
        cols[f"n{i + 1}"] = (history[:, i], "1")
    n123 = ground_populations(pops7)
    return _Sim(
        {"steady_state": {"n1": float(n123[0]), "n2": float(n123[1]),
                          "n3": float(n123[2]),
                          "pulses_to_steady_state": n_pulses,
                          "beta": cfg["ensemble.beta"]}},
        "photophysics", cols,
        ("Readout polarization buildup", "laser pulse number",
         "ground-state population"),
        series=tuple((f"n{i + 1}", f"level {i + 1}") for i in range(3)))


def _simulate_diffusion(cfg):
    out = diffusion_coefficient(cfg["ensemble.n_nv_ppb"],
                                cfg["sample.count"],
                                cfg["sample.r_vac_nm"],
                                cfg["sample.anneal_s"])
    return _Sim({"diffusion": {k: float(v) for k, v in out.items()}})


def _simulate_epr(cfg):
    """Derivative EPR line with a known double integral, for pipeline
    tests of the quantification chain."""
    b0 = cfg["field.b0_mt"]
    width = 0.4
    b = np.linspace(b0 - 12.0, b0 + 12.0, cfg["sweep.n_points"])
    x = b - b0
    # derivative of a unit-area Lorentzian absorption line
    deriv = -(2.0 / np.pi) * width * x / (width**2 + x**2) ** 2
    scale = cfg["ensemble.n_p1_ppb"]
    return _Sim(
        {"epr": {"center_mt": b0, "width_mt": width, "area": scale}},
        "epr", {"field_mt": (b, "mT"), "deriv": (scale * deriv, "a.u.")},
        ("EPR derivative spectrum", "field (mT)", "dI/dB (a.u.)"),
        err="deriv_err")


_SIMULATORS = {
    "deer-spectrum": _simulate_deer_spectrum,
    "deer-rabi": _simulate_deer_rabi,
    "deer-decay": _simulate_deer_decay,
    "hahn": _simulate_hahn,
    "eseem": lambda cfg: _simulate_hahn(cfg, eseem=True),
    "saturation": _simulate_saturation,
    "photophysics": _simulate_photophysics,
    "diffusion": _simulate_diffusion,
    "epr": _simulate_epr,
}


def cmd_simulate(cfg):
    """Run the experiment's simulator, add the noise, write the dataset,
    summary.ini and the plot spec."""
    cfg.require("simulate")
    os.makedirs(cfg.out_dir, exist_ok=True)
    sim = _SIMULATORS[cfg.experiment](cfg)
    if sim.columns:
        cols = {name: vals for name, (vals, _) in sim.columns.items()}
        units = {name: unit for name, (_, unit) in sim.columns.items()}
        x, y = list(cols)[:2]
        level = cfg["run.noise"] * sim.noise_scale
        if sim.err and level > 0:
            rng = np.random.default_rng(cfg["run.seed"])
            cols[y] = cols[y] + level * rng.standard_normal(len(cols[y]))
            cols[sim.err] = np.full(len(cols[y]), level)
            units[sim.err] = units[y]
        name = sim.stem + ".csv"
        DataSet(cols, units, _run_section(cfg, timing=True)).write_csv(
            os.path.join(cfg.out_dir, name))
        write_plot_spec(
            os.path.join(cfg.out_dir, sim.stem + "_plot.json"), *sim.plot,
            [{"file": name, "x": x, "y": col, "label": label}
             for col, label in sim.series or ((y, "simulated"),)])
    _write_ini(cfg, "summary.ini", sim.summary)
    return 0


# ----------------------------------------------------------------- fit

def _fit_result_section(res):
    out = {}
    for name in res.param_names:
        out[name] = res.params[name]
        out[name + "_err"] = res.std_errors[name]
    out["residual_norm"] = res.residual_norm
    out["n_points"] = res.n_points
    out["converged"] = res.converged
    return out


def _estimate_section(est):
    out = {"species": est.species, "value_ppb": est.value_ppb,
           "uncertainty_ppb": est.uncertainty_ppb, "method": est.method,
           "is_upper_bound": est.is_upper_bound}
    if est.per_peak_values:
        for i, (v, e) in enumerate(zip(est.per_peak_values,
                                       est.per_peak_errors)):
            out[f"peak_{i + 1}_ppb"] = v
            out[f"peak_{i + 1}_err_ppb"] = e
    return out


def _fit_deer_spectrum(cfg, args, trace):
    """The staged spectrum fit (fitting.fit_deer_spectrum).  Writes
    peaks.ini, rabi.ini (with --rabi-data) and concentrations.ini;
    returns the report sections."""
    # the central fit places the P1 pair and the X line by the field
    field = cfg.field_config()
    if len(p1_line_table(field)) < 2:
        raise _field_error(cfg, "the central P1 pair")
    if not allowed_transitions(x_member(), field):
        raise _field_error(cfg, "the X species")
    # stage 2: pump Rabi frequency
    if args.rabi_data:
        rabi_trace = _read_trace(args.rabi_data, "t_us", "p_flip",
                                 "p_flip_err")
        omega, res2 = fit_rabi_frequency(rabi_trace)
        rabi = _fit_result_section(res2)
        _write_ini(cfg, "rabi.ini", {"rabi": rabi})
    elif cfg["fit.rabi_mhz"] > 0:
        omega = cfg["fit.rabi_mhz"]
        rabi = {"f_rabi": omega, "source": "config"}
    else:
        raise DataError(
            "stage 2 (Rabi calibration) input missing: pass --rabi-data "
            "or set fit.rabi_mhz in the config")

    fit = fit_deer_spectrum(trace, omega, cfg["timing.t_b_us"],
                            cfg["timing.t_a_us"], field=field)
    peaks = _fit_result_section(fit.peak_fit)
    _write_ini(cfg, "peaks.ini", {"peaks": peaks})
    sections = {"stage1.peaks": peaks, "stage2.rabi": rabi,
                "estimate.p1": _estimate_section(fit.p1),
                "estimate.x": _estimate_section(fit.x)}
    conc_sections = {"estimate.p1": sections["estimate.p1"]}
    for i, r in enumerate(fit.line_fits):
        conc_sections[f"stage3.peak_{i + 1}"] = _fit_result_section(r)
    conc_sections["estimate.x"] = sections["estimate.x"]
    conc_sections["stage3.central"] = _fit_result_section(fit.central_fit)
    _write_ini(cfg, "concentrations.ini", conc_sections)
    return sections


def _fit_rabi(cfg, args, trace):
    _, res = fit_rabi_frequency(trace)
    return {"rabi": _fit_result_section(res)}


def _fit_decay(cfg, args, trace):
    p_b = _decay_p_b(cfg, cfg.field_config())
    est, res = fit_deer_decay(trace, p_b)
    return {"decay": _fit_result_section(res),
            "estimate.p1": _estimate_section(est)}


def _fit_hahn(cfg, args, trace):
    return {"hahn": _fit_result_section(
        fit_hahn_decay(trace))}


def _fit_eseem(cfg, args, trace):
    info, res = fit_eseem(trace, cfg["field.b0_mt"])
    out = _fit_result_section(res)
    out.update({k: float(v) for k, v in info.items()})
    return {"eseem": out}


def _fit_saturation(cfg, args, trace):
    return {"saturation": _fit_result_section(
        fit_saturation(trace))}


def _fit_epr(cfg, args, trace):
    di = epr_double_integral(trace.x, trace.y)
    n_ppb = epr_concentration(di, cfg["sample.mass_mg"], cfg["sample.ref_di"],
                              cfg["sample.ref_mass_mg"],
                              cfg["sample.ref_n_ppm"])
    return {"epr": {"double_integral": float(di), "n_ppb": float(n_ppb)}}


# experiment -> ((x, y, error column), runner(cfg, args, trace) -> report
# sections, INI file that gets a copy of the report or None)
_FITS = {
    "deer-spectrum": (("f_b_mhz", "i_deer", "i_deer_err"),
                      _fit_deer_spectrum, None),
    "deer-rabi": (("t_us", "p_flip", "p_flip_err"), _fit_rabi, "rabi.ini"),
    "deer-decay": (("t_b_delay_us", "i_deer", "i_deer_err"), _fit_decay,
                   "concentrations.ini"),
    "hahn": (("t_us", "echo", "echo_err"), _fit_hahn, "hahn.ini"),
    "eseem": (("t_us", "echo", "echo_err"), _fit_eseem, "eseem.ini"),
    "saturation": (("power_mw", "rate_kcps", "rate_err"), _fit_saturation,
                   "saturation.ini"),
    "epr": (("field_mt", "deriv", "deriv_err"), _fit_epr, "epr.ini"),
}


def _read_trace(path, x_col, y_col, err_col):
    ds = DataSet.read_csv(path)
    return ds.to_trace(x_col, y_col,
                       err_col if err_col in ds.columns else None)


def cmd_fit(cfg, args):
    cfg.require("fit")
    if cfg.experiment not in _FITS:
        raise ConfigError(
            f"experiment: '{cfg.experiment}' has no fit stage; it is "
            "simulate/report only")
    os.makedirs(cfg.out_dir, exist_ok=True)
    columns, runner, out_name = _FITS[cfg.experiment]
    if not args.data:
        raise DataError("fit input missing: pass --data")
    trace = _read_trace(args.data, *columns)
    sections = runner(cfg, args, trace)
    _write_ini(cfg, "report.ini", sections)
    if out_name:
        _write_ini(cfg, out_name, sections)
    return 0


# -------------------------------------------------------------- report

def cmd_report(args):
    if not args.results:
        raise DataError("report needs at least one result file")
    rows = []
    diffusion = []
    for path in args.results:
        sections = read_summary(path)
        run = sections.get("run", {})
        dose = float(run.get("dose", 0.0))
        for name, body in sections.items():
            if name.startswith("estimate"):
                rows.append({
                    "species": body.get("species", "?"),
                    "dose": dose,
                    "value_ppb": float(body.get("value_ppb", "nan")),
                    "err_ppb": float(body.get("uncertainty_ppb", "nan")),
                    "upper": body.get("is_upper_bound", "False") == "True",
                    "file": path,
                })
            elif name == "diffusion":
                diffusion.append((path, body))
    lines = []
    for species in sorted({r["species"] for r in rows}):
        lines.append(f"[{species}]")
        lines.append(f"{'dose':>12s} {'n (ppb)':>12s} {'err (ppb)':>12s}  "
                     "file")
        for r in sorted((r for r in rows if r["species"] == species),
                        key=lambda r: r["dose"]):
            bound = " (upper bound)" if r["upper"] else ""
            lines.append(f"{r['dose']:12.4g} {r['value_ppb']:12.4g} "
                         f"{r['err_ppb']:12.4g}  {r['file']}{bound}")
        lines.append("")
    for path, body in diffusion:
        lines.append(f"[diffusion] {path}")
        for key in sorted(body):
            lines.append(f"  {key} = {body[key]}")
        lines.append("")
    text = "\n".join(lines).rstrip() + "\n" if lines else "no estimates\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


# ------------------------------------------------------------ selftest

def cmd_selftest(args):
    from . import selftest
    names = args.checks.split(",") if args.checks else None
    try:
        results = selftest.run_all(names, printer=print)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    n_fail = sum(not r.passed for r in results)
    total = sum(r.runtime_s for r in results)
    print(f"{len(results) - n_fail}/{len(results)} checks passed "
          f"({total:.1f} s total)")
    return 0 if n_fail == 0 else 4


# ----------------------------------------------------------------- cli

def _add_config_flags(parser):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--experiment", "-e", choices=EXPERIMENTS,
                        help="experiment type (overrides the config file)")
    parser.add_argument("--out", default=".",
                        help="output directory (default: current)")
    parser.add_argument("--seed", type=int,
                        help="seed of the simulated noise")
    parser.add_argument("--noise", type=float,
                        help="relative Gaussian noise level for simulate")
    parser.add_argument("--engine", choices=ENGINES,
                        help="spectrum engine: closed-form or propagator")
    parser.add_argument("--b0-mt", type=float, help="field magnitude (mT)")
    parser.add_argument("--rabi-mhz", type=float,
                        help="pump Rabi frequency (MHz)")
    parser.add_argument("--t-a-us", type=float,
                        help="dipolar evolution window T_A (us)")
    parser.add_argument("--t-b-us", type=float,
                        help="pump pulse length t_B (us)")
    parser.add_argument("--dose", type=float,
                        help="irradiation dose label carried into reports")
    parser.add_argument("--set", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override any other config entry")


def _overrides_from_args(args):
    pairs = []
    direct = {
        "seed": "run.seed", "noise": "run.noise", "engine": "run.engine",
        "b0_mt": "field.b0_mt", "rabi_mhz": "field.rabi_mhz",
        "t_a_us": "timing.t_a_us", "t_b_us": "timing.t_b_us",
        "dose": "run.dose",
    }
    for attr, path in direct.items():
        val = getattr(args, attr, None)
        if val is not None:
            pairs.append((path, val))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set {item!r}: expected SECTION.KEY=VALUE")
        path, _, value = item.partition("=")
        pairs.append((path.strip(), value.strip()))
    return pairs


def _build_config(args):
    cfg = load_config(args.experiment, args.config,
                      _overrides_from_args(args))
    cfg.out_dir = args.out
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nvdeer",
        description="Simulate and fit pulsed double-resonance defect "
                    "spectra in diamond.")
    parser.add_argument("--version", action="version",
                        version=f"nvdeer {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate",
                           help="generate synthetic datasets and summaries")
    _add_config_flags(p_sim)

    p_fit = sub.add_parser("fit", help="run the staged fit pipeline")
    _add_config_flags(p_fit)
    p_fit.add_argument("--data", help="input dataset file (CSV)")
    p_fit.add_argument("--rabi-data",
                       help="nutation dataset for the Rabi stage")

    p_rep = sub.add_parser("report", help="consolidate fit reports")
    p_rep.add_argument("results", nargs="*",
                       help="report.ini / concentrations.ini files")
    p_rep.add_argument("--out", help="also write the table to this file")

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.add_argument("--checks",
                        help="comma-separated subset of check names")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(_build_config(args))
        if args.command == "fit":
            return cmd_fit(_build_config(args), args)
        if args.command == "report":
            return cmd_report(args)
        if args.command == "selftest":
            return cmd_selftest(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, IntegrationError, FitError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
