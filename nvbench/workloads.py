"""The nvdeer benchmark workloads.

Each workload makes its inputs from a seed, runs one round of calls into
nvdeer and checks the outputs against a computation written out here,
apart from the code under test.  README.md describes the workloads and
the reasons for their sizes.
"""

import configparser
import contextlib
import os
import time

import numpy as np

from nvdeer import fitting
from nvdeer.cli import main as cli_main
from nvdeer.datasets import DataSet
from nvdeer.deer import P1_FIVE_LINE_AMPLITUDES
from nvdeer.hamiltonians import p1_line_table, x_line_frequency
from nvdeer.spincore import FieldConfiguration

# The package defaults the workloads keep (field, pump pulse, dipolar
# window).  The checks restate them so that a changed default shows up
# as a failed check instead of a silently different workload.
B0_MT, TILT_DEG, DRIVE_MHZ = 37.2, 0.1, 1042.0
T_B_US, T_A_US = 0.25, 20.0

# SI constants and diamond density of the closed-form contrast model
# I = exp(-C n T_A P_B), C = 4 pi mu0 muB^2 gA gB sigma / (9 sqrt(3) hbar)
MU_0, MU_B, HBAR = 4e-7 * np.pi, 9.274e-24, 1.0546e-34
ATOMS_PER_M3 = 3.515e6 / 12.011 * 6.02214076e23


def rate_times_window(sigma=0.5, g=2.0):
    """C * T_A in m^3 for two electron spins."""
    c = 4 * np.pi * MU_0 * MU_B**2 * g * g * sigma / (9 * np.sqrt(3) * HBAR)
    return c * T_A_US * 1e-6


def rabi_flip(omega, detuning, t):
    """Generalised Rabi formula for a square pulse of length t."""
    g2 = omega**2 + np.asarray(detuning, dtype=float) ** 2
    return omega**2 / g2 * np.sin(np.pi * np.sqrt(g2) * t) ** 2


def read_columns(path):
    """Columns of an nvdeer CSV dataset, parsed without nvdeer."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.strip().split(",") for line in fh
                if not line.startswith("#")]
    values = np.array(rows[1:], dtype=float)
    return {name: values[:, i] for i, name in enumerate(rows[0])}


def read_ini(path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return parser


class Round:
    """One round's output directory, timings and operation counts.

    sim_samples holds the duration of every simulate phase of the round;
    fit_s is the summed duration of its fit calls.
    """

    def __init__(self, out_dir, seed, tracer=None):
        self.out_dir = out_dir
        self.seed = seed
        self.tracer = tracer
        self.sim_samples = []
        self.fit_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.results = {}
        self.note = ""

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def _op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def cli(self, *argv, seed=None):
        """nvdeer.cli.main on argv; a non-zero exit counts as failed."""
        seed = self.seed if seed is None else seed
        argv = list(argv) + ["--seed", str(seed), "--out", self.out_dir]
        span = (self.tracer.span(f"cli.{argv[0]}") if self.tracer
                else contextlib.nullcontext())

        def run():
            with span:
                code = cli_main(argv)
            if code != 0:
                raise RuntimeError(f"nvdeer {' '.join(argv)} exited {code}")
        self._op(run)

    def simulate(self, phase):
        """Run and time one simulate phase, phase(self)."""
        t0 = time.perf_counter()
        phase(self)
        self.sim_samples.append(time.perf_counter() - t0)

    def fit(self, fn, *args, **kwargs):
        """A timed fit-side call; an exception counts as failed."""
        t0 = time.perf_counter()
        try:
            return self._op(fn, *args, **kwargs)
        finally:
            self.fit_s += time.perf_counter() - t0

    def fit_cli(self, *argv):
        """A timed CLI call of the fit side."""
        t0 = time.perf_counter()
        try:
            self.cli(*argv)
        finally:
            self.fit_s += time.perf_counter() - t0


# ------------------------------------------------------------ spectrum-fit

SPEC_P1_PPB, SPEC_X_PPB, SPEC_NOISE = 230.0, 15.0, 0.01
# The spectrum's noise and the multistart seed of every fit stay at the
# package default (0): the fit seed changes the fit's work (stage one
# took 7.0 s with seed 1 and 2.5 s with seed 2), and across noise
# realizations the two-line P1 estimate strays past 5% now and then
# (README.md).  --seed draws the noise of the nutation trace that
# calibrates the pump Rabi frequency.
SPEC_FIXED_SEED = 0
# stage-three lines, low to high: the two strongest off-centre P1 groups
SPEC_LINES = (1, 3)
# fitted group centres must sit this close to the static line table
LINE_TOL_MHZ = 0.5


def _spectrum_simulate(rnd):
    rnd.cli("simulate", "-e", "deer-spectrum", "--noise", str(SPEC_NOISE),
            "--set", f"ensemble.n_p1_ppb={SPEC_P1_PPB}",
            "--set", f"ensemble.n_x_ppb={SPEC_X_PPB}", seed=SPEC_FIXED_SEED)
    rnd.cli("simulate", "-e", "deer-rabi", "--noise", str(SPEC_NOISE))


def spectrum_fit(rnd):
    # The simulate phase takes ~0.15 s while the machine's speed swings
    # by +-20% within seconds, so it is timed again twice after every fit
    # stage (rewriting identical files) and the samples are averaged.
    def simulate_again():
        for _ in range(2):
            rnd.simulate(_spectrum_simulate)

    rnd.simulate(_spectrum_simulate)
    seed = SPEC_FIXED_SEED
    spec = rnd.fit(DataSet.read_csv, rnd.path("spectrum.csv"))
    trace = spec.to_trace("f_b_mhz", "i_deer", "i_deer_err")
    nut = rnd.fit(DataSet.read_csv, rnd.path("rabi.csv"))
    nut_trace = nut.to_trace("t_us", "p_flip", "p_flip_err")

    # the stage calls of `nvdeer fit -e deer-spectrum`, with stage three
    # on two of the four outer lines (README.md gives the reason)
    peaks, _ = rnd.fit(fitting.fit_lorentzian_peaks, trace, 5, seed=seed)
    simulate_again()
    omega, _ = rnd.fit(fitting.fit_rabi_frequency, nut_trace, seed=seed)
    simulate_again()
    amps = tuple(P1_FIVE_LINE_AMPLITUDES[i] for i in SPEC_LINES)
    fixed = fitting.DeerFixedParams(omega_mhz=omega, t_b_us=T_B_US,
                                    t_b_delay_us=T_A_US, amps=amps)
    est_p1, res = rnd.fit(fitting.fit_concentration_spectrum, trace,
                          [peaks[i].f_r_mhz for i in SPEC_LINES], fixed,
                          exclude_central=False, seed=seed)
    simulate_again()
    centre = peaks[2].f_r_mhz
    background = [(r.params["n_ppb"], r.params["f_r"], r.params["gamma"], a)
                  for r, a in zip(res, amps)]
    fixed5 = fitting.DeerFixedParams(omega_mhz=omega, t_b_us=T_B_US,
                                     t_b_delay_us=T_A_US,
                                     amps=P1_FIVE_LINE_AMPLITUDES)
    est_x, _ = rnd.fit(fitting.fit_central_line_two_species,
                       trace.window(centre - 16.0, centre + 12.0),
                       est_p1.value_ppb, fixed5, background=background,
                       seed=seed)
    simulate_again()
    rnd.results = {"p1": est_p1, "x": est_x,
                   "centres": [p.f_r_mhz for p in peaks]}


def check_spectrum_fit(rnd):
    field = FieldConfiguration(B0_MT, TILT_DEG, 2.0, DRIVE_MHZ)
    table = [f for f, _ in p1_line_table(field)]
    # the outer four of the five observed groups are single lines; the
    # middle two table rows merge into the central group
    outer_table = [table[0], table[1], table[4], table[5]]
    c = rnd.results["centres"]
    outer_fit = [c[0], c[1], c[3], c[4]]
    p1, x = rnd.results["p1"], rnd.results["x"]
    errors = []
    if abs(p1.value_ppb / SPEC_P1_PPB - 1.0) > 0.05:
        errors.append(f"P1 {p1.value_ppb:.1f} ppb not within 5% of "
                      f"{SPEC_P1_PPB}")
    if abs(x.value_ppb - SPEC_X_PPB) > 3.0 * x.uncertainty_ppb:
        errors.append(f"X {x.value_ppb:.2f} +- {x.uncertainty_ppb:.2f} ppb "
                      f"not within 3 sigma of {SPEC_X_PPB}")
    dev = max(abs(a - b) for a, b in zip(outer_fit, outer_table))
    rnd.note = (f"P1 {p1.value_ppb:.2f} +- {p1.uncertainty_ppb:.2f} ppb, "
                f"X {x.value_ppb:.2f} +- {x.uncertainty_ppb:.2f} ppb, "
                f"outer centres within {dev:.3f} MHz of the line table")
    if dev > LINE_TOL_MHZ:
        errors.append(f"outer line centres off the line table by "
                      f"{dev:.3f} MHz > {LINE_TOL_MHZ}")
    return errors


# ------------------------------------------------------- dynamics-spectrum

DYN_F_MIN, DYN_F_MAX, DYN_DF = 1030.0, 1060.0, 1.5
DYN_TOL = 0.02


def _dyn_concentrations(seed):
    rng = np.random.default_rng(seed)
    return float(rng.uniform(200.0, 260.0)), float(rng.uniform(10.0, 20.0))


def _dyn_simulate(rnd):
    n_p1, n_x = _dyn_concentrations(rnd.seed)
    # the propagator models zero-width members, so the model it is
    # checked against must be sharp as well
    rnd.cli("simulate", "-e", "deer-spectrum", "--engine", "dynamics",
            "--set", "ensemble.gamma_mhz=0",
            "--set", f"ensemble.n_p1_ppb={n_p1!r}",
            "--set", f"ensemble.n_x_ppb={n_x!r}",
            "--set", f"sweep.f_min_mhz={DYN_F_MIN}",
            "--set", f"sweep.f_max_mhz={DYN_F_MAX}",
            "--set", f"sweep.df_mhz={DYN_DF}")


def dynamics_spectrum(rnd):
    rnd.simulate(_dyn_simulate)


def check_dynamics_spectrum(rnd):
    n_p1, n_x = _dyn_concentrations(rnd.seed)
    cols = read_columns(rnd.path("spectrum.csv"))
    f = cols["f_b_mhz"]
    expected_f = np.arange(DYN_F_MIN, DYN_F_MAX + DYN_DF / 2, DYN_DF)
    if len(f) != len(expected_f) or np.abs(f - expected_f).max() > 1e-9:
        return ["pump grid differs from the requested sweep"]
    omega = 2.0
    field = FieldConfiguration(B0_MT, TILT_DEG, omega, DRIVE_MHZ)
    p_p1 = sum(a * rabi_flip(omega, f - fr, T_B_US)
               for fr, a in p1_line_table(field))
    p_x = rabi_flip(omega, f - x_line_frequency(field), T_B_US)
    ppb = 1e-9 * ATOMS_PER_M3
    expected = np.exp(-rate_times_window() * ppb * (n_p1 * p_p1 + n_x * p_x))
    dev = float(np.abs(cols["i_deer"] - expected).max())
    rnd.note = f"max |dI| = {dev:.2e} against the sharp-line model"
    if dev > DYN_TOL:
        return [f"max |dI| = {dev:.2e} against the sharp-line model "
                f"> {DYN_TOL}"]
    return []


# ----------------------------------------------------------- rabi-nutation

RABI_T_MAX_US, RABI_POINTS = 3.0, 121
RABI_TOL_P, RABI_TOL_F = 1e-2, 0.01


def _rabi_mhz(seed):
    return float(np.random.default_rng(seed).uniform(1.8, 2.2))


def _rabi_simulate(rnd):
    rnd.cli("simulate", "-e", "deer-rabi", "--engine", "dynamics",
            "--rabi-mhz", repr(_rabi_mhz(rnd.seed)),
            "--set", f"sweep.t_max_us={RABI_T_MAX_US}",
            "--set", f"sweep.n_points={RABI_POINTS}")


def rabi_nutation(rnd):
    rnd.simulate(_rabi_simulate)
    rnd.fit_cli("fit", "-e", "deer-rabi",
            "--rabi-mhz", repr(_rabi_mhz(rnd.seed)),
            "--data", rnd.path("rabi.csv"))


def check_rabi_nutation(rnd):
    omega = _rabi_mhz(rnd.seed)
    cols = read_columns(rnd.path("rabi.csv"))
    # the X member is driven at its own line, so the detuning is zero
    dev = float(np.abs(cols["p_flip"]
                       - rabi_flip(omega, 0.0, cols["t_us"])).max())
    f_fit = float(read_ini(rnd.path("rabi.ini"))["rabi"]["f"])
    rnd.note = (f"max |dP| = {dev:.2e} against the Rabi formula, fitted "
                f"{f_fit:.5f} MHz for {omega:.5f}")
    errors = []
    if len(cols["t_us"]) != RABI_POINTS:
        errors.append("nutation trace has the wrong number of points")
    if dev > RABI_TOL_P:
        errors.append(f"max |dP| = {dev:.2e} against the Rabi formula "
                      f"> {RABI_TOL_P}")
    if abs(f_fit / omega - 1.0) > RABI_TOL_F:
        errors.append(f"fitted Rabi frequency {f_fit:.5f} MHz not within "
                      f"1% of {omega:.5f}")
    return errors


# name -> (round, check, experiment and config overrides whose set-up
# time is measured)
WORKLOADS = {
    "spectrum-fit": (spectrum_fit, check_spectrum_fit,
                     ["deer-spectrum", f"ensemble.n_p1_ppb={SPEC_P1_PPB}"]),
    "dynamics-spectrum": (dynamics_spectrum, check_dynamics_spectrum,
                          ["deer-spectrum", "run.engine=dynamics",
                           "ensemble.gamma_mhz=0"]),
    "rabi-nutation": (rabi_nutation, check_rabi_nutation,
                      ["deer-rabi", "run.engine=dynamics"]),
}
