"""Built-in acceptance suite.

Nine end-to-end checks covering the physics oracles, the closed-form
model, the numeric propagator and the staged fit pipeline; the round
trip runs the CLI's stages (fitting.fit_deer_spectrum after a stage-two
Rabi fit).  Each check returns a CheckResult; run_all executes them in
order and the CLI selftest subcommand prints one pass/fail line per
check.  The same functions back tests/test_acceptance.py so the shipped
binary and the test suite agree on what "working" means.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .deer import (SpectrumModel, deer_signal_from_transfer,
                   detection_limit_ppb, rabi_probability)
from .dynamics import (compute_sigma, ensemble_transfer, propagate_unitary,
                       SinusoidalDrive)
from .fitting import (diffusion_coefficient, fit_deer_spectrum, fit_eseem,
                      fit_rabi_frequency)
from .hamiltonians import (apply_orientation, nv_offaxis_member, p1_ensemble,
                           static_hamiltonian, x_member)
from .photophysics import (PulseTrain, RateModelParams, ground_populations,
                           steady_state_populations)
from .spincore import FieldConfiguration, spin_operators
from .trace import SpectrumTrace

__all__ = ["CheckResult", "run_all", "ALL_CHECKS"]

FIELD = FieldConfiguration(37.2, 0.1, 2.0, 1042.0)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: str
    target: str
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self):
        flag = "PASS" if self.passed else "FAIL"
        return (f"[{flag}] {self.name:<28s} {self.value:<34s} "
                f"(target {self.target}; {self.runtime_s:.1f} s)")


def _result(name, passed, value, target, t0, **details):
    return CheckResult(name=name, passed=bool(passed), value=value,
                       target=target, runtime_s=time.time() - t0,
                       details=details)


def check_sigma():
    """Off-axis NV |2>-|3> matrix-element factor at the working field."""
    t0 = time.time()
    member = nv_offaxis_member()
    h0 = static_hamiltonian(member, FIELD)
    sigma = compute_sigma(h0, 2, 3)
    return _result("sigma off-axis NV 2-3", abs(sigma - 0.87) <= 0.01,
                   f"{sigma:.4f}", "0.87 +/- 0.01", t0, sigma=sigma)


def check_photophysics():
    """Steady-state ground-triplet polarization under pulsed readout.

    The stated target is for the off-axis NV, whose level mixing routes
    optical polarization between all three ground sublevels; the field
    is rotated into the member frame before building the rate model.
    """
    t0 = time.time()
    member = nv_offaxis_member()
    b_member, _ = apply_orientation(member.orientation, FIELD)
    train = PulseTrain(laser_on_us=5.0, period_us=160.0)
    params = RateModelParams.for_field(b_member, beta=0.03)
    pops7, n_used = steady_state_populations(params, train)
    n123 = ground_populations(pops7)
    ok = np.all(np.abs(n123 - np.array([0.40, 0.30, 0.30])) <= 0.01)
    worst = 0
    for beta in (0.001, 0.003, 0.01, 0.03, 0.1):
        p = RateModelParams.for_field(b_member, beta=beta)
        _, n_pulses = steady_state_populations(p, train, tol=1e-3)
        worst = max(worst, n_pulses)
    ok = ok and worst <= 15
    val = "(" + ", ".join(f"{x:.3f}" for x in n123) + f"), <= {worst} pulses"
    return _result("photophysics polarization", ok, val,
                   "(0.40, 0.30, 0.30) +/- 0.01, <= 15 pulses", t0,
                   populations=tuple(n123), max_pulses=worst)


def check_detection_limit():
    """Smallest concentration with 5% contrast at T_B = 100 us."""
    t0 = time.time()
    n = detection_limit_ppb(0.05, 100.0, line_amp=1.0 / 3.0)
    return _result("detection limit", abs(n / 5.0 - 1.0) <= 0.10,
                   f"{n:.2f} ppb", "5 ppb +/- 10%", t0, n_ppb=n)


def check_diffusion():
    """Vacancy-to-NV diffusion radius and coefficient chain."""
    t0 = time.time()
    # detection volume equivalent to 4.8e-2 um^3: 560 ppb sensed as 4736
    # defects fixes V = count / (n per um^3)
    out = diffusion_coefficient(n_nv_ppb=560.0, count=4736.0,
                                r_vac_nm=37.5, anneal_s=7200.0)
    ok = (abs(out["r_nv_nm"] - 226.0) <= 2.0
          and 1.1 <= out["d_nm2_per_s"] <= 1.3)
    val = f"r_nv {out['r_nv_nm']:.1f} nm, D {out['d_nm2_per_s']:.2f} nm^2/s"
    return _result("diffusion chain", ok, val,
                   "226 +/- 2 nm, D in [1.1, 1.3]", t0, **out)


def check_eseem():
    """Nuclear gyromagnetic ratio from echo-envelope modulation."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    t = np.linspace(0.5, 120.0, 400)
    f_mod = 0.1985  # MHz
    y = (np.exp(-((t / 80.0) ** 1.5))
         * (1.0 - 0.35 * np.sin(np.pi * f_mod * t) ** 2)
         + 0.004 * rng.standard_normal(len(t)))
    trace = SpectrumTrace(t, y, x_label="2 tau (us)", y_label="echo")
    info, _ = fit_eseem(trace, b0_mt=37.2)
    gamma_n = info["gamma_n_mhz_per_t"]
    return _result("eseem gyromagnetic ratio",
                   abs(gamma_n - 10.68) <= 0.05,
                   f"{gamma_n:.3f} MHz/T", "10.68 +/- 0.05 MHz/T", t0,
                   gamma_n=gamma_n)


def check_sim_vs_analytic():
    """Numeric P1 five-line spectrum vs the closed-form contrast model."""
    t0 = time.time()
    members = p1_ensemble(merge_off_axis=True)
    model = SpectrumModel(FIELD, FIELD.rabi_mhz, 0.25, 20.0)
    rows = model.lines["P1"]
    f = np.array([r[0] for r in rows])
    lo = min(f) - 12.0
    hi = max(f) + 12.0
    fgrid = np.arange(lo, hi + 0.25, 0.5)
    p_num = ensemble_transfer(members, FIELD, fgrid, 0.25)
    i_num = deer_signal_from_transfer(p_num, 200.0, 20.0)
    i_ana = model.signal(fgrid, 200.0, 0.0, lines=rows)
    dev = float(np.max(np.abs(i_num - i_ana)))
    return _result("dynamics vs analytic spectrum", dev <= 0.02,
                   f"max |dI| = {dev:.4f}", "<= 0.02", t0, max_dev=dev)


def check_rabi_oracle():
    """Lab-frame propagator vs the closed-form nutation formula."""
    t0 = time.time()
    omega, f_b, t_b = 2.0, 1042.0, 0.25
    ops = spin_operators(0.5)
    worst = 0.0
    for det in (0.0, omega, 3.0 * omega):
        f0 = f_b + det
        h0 = f0 * ops.sz
        drive = SinusoidalDrive(2.0 * omega * ops.sx, f_b)
        tgrid = np.linspace(0.0, t_b, 26)
        for t in tgrid[1:]:
            u = propagate_unitary(h0, drive, t)
            p_num = 1.0 - abs(u[0, 0]) ** 2
            p_ana = rabi_probability(omega, det, t)
            worst = max(worst, abs(p_num - p_ana))
    return _result("rabi closed-form oracle", worst < 1e-2,
                   f"max |dP| = {worst:.2e}", "< 1e-2", t0, max_dev=worst)


def check_round_trip():
    """Synthetic two-species spectrum through the CLI's staged fit."""
    t0 = time.time()
    n_p1_true, n_x_true, gamma_true = 200.0, 13.0, 1.2
    omega, t_b, t_b_delay = 2.0, 0.25, 20.0
    rng = np.random.default_rng(42)

    fgrid = np.arange(900.0, 1190.0 + 0.125, 0.25)
    y = SpectrumModel(FIELD, omega, t_b, t_b_delay).signal(
        fgrid, {"P1": n_p1_true, "X": n_x_true}, gamma_true)
    trace = SpectrumTrace(fgrid, y + 0.01 * rng.standard_normal(len(fgrid)),
                          y_err=np.full(len(fgrid), 0.01),
                          x_label="f_B (MHz)", y_label="I_DEER")

    t_r = np.linspace(0.02, 3.0, 120)
    y_r = (0.5 - 0.5 * np.exp(-t_r / 8.0) * np.cos(2 * np.pi * omega * t_r)
           + 0.01 * rng.standard_normal(len(t_r)))
    omega_fit, _ = fit_rabi_frequency(
        SpectrumTrace(t_r, y_r, x_label="t (us)", y_label="P"))

    fit = fit_deer_spectrum(trace, omega_fit, t_b, t_b_delay, field=FIELD)
    est_p1, est_x = fit.p1, fit.x

    err_p1 = abs(est_p1.value_ppb / n_p1_true - 1.0)
    err_x = abs(est_x.value_ppb / n_x_true - 1.0)
    ok = err_p1 <= 0.05 and err_x <= 0.20
    val = (f"P1 {est_p1.value_ppb:.1f} ppb ({100 * err_p1:.1f}%), "
           f"X {est_x.value_ppb:.1f} ppb ({100 * err_x:.1f}%)")
    return _result("round trip 200/13 ppb", ok, val,
                   "P1 within 5%, X within 20%", t0,
                   n_p1=est_p1.value_ppb, n_x=est_x.value_ppb)


def check_properties():
    """Quick algebra, simplex, normalization and determinism properties."""
    t0 = time.time()
    ok = True
    msgs = []

    # spin commutators [Sx, Sy] = i Sz for S = 1/2, 1, 3/2
    for s in (0.5, 1.0, 1.5):
        ops = spin_operators(s)
        comm = ops.sx @ ops.sy - ops.sy @ ops.sx
        if np.max(np.abs(comm - 1j * ops.sz)) > 1e-12:
            ok = False
            msgs.append(f"commutator S={s}")
        casimir = ops.sx @ ops.sx + ops.sy @ ops.sy + ops.sz @ ops.sz
        if np.max(np.abs(casimir - s * (s + 1) * np.eye(ops.dim))) > 1e-12:
            ok = False
            msgs.append(f"casimir S={s}")

    # propagation preserves trace and purity
    member = x_member()
    h0 = static_hamiltonian(member, FIELD)
    drive = SinusoidalDrive.for_member(member, FIELD)
    u = propagate_unitary(h0, drive, 0.2)
    if np.max(np.abs(u @ u.conj().T - np.eye(2))) > 1e-8:
        ok = False
        msgs.append("unitarity")

    # lineshape normalization: a unit-area line broadens the flip
    # probability of the bare Rabi kernel and keeps its area
    model = SpectrumModel(FIELD, 2.0, 0.25, 20.0)
    line = ((1042.0, 1.0),)
    xi = np.linspace(1042 - 1200, 1042 + 1200, 48001)
    area = (np.trapezoid(model.transfer(xi, line, 1.2), xi)
            / np.trapezoid(model.transfer(xi, line, 0.0), xi))
    if abs(area - 1.0) > 2e-3:
        ok = False
        msgs.append(f"lorentzian area {area:.4f}")

    # contrast decreases monotonically with concentration
    i_vals = [model.signal(np.array([1042.0]), n, 1.2, lines=line)[0]
              for n in (0.0, 10.0, 100.0, 1000.0)]
    if not (i_vals[0] == 1.0 and np.all(np.diff(i_vals) < 0)):
        ok = False
        msgs.append("monotonicity")

    # fit determinism
    rng = np.random.default_rng(5)
    t = np.linspace(0.02, 3.0, 90)
    y = 0.5 - 0.5 * np.cos(2 * np.pi * 2.0 * t) * np.exp(-t / 6.0)
    yn = y + 0.01 * rng.standard_normal(len(t))
    tr = SpectrumTrace(t, yn, x_label="t", y_label="P")
    w1, _ = fit_rabi_frequency(tr)
    w2, _ = fit_rabi_frequency(tr)
    if w1 != w2:
        ok = False
        msgs.append("determinism")

    val = "all properties hold" if ok else "; ".join(msgs)
    return _result("property suite", ok, val, "all pass", t0)


ALL_CHECKS = (
    ("sigma", check_sigma),
    ("photophysics", check_photophysics),
    ("detection-limit", check_detection_limit),
    ("diffusion", check_diffusion),
    ("eseem", check_eseem),
    ("spectrum-agreement", check_sim_vs_analytic),
    ("rabi-oracle", check_rabi_oracle),
    ("round-trip", check_round_trip),
    ("properties", check_properties),
)


def run_all(names=None, printer=None):
    """Run the acceptance checks (all, or the named subset) in order."""
    selected = ALL_CHECKS if not names else tuple(
        (n, f) for n, f in ALL_CHECKS if n in set(names))
    if names and len(selected) != len(set(names)):
        known = ", ".join(n for n, _ in ALL_CHECKS)
        raise ValueError(f"unknown check name; known checks: {known}")
    results = []
    for _, func in selected:
        res = func()
        results.append(res)
        if printer is not None:
            printer(res.line())
    return results
