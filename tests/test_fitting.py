import warnings

import numpy as np
import pytest

from nvdeer import (DeerFixedParams, FieldConfiguration, LorentzianPeak,
                    P1_FIVE_LINE_AMPLITUDES, SpectrumModel,
                    SpectrumTrace, aggregate_estimates, diffusion_coefficient,
                    epr_concentration, epr_double_integral,
                    fit_central_line_two_species, fit_concentration_spectrum,
                    fit_deer_decay, fit_eseem, fit_hahn_decay,
                    fit_lorentzian_peaks, fit_rabi_frequency, fit_saturation,
                    p1_line_table, population_transfer, simulate_rabi,
                    x_line_frequency, x_member)
from nvdeer import constants as c
from nvdeer import fitting
from nvdeer.errors import DataError, DataQualityWarning, FitError, FitWarning
from quad_reference import transfer_reference

OMEGA = 2.0
T_B = 0.25
T_B_DELAY = 20.0


def make_fixed(amps):
    return DeerFixedParams(omega_mhz=OMEGA, t_b_us=T_B,
                           t_b_delay_us=T_B_DELAY, amps=tuple(amps))


def contrast_trace(f_grid, rows, transfer=population_transfer):
    """exp(-C T_B sum_i n_i P_i(f)) for rows of (n_ppb, f_r, gamma, amp),
    with P from `transfer` (population_transfer or the quad reference)."""
    rate_tb = c.dipolar_rate_constant(0.5) * T_B_DELAY * c.US_TO_S
    expo = np.zeros_like(f_grid)
    for n_ppb, f_r, g_r, amp in rows:
        p = transfer([LorentzianPeak(f_r, g_r, amp)], OMEGA, f_grid, T_B)
        expo = expo + rate_tb * c.ppb_to_per_m3(n_ppb) * p
    return SpectrumTrace(f_grid, np.exp(-expo), x_label="f_B (MHz)",
                         y_label="I")


# ------------------------------------------------------ Lorentzian stage

def test_single_dip_noiseless_exact():
    x = np.arange(980.0, 1020.0, 0.1)
    y = 1.0 - 0.3 * 2.0**2 / (2.0**2 + (x - 1000.0) ** 2)
    peaks, res = fit_lorentzian_peaks(SpectrumTrace(x, y), 1)
    assert abs(res.params["c0"] - 1.0) < 1e-6
    assert abs(res.params["f_0"] - 1000.0) < 1e-6
    assert abs(res.params["gamma_0"] - 2.0) < 1e-6
    assert abs(res.params["depth_0"] - 0.3) < 1e-6
    assert res.residual_norm < 1e-8
    assert peaks[0].amp == pytest.approx(1.0)
    # the solver's counts of the winning start are kept
    assert 1 <= res.njev <= res.nfev


def test_five_dips_with_noise(rng):
    field = FieldConfiguration(37.2, 0.1, OMEGA, 1042.0)
    rows = p1_line_table(field)
    f = np.array([r[0] for r in rows])
    a = np.array([r[1] for r in rows])
    i_mid = np.argsort(np.abs(f - np.median(f)))[:2]
    centers = np.sort(np.r_[np.delete(f, i_mid),
                            np.average(f[i_mid], weights=a[i_mid])])
    x = np.arange(900.0, 1190.0, 0.5)
    y = np.ones_like(x)
    for f_c in centers:
        y -= 0.12 * 1.5**2 / (1.5**2 + (x - f_c) ** 2)
    y += 0.01 * rng.standard_normal(len(x))
    peaks, _ = fit_lorentzian_peaks(SpectrumTrace(x, y), 5)
    fitted = np.array([p.f_r_mhz for p in peaks])
    assert np.all(np.abs(fitted - centers) < 0.5)


def test_flat_trace_is_rejected():
    x = np.arange(900.0, 1190.0, 0.5)
    with pytest.raises(FitError):
        fit_lorentzian_peaks(SpectrumTrace(x, np.ones_like(x)), 5)


def test_too_few_points_rejected():
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError):
        fit_lorentzian_peaks(SpectrumTrace(x, np.ones_like(x)), 3)


# ------------------------------------------------------------------ Rabi

def test_rabi_frequency_recovery(rng):
    t = np.linspace(0.02, 2.0, 150)
    y = 0.5 - 0.5 * np.exp(-t / 6.0) * np.cos(2 * np.pi * 2.5 * t)
    y += 0.005 * rng.standard_normal(len(t))
    omega, res = fit_rabi_frequency(SpectrumTrace(t, y))
    assert abs(omega / 2.5 - 1.0) < 0.01
    assert res.params["t_pi"] == 1.0 / (2.0 * res.params["f"])
    assert res.std_errors["t_pi"] > 0


def test_rabi_determinism(rng):
    t = np.linspace(0.02, 2.0, 120)
    y = 0.5 - 0.5 * np.cos(2 * np.pi * 2.0 * t)
    y += 0.01 * rng.standard_normal(len(t))
    trace = SpectrumTrace(t, y)
    o1, r1 = fit_rabi_frequency(trace, seed=3)
    o2, r2 = fit_rabi_frequency(trace, seed=3)
    assert o1 == o2
    assert r1.params == r2.params


def test_rabi_noiseless_dynamics_fit_does_not_warn(field):
    # an undamped nutation stops at its decay rate's bound k = 0; that
    # bound must not read as an ill-conditioned fit
    f = field.replace(drive_freq_mhz=x_line_frequency(field))
    trace = simulate_rabi(x_member(), f, np.linspace(0.02, 3.0, 121))
    with warnings.catch_warnings():
        warnings.simplefilter("error", FitWarning)
        omega, _ = fit_rabi_frequency(trace)
    assert omega == pytest.approx(field.rabi_mhz, rel=1e-3)


def test_rabi_undamped_rate_stops_at_zero(field, starts):
    # the decay rate of an undamped nutation stops at its bound k = 0 in a
    # few evaluations, instead of walking a decay time towards infinity
    f = field.replace(drive_freq_mhz=x_line_frequency(field))
    trace = simulate_rabi(x_member(), f, np.linspace(0.02, 3.0, 121))
    _, res = fit_rabi_frequency(trace)
    assert 0.0 <= res.params["k_per_us"] <= 1e-5
    assert len(starts) == 1 and res.nfev <= 25


def test_rabi_phase_pi_one_start(rng, starts):
    # a nutation (1 - cos)/2 has phi = pi; the FFT phase seeds it, so one
    # start converges and phi is reported wrapped into (-pi, pi]
    t = np.linspace(0.02, 3.0, 121)
    y = 0.5 - 0.5 * np.cos(2 * np.pi * 2.0 * t)
    err = np.full(len(t), 0.01)
    omega, res = fit_rabi_frequency(
        SpectrumTrace(t, y + 0.01 * rng.standard_normal(len(t)), y_err=err))
    assert len(starts) == 1
    assert res.converged
    assert abs(omega - 2.0) < 3.0 * res.std_errors["f"]
    assert -np.pi < res.params["phi"] <= np.pi
    assert abs(abs(res.params["phi"]) - np.pi) < 0.05


def test_rabi_constant_trace_fails():
    t = np.linspace(0.0, 2.0, 60)
    with pytest.raises(FitError):
        fit_rabi_frequency(SpectrumTrace(t, np.full_like(t, 0.4)))


def test_rabi_too_short_span_fails():
    t = np.linspace(0.0, 0.5, 40)
    y = 0.5 - 0.5 * np.cos(2 * np.pi * 2.0 * t)
    with pytest.raises(ValueError):
        fit_rabi_frequency(SpectrumTrace(t, y))


# ------------------------------------------- stage-three concentrations

THREE_CENTERS = (961.0, 1049.0, 1133.0)
THREE_AMPS = (0.25, 1.0 / 3.0, 0.25)


def three_line_trace(n_ppb, gamma=1.2, shift=0.0,
                     transfer=population_transfer):
    f = np.arange(940.0, 1160.0, 0.25) + shift
    rows = [(n_ppb, f_c + shift, gamma, a)
            for f_c, a in zip(THREE_CENTERS, THREE_AMPS)]
    return contrast_trace(f, rows, transfer)


@pytest.fixture(scope="module")
def baseline_fit():
    """One noiseless three-line staged fit, shared by several tests."""
    return fit_concentration_spectrum(three_line_trace(150.0), THREE_CENTERS,
                                      make_fixed(THREE_AMPS))


def test_concentration_noiseless_recovery(baseline_fit):
    """Staged fit on noiseless data: parameters recovered to ~1e-3.

    The residual floor is set by the neighbor-wing coupling between the
    per-peak windows (Lorentzian tails never vanish), so this is a
    parameter-recovery bound, not a machine-minimum one; the kernel-level
    machine minimum is asserted separately with an exact background.
    """
    est, results = baseline_fit
    trace = three_line_trace(150.0)
    for r, f_true in zip(results, THREE_CENTERS):
        assert r.residual_norm < 1e-3 * np.linalg.norm(trace.y)
        assert abs(r.params["n_ppb"] - 150.0) < 0.05
        assert abs(r.params["gamma"] - 1.2) < 2e-3
        assert abs(r.params["f_r"] - f_true) < 1e-3
    assert est.value_ppb == pytest.approx(150.0, abs=0.05)


def test_concentration_excludes_central_structurally(baseline_fit):
    est, results = baseline_fit
    assert len(results) == 3
    assert len(est.per_peak_values) == 2
    assert est.per_peak_values == [results[0].params["n_ppb"],
                                   results[2].params["n_ppb"]]


def test_concentration_shift_invariance(baseline_fit):
    est0, _ = baseline_fit
    shifted = [f + 37.0 for f in THREE_CENTERS]
    est1, _ = fit_concentration_spectrum(
        three_line_trace(150.0, shift=37.0), shifted,
        make_fixed(THREE_AMPS))
    assert est1.value_ppb == pytest.approx(est0.value_ppb, rel=1e-6)


def test_concentration_adaptive_generated():
    # generated with the adaptive theta-split quad reference, fitted with
    # the Fourier operator: the operator's error moves the estimate by
    # ~4e-5 (the staged windows alone by 6e-7)
    trace = three_line_trace(150.0, transfer=transfer_reference)
    est, _ = fit_concentration_spectrum(
        trace, THREE_CENTERS, make_fixed(THREE_AMPS))
    assert est.value_ppb == pytest.approx(150.0, rel=2e-4)


def test_concentration_zero_is_zero():
    f = np.arange(940.0, 1160.0, 0.25)
    trace = SpectrumTrace(f, np.ones_like(f))
    est, _ = fit_concentration_spectrum(
        trace, THREE_CENTERS, make_fixed(THREE_AMPS))
    assert est.value_ppb < 0.5


def test_concentration_amp_count_mismatch():
    trace = three_line_trace(150.0)
    with pytest.raises(ValueError):
        fit_concentration_spectrum(trace, THREE_CENTERS,
                                   make_fixed((0.25, 0.25)))


# -------------------------------------------------- central two-species

DEFAULT_FIELD = FieldConfiguration(37.2, 0.1, OMEGA, 1042.0)
X_F = x_line_frequency(DEFAULT_FIELD)


def central_rows(n_p1, n_x, gamma=1.2, field=DEFAULT_FIELD):
    """The physical central P1 pair (the two middle rows of the line
    table) and the X line, placed by the field."""
    rows = [(n_p1, f, gamma, a) for f, a in p1_line_table(field)[2:4]]
    if n_x > 0:
        rows.append((n_x, x_line_frequency(field), gamma, 1.0))
    return rows


def central_trace(n_p1, n_x, gamma=1.2):
    return contrast_trace(np.arange(1025.0, 1070.0, 0.25),
                          central_rows(n_p1, n_x, gamma))


def test_central_two_species_recovery():
    trace = central_trace(200.0, 13.0)
    est, res = fit_central_line_two_species(trace, 200.0, make_fixed([0.25]))
    assert est.species == "X"
    assert est.value_ppb == pytest.approx(13.0, rel=0.05)
    assert abs(res.params["f_x"] - X_F) < 0.3
    assert res.params["gamma_x"] == res.params["gamma_central"]
    assert not est.is_upper_bound


def test_central_absent_x_reported_as_bound():
    trace = central_trace(200.0, 0.0)
    est, _ = fit_central_line_two_species(trace, 200.0, make_fixed([0.25]))
    assert est.value_ppb < 1.0


def test_central_machine_minimum_with_exact_background():
    """With the true neighbor row supplied, the fit hits its exact minimum."""
    f = np.arange(1025.0, 1070.0, 0.25)
    neighbor = (200.0, 1132.7, 1.2, 0.25)
    trace = contrast_trace(f, central_rows(200.0, 13.0) + [neighbor])
    est, res = fit_central_line_two_species(trace, 200.0, make_fixed([0.25]),
                                            background=[neighbor])
    assert res.residual_norm < 1e-10 * np.linalg.norm(trace.y)
    assert est.value_ppb == pytest.approx(13.0, rel=1e-6)


def test_central_p1_error_makes_no_x():
    # X-free data with n_P1 set 10% low or high: the shared width and
    # the tied X position leave no freedom to turn the mismatch into X
    trace = central_trace(200.0, 0.0)
    for n_p1_fit in (180.0, 220.0):
        est, _ = fit_central_line_two_species(trace, n_p1_fit,
                                              make_fixed([0.25]))
        assert est.value_ppb < 1.0, n_p1_fit


def test_central_absent_x_at_its_bound():
    # noiseless X-free data with the true n_P1: trf stops ~1e-3 ppb short
    # of n_X = 0, where the residual it leaves makes that a 7 sigma X;
    # the bound fits better and is reported
    trace = central_trace(200.0, 0.0)
    est, _ = fit_central_line_two_species(trace, 200.0, make_fixed([0.25]))
    assert est.value_ppb == 0.0
    assert est.uncertainty_ppb > 0 and est.is_upper_bound


def test_concentration_central_pair_backfit():
    # noiseless P1 spectrum of the six table rows: with the middle peak
    # fitted as the field's central pair and the passes run to
    # convergence every line returns 230 ppb
    f = np.arange(900.0, 1190.25, 0.5)
    rows = [(230.0, fr, 1.2, a) for fr, a in p1_line_table(DEFAULT_FIELD)]
    trace = contrast_trace(f, rows)
    seeds = [fr for _, fr, _, _ in rows]
    seeds = seeds[:2] + [sum(seeds[2:4]) / 2] + seeds[4:]
    fixed = make_fixed(P1_FIVE_LINE_AMPLITUDES)
    est, res = fit_concentration_spectrum(trace, seeds, fixed,
                                          field=DEFAULT_FIELD)
    np.testing.assert_allclose([r.params["n_ppb"] for r in res], 230.0,
                               rtol=1e-6)


def test_central_field_moves_the_lines():
    # data made at another field are fitted with that field's pair and
    # X position
    field = DEFAULT_FIELD.replace(b0_mag_mt=36.0)
    trace = contrast_trace(np.arange(990.0, 1040.0, 0.25),
                           central_rows(200.0, 13.0, field=field))
    est, res = fit_central_line_two_species(trace, 200.0, make_fixed([0.25]),
                                            field=field)
    assert est.value_ppb == pytest.approx(13.0, rel=1e-4)
    assert res.params["f_x"] == pytest.approx(x_line_frequency(field),
                                              abs=1e-4)


# ------------------------------------------------------------ DEER decay

def decay_trace(n_ppb, p_b, t, noise=0.0, rng=None):
    rate = c.dipolar_rate_constant(0.5)
    y = np.exp(-rate * c.ppb_to_per_m3(n_ppb) * p_b * t * c.US_TO_S)
    err = None
    if noise > 0:
        y = y + noise * rng.standard_normal(len(t))
        err = np.full(len(t), noise)
    return SpectrumTrace(t, y, y_err=err)


def test_decay_concentration_recovery(rng):
    t = np.linspace(5.0, 300.0, 30)
    trace = decay_trace(100.0, 0.2, t, noise=0.01, rng=rng)
    est, _ = fit_deer_decay(trace, 0.2)
    assert est.method == "decay"
    assert est.value_ppb == pytest.approx(100.0, rel=0.03)


def test_decay_zero_p_b_fails():
    t = np.linspace(5.0, 300.0, 20)
    with pytest.raises(FitError):
        fit_deer_decay(decay_trace(100.0, 0.2, t), 0.0)


def test_decay_needs_eight_points():
    t = np.linspace(5.0, 300.0, 6)
    with pytest.raises(ValueError):
        fit_deer_decay(decay_trace(100.0, 0.2, t), 0.2)


def test_decay_methods_agree_with_spectrum(baseline_fit):
    # same underlying concentration through both estimators
    t = np.linspace(5.0, 300.0, 30)
    est_d, _ = fit_deer_decay(decay_trace(150.0, 0.2, t), 0.2)
    est_s, _ = baseline_fit
    assert est_d.value_ppb == pytest.approx(est_s.value_ppb, rel=1e-3)


def test_std_errors_scale_inverse_sqrt_n():
    """Reported standard errors follow the 1/sqrt(N) law."""
    rng = np.random.default_rng(99)
    errs = {}
    for n_pts in (16, 64):
        t = np.linspace(5.0, 300.0, n_pts)
        collected = []
        for _ in range(100):
            trace = decay_trace(100.0, 0.2, t, noise=0.01, rng=rng)
            _, res = fit_deer_decay(trace, 0.2)
            collected.append(res.std_errors["n_ppb"])
        errs[n_pts] = np.mean(collected)
    exponent = np.log(errs[16] / errs[64]) / np.log(64 / 16)
    assert abs(exponent - 0.5) < 0.1


# ------------------------------------------------------------ decays/mod

def test_hahn_stretched_exponential(rng):
    t = np.linspace(2.0, 700.0, 60)
    y = np.exp(-np.power(t / 313.0, 1.80))
    y += 0.02 * rng.standard_normal(len(t))
    res = fit_hahn_decay(SpectrumTrace(t, y))
    assert abs(res.params["t2_us"] - 313.0) < 5.0
    assert abs(res.params["n"] - 1.80) < 0.07


def test_hahn_pure_exponential():
    t = np.linspace(1.0, 500.0, 50)
    res = fit_hahn_decay(SpectrumTrace(t, np.exp(-t / 100.0)))
    assert res.params["n"] == pytest.approx(1.0, abs=1e-4)
    assert res.params["t2_us"] == pytest.approx(100.0, rel=1e-6)


def test_eseem_gyromagnetic_ratio(rng):
    t = np.linspace(0.3, 14.0, 200)
    env = np.exp(-np.power(t / 8.0, 1.5))
    y = env * (1.0 - 0.35 * np.sin(np.pi * 0.1985 * t) ** 2)
    y += 0.004 * rng.standard_normal(len(t))
    info, _ = fit_eseem(SpectrumTrace(t, y), 37.2)
    assert abs(info["gamma_n_mhz_per_t"] - 10.68) < 0.03
    assert abs(info["f_mhz"] - 0.1985) < 0.001


def test_eseem_field_linearity():
    # doubling the field doubles the modulation frequency at fixed gamma_n
    gamma_ref = None
    for b0, f_mod in ((37.2, 0.1985), (74.4, 0.3970)):
        t = np.linspace(0.3, 14.0, 220)
        env = np.exp(-np.power(t / 8.0, 1.5))
        y = env * (1.0 - 0.35 * np.sin(np.pi * f_mod * t) ** 2)
        info, _ = fit_eseem(SpectrumTrace(t, y), b0)
        if gamma_ref is None:
            gamma_ref = info["gamma_n_mhz_per_t"]
        else:
            assert info["gamma_n_mhz_per_t"] == pytest.approx(gamma_ref,
                                                              rel=1e-6)


# ------------------------------------------------------------ saturation

def test_saturation_recovery(rng):
    p = np.linspace(0.0, 2.0, 30)
    y = 100.0 * p / (p + 1.0) + 3.0 * 0.03 * rng.standard_normal(len(p))
    res = fit_saturation(SpectrumTrace(p, y))
    assert abs(res.params["f_sat"] / 100.0 - 1.0) < 0.05
    assert abs(res.params["p_sat"] / 1.0 - 1.0) < 0.05


def test_saturation_warns_when_underpowered():
    p = np.linspace(0.0, 0.3, 20)
    y = 100.0 * p / (p + 1.0)
    with pytest.warns(FitWarning):
        fit_saturation(SpectrumTrace(p, y))


# ----------------------------------------------------- derived quantities

def test_diffusion_chain_reference_numbers():
    out = diffusion_coefficient(560.0, 4736.0, 37.5, 7200.0)
    assert out["v_nv_um3"] == pytest.approx(4.8e-2, rel=1e-2)
    assert out["r_nv_nm"] == pytest.approx(225.4, abs=0.5)
    assert out["d_rms_nm"] == pytest.approx(222.3, abs=0.5)
    assert 1.1 <= out["d_nm2_per_s"] <= 1.3


def test_diffusion_time_linearity():
    d1 = diffusion_coefficient(560.0, 4736.0, 37.5, 3600.0)
    d2 = diffusion_coefficient(560.0, 4736.0, 37.5, 7200.0)
    assert d1["d_nm2_per_s"] == pytest.approx(2.0 * d2["d_nm2_per_s"])


def test_diffusion_rejects_shrunken_volume():
    with pytest.raises(DataError):
        diffusion_coefficient(560.0, 0.1, 37.5, 7200.0)
    with pytest.raises(ValueError):
        diffusion_coefficient(-1.0, 4736.0, 37.5, 7200.0)


def test_epr_double_integral_gaussian():
    x = np.linspace(300.0, 380.0, 801)
    s = 4.0
    absorb = 3.0 * np.exp(-((x - 340.0) ** 2) / (2 * s**2))
    deriv = np.gradient(absorb, x) + 2e-5 * (x - 340.0) + 1e-4
    di = epr_double_integral(x, deriv)
    assert di == pytest.approx(3.0 * s * np.sqrt(2 * np.pi), rel=1e-3)


def test_epr_double_integral_warns_on_drift():
    x = np.linspace(300.0, 380.0, 801)
    absorb = 3.0 * np.exp(-((x - 340.0) ** 2) / 32.0)
    deriv = np.gradient(absorb, x) + 0.01 * np.sin((x - 300) / 8.0)
    with pytest.warns(DataQualityWarning):
        epr_double_integral(x, deriv)


def test_epr_concentration_ratio():
    assert epr_concentration(1.0, 10.0, 1.0, 10.0, 68.0) == \
        pytest.approx(68.0e3)
    assert epr_concentration(0.0, 11.0, 1.0, 50.7, 68.0) == 0.0
    di = 22.0 * 11.0 / (68.0e3 * 50.7)
    assert epr_concentration(di, 11.0, 1.0, 50.7, 68.0) == \
        pytest.approx(22.0, rel=1e-9)
    with pytest.raises(ValueError):
        epr_concentration(1.0, 11.0, 0.0, 50.7, 68.0)


# ------------------------------------------------------------ aggregation

def test_aggregate_plain():
    mean, std = aggregate_estimates([10.0, 12.0, 14.0])
    assert mean == pytest.approx(12.0)
    assert std == pytest.approx(2.0)


def test_aggregate_weighted():
    mean, err = aggregate_estimates([10.0, 12.0], [1.0, 2.0])
    assert mean == pytest.approx(10.4)
    assert err == pytest.approx(np.sqrt(1.0 / 1.25))


def test_aggregate_scatter_floor():
    # discrepant values with tiny stated errors: scatter dominates
    mean, err = aggregate_estimates([10.0, 20.0], [0.1, 0.1])
    assert mean == pytest.approx(15.0)
    assert err == pytest.approx(5.0)


def test_aggregate_fallback_on_bad_errors():
    mean, std = aggregate_estimates([10.0, 20.0], [0.1, 0.0])
    assert mean == pytest.approx(15.0)
    assert std == pytest.approx(np.std([10.0, 20.0], ddof=1))


def test_aggregate_needs_two():
    with pytest.raises(ValueError):
        aggregate_estimates([10.0])


# --------------------------------------------------- analytic Jacobians

def three_point_jacobian(model, x, p, rel_step=1e-7):
    """Central ('3-point') finite differences of model(x, p)[0], the
    reference for the analytic Jacobians.  The step is smaller than
    least_squares' default: the Gauss-rule sums change fast in gamma
    through the tan(theta) ~ 1e4 of the outermost nodes."""
    p = np.asarray(p, dtype=float)
    cols = []
    for j in range(len(p)):
        step = np.zeros_like(p)
        step[j] = rel_step * max(1.0, abs(p[j]))
        cols.append((model(x, p + step)[0] - model(x, p - step)[0])
                    / (2.0 * step[j]))
    return np.column_stack(cols)


@pytest.fixture
def fit_models(monkeypatch):
    """(names, model, x, start, fitted params) of every _run_fit call."""
    seen = []
    run_fit = fitting._run_fit

    def recording(model, x, y, sigma, p0, names, **kwargs):
        res = run_fit(model, x, y, sigma, p0, names, **kwargs)
        seen.append((tuple(names), model, x, np.asarray(p0, dtype=float),
                     np.array([res.params[n] for n in names])))
        return res

    monkeypatch.setattr(fitting, "_run_fit", recording)
    return seen


def _dips(rng):
    x = np.arange(980.0, 1020.0, 0.1)
    y = (1.0 - 0.3 * 2.0**2 / (2.0**2 + (x - 995.0) ** 2)
         - 0.2 * 1.5**2 / (1.5**2 + (x - 1006.0) ** 2))
    fit_lorentzian_peaks(SpectrumTrace(x, y + 0.01 * rng.standard_normal(
        len(x))), 2)


def _rabi(rng):
    t = np.linspace(0.02, 2.0, 150)
    y = 0.5 - 0.5 * np.exp(-t / 6.0) * np.cos(2 * np.pi * 2.5 * t)
    fit_rabi_frequency(SpectrumTrace(t, y + 0.005 * rng.standard_normal(
        len(t))))


def _per_line(rng):
    # first pass with a free baseline, second with the neighbours'
    # background and the baseline pinned
    trace = three_line_trace(150.0)
    noisy = SpectrumTrace(trace.x, trace.y + 0.002 * rng.standard_normal(
        len(trace)))
    fit_concentration_spectrum(noisy, THREE_CENTERS, make_fixed(THREE_AMPS))


def _five_groups(rng):
    # the middle peak as the field's central pair: the one stage-three
    # input that puts a two-line group through the Jacobian
    f = np.arange(900.0, 1190.25, 0.5)
    rows = [(230.0, fr, 1.2, a) for fr, a in p1_line_table(DEFAULT_FIELD)]
    trace = contrast_trace(f, rows)
    noisy = SpectrumTrace(f, trace.y + 0.002 * rng.standard_normal(len(f)))
    seeds = [fr for _, fr, _, _ in rows]
    seeds = seeds[:2] + [sum(seeds[2:4]) / 2] + seeds[4:]
    fit_concentration_spectrum(noisy, seeds,
                               make_fixed(P1_FIVE_LINE_AMPLITUDES),
                               field=DEFAULT_FIELD)


def _central(rng):
    trace = central_trace(200.0, 13.0)
    noisy = SpectrumTrace(trace.x, trace.y + 0.002 * rng.standard_normal(
        len(trace)))
    fit_central_line_two_species(noisy, 200.0, make_fixed([0.25]))
    fit_central_line_two_species(noisy, 200.0, make_fixed([0.25]),
                                 background=[(200.0, 1060.0, 1.2, 0.25)])


def _decay(rng):
    t = np.linspace(5.0, 300.0, 30)
    fit_deer_decay(decay_trace(100.0, 0.2, t, noise=0.01, rng=rng), 0.2)


def _hahn(rng):
    # starts at t = 0, where the n derivative of (t/T2)^n is set to 0
    t = np.linspace(0.0, 700.0, 60)
    y = np.exp(-np.power(t / 313.0, 1.80))
    fit_hahn_decay(SpectrumTrace(t, y + 0.02 * rng.standard_normal(len(t))))


def _eseem(rng):
    t = np.linspace(0.3, 14.0, 200)
    y = np.exp(-np.power(t / 8.0, 1.5)) * (
        1.0 - 0.35 * np.sin(np.pi * 0.1985 * t) ** 2)
    fit_eseem(SpectrumTrace(t, y + 0.004 * rng.standard_normal(len(t))),
              37.2)


def _saturation(rng):
    p = np.linspace(0.0, 2.0, 30)
    y = 100.0 * p / (p + 1.0) + 0.1 * rng.standard_normal(len(p))
    fit_saturation(SpectrumTrace(p, y))


@pytest.mark.parametrize("run", [_dips, _rabi, _per_line, _five_groups,
                                 _central, _decay, _hahn, _eseem,
                                 _saturation],
                         ids=lambda f: f.__name__.strip("_"))
def test_analytic_jacobian_matches_three_point(run, fit_models, rng):
    run(rng)
    assert fit_models
    for names, model, x, start, fitted in fit_models:
        for p in (start, fitted):
            jac = model(x, p)[1]
            ref = three_point_jacobian(model, x, p)
            assert jac.shape == (len(x), len(names))
            scale = np.abs(ref).max(axis=0)
            assert np.all(scale > 0), names
            np.testing.assert_array_less(np.abs(jac - ref).max(axis=0),
                                         1e-6 * scale, err_msg=str(names))


def test_line_jacobian_zero_where_transfer_clips():
    # a line of area 1.5 under a pi pulse: before the clip P > 1 on
    # resonance, so there its flip probability and slopes are flat; a
    # second species 3 MHz away keeps the spectrum's own slopes alive
    model = SpectrumModel(DEFAULT_FIELD, OMEGA, T_B, T_B_DELAY)
    lines = [((1000.0, 1.5),), ((1003.0, 0.5),)]
    f = np.array([1000.0, 1001.5, 1004.0])

    def signal(x, q, jac=False):
        # q = (shift, width, n_1, n_2)
        return model.signal(x, list(q[2:]), q[1], q[0], lines, jac=jac)

    q = np.array([0.0, 0.3, 150.0, 40.0])
    i, slopes = signal(f, q, jac=True)
    np.testing.assert_array_equal(i, signal(f, q))
    p = model.transfer(f, lines[0], 0.3)
    assert p[0] == 1.0 and np.all(p[1:] < 1.0)
    # where it clips, the first line adds nothing to the shift and width
    # slopes: they are those of the second line alone
    alone = signal(f, np.array([0.0, 0.3, 0.0, 40.0]), jac=True)[1]
    np.testing.assert_array_equal(slopes[0, :2], alone[0, :2])
    assert np.all(slopes[1:, :2] != alone[1:, :2])

    ref = three_point_jacobian(lambda x, v: (signal(x, v), None), f, q)
    scale = np.abs(ref).max(axis=0)
    assert np.all(scale > 0)
    np.testing.assert_array_less(
        np.abs(slopes * i[:, None] - ref).max(axis=0), 1e-6 * scale)
    # ... where the first line alone is flat in shift and width
    def one(x, v, jac=False):
        return model.signal(x, v[2], v[1], v[0], lines[0], jac=jac)

    ref_one = three_point_jacobian(lambda x, v: (one(x, v), None), f, q[:3])
    assert np.all(ref_one[0, :2] == 0.0)
    assert np.all(one(f, q[:3], jac=True)[1][0, :2] == 0.0)
