import numpy as np
import pytest

from nvdeer import (DeerModelParams, LorentzianPeak, LorentzianPeakSet,
                    P1_FIVE_LINE_AMPLITUDES, deer_signal,
                    deer_signal_from_transfer, detection_limit_ppb,
                    lorentzian, normalize_signal, population_transfer,
                    rabi_probability)
from nvdeer import constants as c


def test_five_line_amplitudes():
    amps = np.array(P1_FIVE_LINE_AMPLITUDES)
    assert amps.sum() == pytest.approx(1.0)
    assert amps[2] == pytest.approx(1.0 / 3.0)
    assert amps[0] == amps[4] == pytest.approx(1.0 / 12.0)


def test_lorentzian_unit_area():
    peaks = [LorentzianPeak(100.0, 2.0, 0.6), LorentzianPeak(140.0, 0.5, 0.4)]
    x = np.linspace(-4000.0, 4000.0, 400001)
    area = np.trapezoid(lorentzian(peaks, x), x)
    assert area == pytest.approx(1.0, abs=2e-3)


def test_lorentzian_peak_validation():
    with pytest.raises(ValueError):
        LorentzianPeak(100.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        LorentzianPeak(100.0, 1.0, -0.5)


def test_peak_set_normalization_enforced():
    with pytest.raises(ValueError):
        LorentzianPeakSet([LorentzianPeak(1.0, 1.0, 0.5),
                           LorentzianPeak(2.0, 1.0, 0.4)])
    ok = LorentzianPeakSet([LorentzianPeak(1.0, 1.0, 0.5),
                            LorentzianPeak(2.0, 1.0, 0.5)])
    assert len(list(ok)) == 2


def test_rabi_probability_closed_form():
    omega = 2.0
    # resonant pi pulse flips completely
    assert rabi_probability(omega, 0.0, 0.5 / omega) == pytest.approx(1.0)
    # generalized Rabi frequency off resonance
    det = 2.0 * omega
    g = np.hypot(omega, det)
    t = 0.5 / g
    assert rabi_probability(omega, det, t) == pytest.approx(
        omega**2 / g**2)
    # never exceeds the Lorentzian power-broadening envelope
    t_grid = np.linspace(0.0, 3.0, 301)
    p = rabi_probability(omega, det, t_grid)
    assert np.all(p <= omega**2 / g**2 + 1e-12)


def test_population_transfer_delta_limit():
    # a zero-width line reduces the convolution to the bare flip formula
    omega, t_b = 2.0, 0.25
    f = np.linspace(1030.0, 1054.0, 49)
    peaks = [LorentzianPeak(1042.0, 0.0, 1.0)]
    p = population_transfer(peaks, omega, f, t_b)
    expected = rabi_probability(omega, f - 1042.0, t_b)
    assert np.allclose(p, expected, atol=1e-12)


def test_population_transfer_quadrature_paths_agree():
    omega, t_b = 2.0, 0.25
    f = np.linspace(1020.0, 1064.0, 89)
    peaks = [LorentzianPeak(1042.0, 1.2, 0.7),
             LorentzianPeak(1035.0, 2.5, 0.3)]
    p_ref = population_transfer(peaks, omega, f, t_b, method="adaptive")
    p_fast = population_transfer(peaks, omega, f, t_b, method="gauss")
    assert np.max(np.abs(p_ref - p_fast)) < 5e-4


def test_population_transfer_bounded():
    omega, t_b = 2.0, 0.25
    f = np.linspace(900.0, 1190.0, 581)
    peaks = [LorentzianPeak(1042.0, 1.2, 1.0)]
    p = population_transfer(peaks, omega, f, t_b)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_deer_signal_zero_concentration_flat():
    peaks = LorentzianPeakSet([LorentzianPeak(1042.0, 1.2, 1.0)])
    params = DeerModelParams(peaks=peaks, n_b_ppb=0.0, t_b_delay_us=20.0,
                             omega_mhz=2.0, t_b_us=0.25)
    f = np.linspace(1020.0, 1064.0, 45)
    assert np.all(deer_signal(params, f) == 1.0)


def test_deer_signal_monotone_in_concentration():
    p_b = 0.3
    vals = [deer_signal_from_transfer(p_b, n, 20.0)
            for n in (0.0, 1.0, 10.0, 100.0, 1000.0)]
    assert vals[0] == 1.0
    assert np.all(np.diff(vals) < 0.0)


def test_deer_signal_monotone_in_delay():
    vals = [deer_signal_from_transfer(0.3, 100.0, t) for t in
            (1.0, 10.0, 50.0, 200.0)]
    assert np.all(np.diff(vals) < 0.0)


def test_deer_signal_several_species_multiply():
    # species sharing sigma_B add in the exponent, so their contrasts
    # multiply; a delay array gives a decay
    p1, p2 = np.array([0.1, 0.3]), np.array([0.2, 0.05])
    both = deer_signal_from_transfer([p1, p2], [200.0, 15.0], 20.0)
    apart = (deer_signal_from_transfer(p1, 200.0, 20.0)
             * deer_signal_from_transfer(p2, 15.0, 20.0))
    np.testing.assert_allclose(both, apart, rtol=1e-14)
    t = np.array([10.0, 20.0])
    np.testing.assert_allclose(
        deer_signal_from_transfer(0.3, 100.0, t),
        [deer_signal_from_transfer(0.3, 100.0, ti) for ti in t], rtol=1e-14)


def test_detection_limit_inverts_the_signal():
    n = detection_limit_ppb(0.05, 100.0, line_amp=0.4)
    assert deer_signal_from_transfer(0.4, n, 100.0) == pytest.approx(
        0.95, rel=1e-14)


def test_dipolar_rate_constant_value():
    # 4 pi mu0 muB^2 g^2 |sigma| / (9 sqrt(3) hbar) at g = 2, sigma = 1/2
    rate = c.dipolar_rate_constant(2.0, 2.0, 0.5)
    assert rate == pytest.approx(1.6523e-18, rel=1e-3)


def test_ppb_conversions_round_trip():
    n = c.ppb_to_per_m3(234.0)
    assert n == pytest.approx(234.0 * 1.762e20, rel=1e-3)
    assert c.per_m3_to_ppb(n) == pytest.approx(234.0)


def test_detection_limit_reference_point():
    n = detection_limit_ppb(0.05, 100.0, sigma_b=0.5, line_amp=1.0 / 3.0)
    assert n == pytest.approx(5.0, rel=0.10)


def test_detection_limit_scales_inversely_with_delay():
    n1 = detection_limit_ppb(0.05, 50.0)
    n2 = detection_limit_ppb(0.05, 100.0)
    assert n1 == pytest.approx(2.0 * n2, rel=1e-6)


def test_detection_limit_validation():
    with pytest.raises(ValueError):
        detection_limit_ppb(0.0, 100.0)
    with pytest.raises(ValueError):
        detection_limit_ppb(0.05, -1.0)


def test_normalize_signal_phase_alternation():
    # noiseless counts: I_NV = (s+/r+ - s-/r-)/2, contrast is the ratio
    # of pump-on to pump-off echo amplitude
    ns = normalize_signal(10500.0, 10000.0, 9500.0, 10000.0,
                          10800.0, 10000.0, 9200.0, 10000.0)
    assert ns.i_nv == pytest.approx(0.05)
    assert ns.i_nv_off == pytest.approx(0.08)
    assert ns.i_deer == pytest.approx(0.625)


def test_normalize_signal_monte_carlo(rng):
    # shot-noise draws around known rates: the normalized contrast must
    # estimate the true ratio without bias beyond the sampling error
    n_draws = 400
    vals = []
    for _ in range(n_draws):
        ns = normalize_signal(rng.poisson(1050000), rng.poisson(1000000),
                              rng.poisson(950000), rng.poisson(1000000),
                              i_nv_off=0.08)
        vals.append(ns.i_deer)
    true = 0.05 / 0.08
    assert np.mean(vals) == pytest.approx(
        true, abs=4 * np.std(vals) / np.sqrt(n_draws))


def test_normalize_signal_rejects_bad_reference():
    with pytest.raises(ValueError):
        normalize_signal(1.0, 0.0, 1.0, 1.0, i_nv_off=0.1)
