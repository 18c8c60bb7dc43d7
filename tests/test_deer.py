import numpy as np
import pytest

from nvdeer import (LorentzianPeak, LorentzianPeakSet,
                    P1_FIVE_LINE_AMPLITUDES, deer_signal_from_transfer,
                    detection_limit_ppb, population_transfer,
                    rabi_probability)
from nvdeer import constants as c
from nvdeer import deer
from quad_reference import transfer_reference


def test_five_line_amplitudes():
    amps = np.array(P1_FIVE_LINE_AMPLITUDES)
    assert amps.sum() == pytest.approx(1.0)
    assert amps[2] == pytest.approx(1.0 / 3.0)
    assert amps[0] == amps[4] == pytest.approx(1.0 / 12.0)


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


# offsets 0-240 MHz from the line, dense where the kernel has structure
OFFSETS = np.concatenate([np.linspace(0.0, 10.0, 21),
                          np.linspace(12.0, 240.0, 20)])


def test_population_transfer_matches_quadrature():
    # the Fourier operator against a theta-split quad of the convolution,
    # for two pulses; the largest gap (~5e-6 at gamma = 3 MHz, 240 MHz
    # out) is the kernel's image one period away
    f = 1042.0 + OFFSETS
    wide = LorentzianPeak(1035.0, 2.5, 0.3)
    for omega, t_b in ((2.0, 0.25), (1.0, 0.5)):
        ref_wide = transfer_reference([wide], omega, f, t_b)
        for gamma in (0.1, 0.3, 1.2, 3.0):
            peak = LorentzianPeak(1042.0, gamma, 1.0)
            ref = transfer_reference([peak], omega, f, t_b)
            p = population_transfer([peak], omega, f, t_b)
            assert np.max(np.abs(p - ref)) < 2e-5, (omega, gamma)
            p_two = population_transfer(
                [LorentzianPeak(1042.0, gamma, 0.7), wide], omega, f, t_b)
            assert np.max(np.abs(p_two - 0.7 * ref - ref_wide)) < 2e-5


def test_kernel_modes_built_once(monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def counting(a):
        calls.append(len(a))
        return rfft(a)

    monkeypatch.setattr(np.fft, "rfft", counting)
    deer._kernel_modes.cache_clear()
    f = np.linspace(1020.0, 1064.0, 89)
    peak = LorentzianPeak(1042.0, 1.2, 0.7)
    first = population_transfer([peak], 2.0, f, 0.25)
    for _ in range(3):
        again = population_transfer([peak], 2.0, f, 0.25)
        np.testing.assert_array_equal(again, first)
    np.testing.assert_allclose(
        deer.line_transfer_gradient([peak], 2.0, f, 0.25)[0], first,
        rtol=0, atol=1e-15)
    assert len(calls) == 1
    population_transfer([peak], 1.0, f, 0.5)
    deer.line_transfer_gradient([peak], 1.0, f, 0.5)
    assert len(calls) == 2
    assert not deer._kernel_modes(2.0, 0.25,
                                  deer.KERNEL_PERIOD_MHZ).flags.writeable


def test_population_transfer_far_pump():
    # the mode sum is periodic; its period grows with the pump's reach,
    # so a line 800-2400 MHz away, or a strong drive, shows no copy of
    # the line
    line = LorentzianPeak(1000.0, 1.2, 1.0)
    f = 1000.0 + np.array([0.0, 5.0, 800.0, 1200.0, 1600.0, 2400.0])
    ref = transfer_reference([line], 2.0, f, 0.25)
    assert np.max(ref[2:]) < 1e-5
    for fb, p_ref in zip(f, ref):
        assert abs(population_transfer([line], 2.0, fb, 0.25)
                   - p_ref) < 2e-5, fb
        assert abs(deer.line_transfer_gradient([line], 2.0, fb, 0.25)[0][0]
                   - p_ref) < 2e-5, fb
    np.testing.assert_allclose(population_transfer([line], 2.0, f, 0.25),
                               ref, rtol=0, atol=2e-5)
    f = 1000.0 + OFFSETS
    for gamma in (0.3, 3.0):
        peak = LorentzianPeak(1000.0, gamma, 1.0)
        np.testing.assert_allclose(
            population_transfer([peak], 10.0, f, 0.05),
            transfer_reference([peak], 10.0, f, 0.05), rtol=0, atol=2e-5)
    with pytest.raises(ValueError):
        population_transfer([line], 2.0, [30000.0], 0.25)


@pytest.mark.parametrize("gamma", [0.1, 1.2, 3.0])
def test_line_transfer_gradient_matches_differences(gamma):
    # slopes of a two-line group in its common shift and its width
    # against central differences of population_transfer
    f = np.linspace(1000.0, 1100.0, 201)
    centres, amps = (1048.9, 1051.4), (1.0 / 12, 1.0 / 4)

    def transfer(shift, width):
        return population_transfer(
            [LorentzianPeak(fc + shift, width, a)
             for fc, a in zip(centres, amps)], 2.0, f, 0.25)

    p, d_s, d_gamma = deer.line_transfer_gradient(
        [LorentzianPeak(fc, gamma, a) for fc, a in zip(centres, amps)],
        2.0, f, 0.25)
    # the step balances the differences' truncation error against the
    # ~1e-14 rounding of P
    h = 1e-4
    np.testing.assert_allclose(p, transfer(0.0, gamma), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        d_s, (transfer(h, gamma) - transfer(-h, gamma)) / (2 * h),
        rtol=0, atol=5e-10)
    np.testing.assert_allclose(
        d_gamma, (transfer(0.0, gamma + h) - transfer(0.0, gamma - h))
        / (2 * h), rtol=0, atol=5e-10)
    with pytest.raises(ValueError):
        deer.line_transfer_gradient([LorentzianPeak(1048.9, gamma, 0.5),
                                     LorentzianPeak(1051.4, 2 * gamma, 0.5)],
                                    2.0, f, 0.25)


def test_population_transfer_bounded():
    omega, t_b = 2.0, 0.25
    f = np.linspace(900.0, 1190.0, 581)
    peaks = [LorentzianPeak(1042.0, 1.2, 1.0)]
    p = population_transfer(peaks, omega, f, t_b)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


def test_deer_signal_zero_concentration_flat():
    peaks = LorentzianPeakSet([LorentzianPeak(1042.0, 1.2, 1.0)])
    f = np.linspace(1020.0, 1064.0, 45)
    p_b = population_transfer(peaks, 2.0, f, 0.25)
    assert np.all(deer_signal_from_transfer(p_b, 0.0, 20.0) == 1.0)


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
    rate = c.dipolar_rate_constant(0.5)
    assert rate == pytest.approx(1.6523e-18, rel=1e-3)


def test_ppb_conversions_round_trip():
    n = c.ppb_to_per_m3(234.0)
    assert n == pytest.approx(234.0 * 1.762e20, rel=1e-3)
    assert c.per_m3_to_ppb(n) == pytest.approx(234.0)


def test_detection_limit_reference_point():
    n = detection_limit_ppb(0.05, 100.0, line_amp=1.0 / 3.0)
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
