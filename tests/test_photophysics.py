import itertools

import numpy as np
import pytest

from nvdeer import (FieldConfiguration, PulseTrain, RateModelParams,
                    apply_orientation, base_rate_matrix, dark_rates,
                    evolve_populations, ground_populations,
                    mixing_coefficients, nv_offaxis_member, nv_onaxis_member,
                    rate_generator, readout_history, signal_fraction,
                    steady_state_populations, transformed_rates)
from nvdeer.photophysics import _expm, _period_propagators


def member_field_vector(field):
    b, _ = apply_orientation(nv_offaxis_member().orientation, field)
    return b


def test_base_rate_matrix_entries():
    k0 = base_rate_matrix(beta=0.03)
    assert k0[3, 0] == k0[4, 1] == k0[5, 2] == 65.9
    assert k0[3, 6] == 7.9
    assert k0[4, 6] == k0[5, 6] == 53.3
    assert k0[6, 0] == 1.0
    assert k0[6, 1] == k0[6, 2] == 0.7
    assert k0[0, 3] == pytest.approx(0.03 * 65.9)
    assert np.all(k0 >= 0)
    with pytest.raises(ValueError):
        base_rate_matrix(beta=-0.1)


def test_mixing_identity_for_axial_field():
    a2 = mixing_coefficients(np.array([0.0, 0.0, 37.2]))
    assert np.allclose(a2, np.eye(7), atol=1e-9)


def test_mixing_blocks_doubly_stochastic(field):
    a2 = mixing_coefficients(member_field_vector(field))
    for blk in (slice(0, 3), slice(3, 6)):
        assert np.allclose(a2[blk, blk].sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(a2[blk, blk].sum(axis=1), 1.0, atol=1e-9)
    assert a2[6, 6] == 1.0
    # off-diagonal mixing present once the field has a transverse part
    assert a2[0:3, 0:3].max() < 1.0 - 1e-3
    # every excited state keeps radiative character to >= 2 ground states
    assert np.all((a2[3:6, 3:6] > 1e-3).sum(axis=1) >= 2)


def test_mixing_perpendicular_component():
    a2 = mixing_coefficients(np.array([1.0, 0.0, 37.0]))
    off = a2[0:3, 0:3] - np.diag(np.diag(a2[0:3, 0:3]))
    assert off.max() > 0


def test_transformed_rates_identity_and_sum(field):
    ident = RateModelParams(beta=0.03)
    assert np.allclose(transformed_rates(ident), base_rate_matrix(0.03))
    mixed = RateModelParams.for_field(member_field_vector(field))
    k = transformed_rates(mixed)
    k0 = base_rate_matrix(0.03)
    # the doubly-stochastic conjugation conserves the total rate budget
    assert k.sum() == pytest.approx(k0.sum(), rel=1e-9)
    # mixing bleeds the direct excited->ground channel into its neighbors
    assert k[4, 1] < k0[4, 1]
    assert k[4, 0] + k[4, 2] > 0


def test_dark_rates_remove_pumping_only():
    k = base_rate_matrix(0.03)
    kd = dark_rates(k)
    assert np.all(kd[0:3, 3:6] == 0)
    kd[0:3, 3:6] = k[0:3, 3:6]
    assert np.array_equal(kd, k)


def test_rate_generator_conserves_probability():
    m = rate_generator(base_rate_matrix(0.03))
    assert np.allclose(m.sum(axis=0), 0.0, atol=1e-12)


@pytest.fixture(scope="module")
def scaled_generators():
    """Pumped and dark rate generators of both NV members over beta, b0
    and tilt, each times 0.01, 1.5, 5 and 153.5 us: a (960, 7, 7) stack."""
    out = []
    for beta, b0, tilt in itertools.product((0, 0.03, 0.3, 3),
                                            (5, 37.2, 100),
                                            (0, 0.1, 5, 54.7356, 90)):
        field = FieldConfiguration(b0, tilt, 2.0, 1042.0)
        for member in (nv_onaxis_member(), nv_offaxis_member()):
            b, _ = apply_orientation(member.orientation, field)
            k = transformed_rates(RateModelParams.for_field(b, beta=beta))
            for m in (rate_generator(k), rate_generator(dark_rates(k))):
                out += [m * t for t in (0.01, 1.5, 5.0, 153.5)]
    return np.array(out)


def test_expm_matches_scipy(scaled_generators):
    from scipy.linalg import expm
    for a, got in zip(scaled_generators, _expm(scaled_generators)):
        want = expm(a)
        bound = 1e-12 * max(1.0, np.abs(want).sum(axis=0).max())
        assert np.abs(got - want).max() <= bound


def test_expm_of_generators_is_nonnegative(scaled_generators):
    # the exponential of a Markov generator is entrywise non-negative
    assert np.all(_expm(scaled_generators) >= 0.0)


def test_expm_zero_is_identity():
    np.testing.assert_array_equal(_expm(np.zeros((2, 7, 7))),
                                  np.broadcast_to(np.eye(7), (2, 7, 7)))


def test_expm_batch_equals_single_calls(field):
    params = RateModelParams.for_field(member_field_vector(field))
    k = transformed_rates(params)
    m_off = rate_generator(dark_rates(k))
    stack = np.array([rate_generator(k) * 5.0, m_off * 1.5, m_off * 153.5])
    singles = [_expm(a[None])[0] for a in stack]
    np.testing.assert_array_equal(_expm(stack), singles)
    np.testing.assert_array_equal(_period_propagators(params, PulseTrain()),
                                  singles)


@pytest.mark.parametrize("beta,n_pulses", [(0.03, 10), (0.03, 2),
                                           (0.0005, 3)])
def test_readout_history_is_evolve_then_steady_state(field, beta, n_pulses):
    params = RateModelParams.for_field(member_field_vector(field), beta=beta)
    history, n_conv = readout_history(params, PulseTrain(n_pulses=n_pulses))
    assert len(history) == max(n_conv, n_pulses)
    np.testing.assert_array_equal(
        history, evolve_populations(params, PulseTrain(n_pulses=len(history))))
    steady, n_ss = steady_state_populations(params, PulseTrain())
    assert n_ss == n_conv
    np.testing.assert_array_equal(steady, history[n_conv - 1])


def test_evolve_no_pumping_is_static():
    params = RateModelParams(beta=0.0)
    pops = evolve_populations(params, PulseTrain(n_pulses=4))
    assert np.allclose(pops, np.tile([1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0],
                                     (4, 1)), atol=1e-12)


def test_evolve_stays_on_simplex(field):
    params = RateModelParams.for_field(member_field_vector(field))
    pops = evolve_populations(params, PulseTrain(n_pulses=20))
    assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(pops >= -1e-9)


def test_evolve_rejects_bad_initial():
    params = RateModelParams()
    with pytest.raises(ValueError):
        evolve_populations(params, PulseTrain(), n0=np.full(7, 0.2))


def test_steady_state_polarization(field):
    """Tilted-field pumping settles near (0.40, 0.30, 0.30) in <= 15 pulses."""
    params = RateModelParams.for_field(member_field_vector(field))
    n_ro, n_pulses = steady_state_populations(params, PulseTrain(n_pulses=1),
                                              tol=1e-3)
    g = ground_populations(n_ro)
    assert abs(g[0] - 0.40) < 0.01
    assert abs(g[1] - 0.30) < 0.01
    assert abs(g[2] - 0.30) < 0.01
    assert n_pulses <= 15


@pytest.mark.parametrize("beta", [0.001, 0.01, 0.1])
def test_steady_state_beta_independent(field, beta):
    params = RateModelParams.for_field(member_field_vector(field), beta=beta)
    n_ro, n_pulses = steady_state_populations(params, PulseTrain(n_pulses=1),
                                              tol=1e-3)
    g = ground_populations(n_ro)
    assert np.allclose(g, [0.40, 0.30, 0.30], atol=0.01)
    assert n_pulses <= 15


def test_steady_state_independent_of_start(field):
    params = RateModelParams.for_field(member_field_vector(field))
    rng = np.random.default_rng(5)
    ref = None
    for _ in range(5):
        g0 = rng.dirichlet(np.ones(3))
        n0 = np.concatenate([g0, np.zeros(4)])
        k_on = transformed_rates(params)
        # iterate enough pulses from this start and read the last sample
        pops = evolve_populations(params, PulseTrain(n_pulses=30), n0=n0)
        g = ground_populations(pops[-1])
        if ref is None:
            ref = g
        else:
            assert np.allclose(g, ref, atol=1e-3)


def test_axial_field_polarizes_into_ms0():
    """No mixing: pumping concentrates population in the first level.

    The ceiling is set by the singlet branching ratio 1.0:0.7:0.7, which
    returns only 41.7% of shelved population to the first level; the
    fixed point of the pulse-period map at readout is (0.7078, 0.1461,
    0.1461), well above the tilted-field 0.40 but far from unity.
    """
    params = RateModelParams.for_field(np.array([0.0, 0.0, 37.2]))
    pops = evolve_populations(params, PulseTrain(n_pulses=15))
    g = ground_populations(pops[-1])
    assert g[0] == pytest.approx(0.7078, abs=2e-3)
    assert g[1] == pytest.approx(0.1461, abs=2e-3)
    assert g[0] > 0.65


def test_signal_fraction_values():
    assert signal_fraction([0.40, 0.30, 0.30], (2, 3), 0.75) == \
        pytest.approx(0.45)
    assert signal_fraction(np.full(3, 1 / 3), (1, 2), 1.0) == \
        pytest.approx(2 / 3)
    assert signal_fraction([0.5, 0.5, 0.0], (2, 3), 0.8) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        signal_fraction([0.4, 0.3, 0.3], (1, 4), 0.75)
    with pytest.raises(ValueError):
        signal_fraction([0.4, 0.3, 0.3], (2, 3), 1.5)


def test_pulse_train_validation():
    with pytest.raises(ValueError):
        PulseTrain(laser_on_us=0.0)
    with pytest.raises(ValueError):
        PulseTrain(laser_on_us=200.0, period_us=160.0)
    with pytest.raises(ValueError):
        PulseTrain(n_pulses=0)
