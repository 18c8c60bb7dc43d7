import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from nvdeer import (FieldConfiguration, SinusoidalDrive, compute_sigma,
                    ensemble_transfer, nv_offaxis_member, nv_onaxis_member,
                    p1_ensemble, propagate_unitary, rabi_probability,
                    simulate_rabi, spin_operators, static_hamiltonian,
                    transition_spectrum, x_member)
from nvdeer.dynamics import (SUBSTEPS, _eigenbasis_propagator,
                             _floquet_propagator, _power)
from nvdeer.hamiltonians import drive_amplitude_matrix


def _two_level(det_mhz, omega_mhz, f_b_mhz):
    ops = spin_operators(0.5)
    h0 = (f_b_mhz + det_mhz) * ops.sz
    drive = SinusoidalDrive(2.0 * omega_mhz * ops.sx, f_b_mhz)
    return h0, drive


def test_propagator_unitary():
    h0, drive = _two_level(0.0, 2.0, 1042.0)
    u = propagate_unitary(h0, drive, 0.31)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-9)


_ODE_PROBE = """
import sys
import numpy as np
from nvdeer import SinusoidalDrive, propagate_unitary, spin_operators
assert "scipy.integrate" not in sys.modules
ops = spin_operators(0.5)
h0 = 1043.3 * ops.sz
drive = SinusoidalDrive(4.0 * ops.sx, 1042.0)
u_ref = propagate_unitary(h0, drive, 0.05, method="ode")
u_fast = propagate_unitary(h0, drive, 0.05, method="magnus")
print(np.max(np.abs(u_fast - u_ref)))
"""


def test_ode_reference_imports_its_integrator():
    # scipy.integrate is imported inside the ODE path, so the path must
    # run in an interpreter where nothing has loaded it yet
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _ODE_PROBE],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip().splitlines()[-1]) < 1e-6


def test_magnus_matches_ode_reference():
    # fast fixed-step path against the adaptive ODE integrator
    h0, drive = _two_level(1.3, 2.0, 1042.0)
    u_fast = propagate_unitary(h0, drive, 0.2, method="magnus")
    u_ref = propagate_unitary(h0, drive, 0.2, method="ode")
    assert np.max(np.abs(u_fast - u_ref)) < 1e-6


@pytest.mark.parametrize("periods", [0.3, 1.0, 17.5, 260.4])
def test_magnus_period_power_edges(periods):
    # shorter than one period (n = 0), exact multiples of T (remainder
    # r = 0, exact in binary at f = 1024 MHz) and long pulses
    f_b = 1024.0
    h0, drive = _two_level(1.3, 2.0, f_b)
    t = periods / f_b
    u_fast = propagate_unitary(h0, drive, t, method="magnus")
    u_ref = propagate_unitary(h0, drive, t, method="ode")
    assert np.max(np.abs(u_fast - u_ref)) < 1e-6


@pytest.mark.parametrize("det_factor", [0.0, 1.0, 3.0])
def test_rabi_against_closed_form(det_factor):
    omega, f_b = 2.0, 1042.0
    det = det_factor * omega
    h0, drive = _two_level(det, omega, f_b)
    for t in (0.05, 0.125, 0.25):
        u = propagate_unitary(h0, drive, t)
        p_num = 1.0 - abs(u[0, 0]) ** 2
        assert abs(p_num - rabi_probability(omega, det, t)) < 1e-2


def test_simulate_rabi_frequency(field):
    member = x_member()
    from nvdeer import x_line_frequency
    carrier = x_line_frequency(field)
    f = field.replace(drive_freq_mhz=carrier)
    t = np.linspace(0.0, 2.0, 161)
    trace = simulate_rabi(member, f, t)
    # fundamental of P(t) = sin^2(pi Omega t) sits at Omega
    y = trace.y - trace.y.mean()
    freqs = np.fft.rfftfreq(len(t), t[1] - t[0])
    k = np.argmax(np.abs(np.fft.rfft(y)))
    assert freqs[k] == pytest.approx(field.rabi_mhz, abs=0.15)
    assert trace.y.max() > 0.95


def test_sigma_oracle_values(field):
    h_off = static_hamiltonian(nv_offaxis_member(), field)
    assert compute_sigma(h_off, 2, 3) == pytest.approx(0.866, abs=0.01)
    h_on = static_hamiltonian(nv_onaxis_member(), field)
    assert compute_sigma(h_on, 1, 2) == pytest.approx(0.5, abs=1e-3)
    assert compute_sigma(h_on, 2, 3) == pytest.approx(1.0, abs=1e-3)


def test_ensemble_transfer_spot_check(field):
    # a single on-resonance point of the merged P1 ensemble: the pi
    # pulse flips the quarter-weight on-axis central line completely
    members = [p1_ensemble(merge_off_axis=True)[0]]
    f = np.array([1048.875])
    p = ensemble_transfer(members, field, f, 0.25)
    assert p.shape == (1,)
    assert 0.05 < p[0] <= 0.25 + 1e-6


def test_transition_spectrum_independent_of_grid_split(field):
    # every frequency is propagated on its own, so a spectrum is
    # byte-identical to the concatenation of its halves
    member = p1_ensemble(merge_off_axis=True)[0]
    h0 = static_hamiltonian(member, field)
    v_amp = drive_amplitude_matrix(member, field)
    pop = np.full(6, 1.0 / 6.0)
    f = np.linspace(1040.0, 1058.0, 25)
    whole = transition_spectrum(h0, v_amp, f, 0.25, pop)
    halves = np.concatenate([transition_spectrum(h0, v_amp, f[:12], 0.25, pop),
                             transition_spectrum(h0, v_amp, f[12:], 0.25, pop)])
    assert whole.tobytes() == halves.tobytes()


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), 1e20])
def test_unbounded_durations_raise(field, bad):
    # an infinite, undefined or int64-overflowing period count used to
    # keep the binary powering loop running for ever
    h0, drive = _two_level(1.3, 2.0, 1042.0)
    with pytest.raises(ValueError):
        propagate_unitary(h0, drive, bad)
    if not np.isfinite(bad):
        with pytest.raises(ValueError):
            propagate_unitary(h0, drive, bad, method="ode")
    member = x_member()
    h0 = static_hamiltonian(member, field)
    v_amp = drive_amplitude_matrix(member, field)
    pop = np.full(2, 0.5)
    with pytest.raises(ValueError):
        transition_spectrum(h0, v_amp, np.array([1042.0]), bad, pop)
    with pytest.raises(ValueError):
        simulate_rabi(member, field, np.array([0.0, 0.1, bad]))


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_drive_frequencies_raise(field, bad):
    member = x_member()
    h0 = static_hamiltonian(member, field)
    v_amp = drive_amplitude_matrix(member, field)
    with pytest.raises(ValueError):
        transition_spectrum(h0, v_amp, np.array([1042.0, bad]), 0.25,
                            np.full(2, 0.5))
    with pytest.raises(ValueError):
        simulate_rabi(member, field.replace(drive_freq_mhz=bad),
                      np.array([0.0, 0.1]))


# at 1024 MHz every n T is exact in binary, so r = 0 is met exactly; the
# field is scaled with the carrier to keep the lines near it
_EDGE_F = 1024.0
_EDGE_FIELD = FieldConfiguration(37.2 * _EDGE_F / 1042.0, 0.1, 2.0, _EDGE_F)


@pytest.mark.parametrize("member", [p1_ensemble(merge_off_axis=True)[0],
                                    x_member()], ids=["P1", "X"])
def test_magnus_remainder_edges(member):
    # remainders at, just past and a step either side of the substep
    # boundaries, for sub-period pulses (n = 0) and for n = 7
    h0 = static_hamiltonian(member, _EDGE_FIELD).astype(complex)
    v_amp = drive_amplitude_matrix(member, _EDGE_FIELD)
    drive = SinusoidalDrive(v_amp, _EDGE_F)
    period = 1.0 / _EDGE_F
    eye = np.eye(h0.shape[0])
    cases = [(n, x) for n in (0, 7)
             for x in (0.0, 1e-9, 0.025, 0.5, 0.975, 1.0 - 1e-12) if n or x]
    for n, x in cases:
        t = n * period + x * period
        u = propagate_unitary(h0, drive, t)
        u_ref = propagate_unitary(h0, drive, t, method="ode")
        assert np.max(np.abs(u - u_ref)) < 1e-6, (n, x)
        assert np.max(np.abs(u @ u.conj().T - eye)) < 1e-12, (n, x)
    u_period = _floquet_propagator(h0, v_amp, [_EDGE_F], [period])
    u_whole = _floquet_propagator(h0, v_amp, [_EDGE_F], [7 * period])
    assert u_whole.tobytes() == _power(u_period, np.array([7])).tobytes()


@pytest.fixture
def eigh_matrices(monkeypatch):
    """Matrices decomposed by numpy.linalg.eigh, one entry per call."""
    sizes = []
    eigh = np.linalg.eigh

    def counted(a):
        sizes.append(int(np.prod(np.shape(a)[:-2], dtype=int)))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return sizes


def test_transition_spectrum_work_count(field, eigh_matrices):
    # one Magnus pass per frequency plus its remainder's step; the extra
    # matrix is h0's own eigenbasis
    member = p1_ensemble(merge_off_axis=True)[0]
    h0 = static_hamiltonian(member, field)
    v_amp = drive_amplitude_matrix(member, field)
    f = np.linspace(1040.0, 1058.0, 25)
    transition_spectrum(h0, v_amp, f, 0.25, np.full(6, 1.0 / 6.0))
    assert sum(eigh_matrices) <= len(f) * (SUBSTEPS + 1) + 1


def test_simulate_rabi_work_count_and_rows(field, eigh_matrices):
    # pulse lengths at one carrier share its period pass, and each row
    # equals the same pulse propagated on its own
    member = x_member()
    t = np.linspace(0.0, 2.0, 161)
    trace = simulate_rabi(member, field, t)
    assert sum(eigh_matrices) <= SUBSTEPS + len(t)
    h0 = static_hamiltonian(member, field)
    v_amp = drive_amplitude_matrix(member, field)
    rows = [_eigenbasis_propagator(h0, v_amp, [field.drive_freq_mhz],
                                   [ti])[0] for ti in t]
    p = np.clip(1.0 - np.abs(np.array([u[0, 0] for u in rows])) ** 2,
                0.0, 1.0)
    assert trace.y.tobytes() == p.tobytes()
