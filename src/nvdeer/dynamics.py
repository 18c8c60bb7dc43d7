"""Lab-frame time propagation of driven spin systems.

No rotating-wave approximation anywhere: the drive enters as the real
linear term H1(t) = 2*Omega*sin(2 pi f_B t)*(e1.S) and the propagator is
integrated in the lab frame.  Two integrator paths:

* "ode": scipy solve_ivp (DOP853) on the unitary, rtol ODE_RTOL (1e-8),
  max step bounded by 1/(20 f_B) so the carrier is always resolved.
  The reference path.
* "magnus": a period-power (Floquet) propagator.  The drive repeats
  every period T = 1/f_B, so a duration t = n T + r has
  U(t) = U(r) U(T)^n (Shirley, Phys. Rev. 138, B979 (1965)).  U(T) takes
  SUBSTEPS (= 40) fixed steps dt = T/SUBSTEPS of the three-node
  Gauss-Legendre commutator-corrected sixth-order Magnus integrator
  (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).
  U(r) is the running product of that same pass after its first
  j = min(floor(r/dt), SUBSTEPS - 1) steps, times one more step of
  r - j dt, and U(T)^n comes from binary powering.  A row costs
  SUBSTEPS + 1 Magnus steps (one Hermitian eigendecomposition each)
  plus about log2 n matrix squarings, however long the pulse, and pulse
  lengths that share one drive frequency share its pass; rows are
  batched over drive frequencies or pulse lengths, and every row is
  computed on its own, so a spectrum does not depend on how its grid is
  split.  Agrees with the ode path to better than 1e-6 on the propagator
  entries at the default settings over any in-scope duration (a plain
  midpoint rule stalls near 2e-4, and the two-node fourth-order step
  only reaches ~1e-6 per 0.1 us).

Both paths take the drive as a SinusoidalDrive.  Transition
probabilities are always computed from pure initial eigenstates,
P = 1 - |<i|U|i>|^2 (the survival amplitude is a diagonal entry of U in
the eigenbasis of the static Hamiltonian), and spectra are
population-weighted sums of those over the ensemble members.
"""

import numpy as np

from . import photophysics
from .errors import IntegrationError
from .hamiltonians import (allowed_transitions, apply_orientation,
                           drive_amplitude_matrix, electron_spin_operators,
                           static_hamiltonian)
from .spincore import eigensystem
from .trace import SpectrumTrace

__all__ = [
    "SinusoidalDrive",
    "propagate_unitary",
    "transition_spectrum",
    "ensemble_transfer",
    "simulate_rabi",
    "compute_sigma",
]

# Gauss-Legendre nodes on [0, 1] for the sixth-order step
_GL1 = 0.5 - np.sqrt(15.0) / 10.0
_GL2 = 0.5
_GL3 = 0.5 + np.sqrt(15.0) / 10.0

# Magnus steps per drive period
SUBSTEPS = 40
# a duration spans fewer drive periods than this, so that its period
# count casts to int64 exactly and the powering of U(T) ends
MAX_PERIODS = 2.0 ** 62
# relative tolerance of the ODE reference path
ODE_RTOL = 1e-8


class SinusoidalDrive:
    """Linear drive amp_matrix * sin(2 pi freq t), the shape both
    integrator paths take.  Callable as H1(t_us).
    """

    def __init__(self, amp_matrix, freq_mhz):
        amp = np.asarray(amp_matrix, dtype=complex)
        if amp.ndim != 2 or amp.shape[0] != amp.shape[1]:
            raise ValueError("amp_matrix must be square")
        if freq_mhz <= 0:
            raise ValueError("freq_mhz must be > 0")
        self.amp_matrix = amp
        self.freq_mhz = float(freq_mhz)

    def __call__(self, t_us):
        return self.amp_matrix * np.sin(2 * np.pi * self.freq_mhz * t_us)

    @classmethod
    def for_member(cls, system, field):
        """Drive of one ensemble member at the field's carrier frequency."""
        return cls(drive_amplitude_matrix(system, field), field.drive_freq_mhz)


def _propagate_ode(h0, drive, duration_us):
    # imported here: the ODE path is the reference only, and scipy.integrate
    # would otherwise load on every start of the CLI
    from scipy.integrate import solve_ivp

    d = h0.shape[0]

    def rhs(t, y):
        u = y.reshape(d, d)
        h = h0 + drive(t)
        return (-2j * np.pi * (h @ u)).ravel()

    sol = solve_ivp(rhs, (0.0, duration_us),
                    np.eye(d, dtype=complex).ravel(),
                    method="DOP853", rtol=ODE_RTOL, atol=1e-12,
                    max_step=1.0 / (20.0 * drive.freq_mhz),
                    dense_output=False)
    if not sol.success:
        raise IntegrationError(f"ODE propagation failed: {sol.message}")
    u = sol.y[:, -1].reshape(d, d)
    if not np.all(np.isfinite(u)):
        raise IntegrationError("ODE propagation produced non-finite entries")
    return u


def _commutator(x, y):
    return x @ y - y @ x


def _magnus_step(h0, v_amp, w2p, t0, dt):
    """Batched propagator of one step from t0 to t0 + dt for
    H = h0 + v_amp sin(w2p t).

    h0 and v_amp are (d, d) and shared by every row; w2p (angular drive
    frequency), t0 and dt (dt > 0) are per row, and each row is computed on
    its own, so a row's result does not depend on the rows batched with
    it.

    Sixth-order Magnus step built from the Hamiltonian at the three
    Gauss-Legendre nodes of the step (Blanes/Casas/Oteo/Ros scheme):
    with a_k = -2 pi i dt H(t_k),

        b1 = a2
        b2 = sqrt(15)/3 (a3 - a1)
        b3 = 10/3 (a3 - 2 a2 + a1)
        c1 = [b1, b2]
        c2 = -1/60 [b1, 2 b3 + c1]
        Omega = b1 + b3/12 + 1/240 [-20 b1 - b3 + c1, b2 + c2]

    Omega is anti-Hermitian, so exp(Omega) is evaluated exactly through
    one Hermitian eigendecomposition of i Omega / (2 pi dt) per row.
    """
    scale = -2j * np.pi * dt[:, None, None]
    s1 = np.sin(w2p * (t0 + _GL1 * dt))[:, None, None]
    s2 = np.sin(w2p * (t0 + _GL2 * dt))[:, None, None]
    s3 = np.sin(w2p * (t0 + _GL3 * dt))[:, None, None]
    b1 = scale * (h0 + s2 * v_amp)
    b2 = (np.sqrt(15.0) / 3.0) * scale * ((s3 - s1) * v_amp)
    b3 = (10.0 / 3.0) * scale * ((s3 - 2.0 * s2 + s1) * v_amp)
    c1 = _commutator(b1, b2)
    c2 = (-1.0 / 60.0) * _commutator(b1, 2.0 * b3 + c1)
    omega = (b1 + b3 / 12.0
             + _commutator(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0)
    heff = omega / scale
    heff = 0.5 * (heff + np.swapaxes(heff.conj(), 1, 2))
    w, vecs = np.linalg.eigh(heff)
    phase = np.exp(-2j * np.pi * w * dt[:, None])
    return (vecs * phase[:, None, :]) @ np.swapaxes(vecs.conj(), 1, 2)


def _power(u, n):
    """u[i]^n[i] for every row by binary powering (u may be one row
    shared by all); rows with n = 0 are exactly the identity."""
    d = u.shape[-1]
    out = np.broadcast_to(np.eye(d, dtype=complex), (len(n), d, d)).copy()
    base = u
    while True:
        odd = (n & 1) == 1
        out[odd] = np.broadcast_to(base, out.shape)[odd] @ out[odd]
        n = n >> 1
        if not n.any():
            return out
        base = base @ base


def _floquet_propagator(h0, v_amp, freqs, durations_us):
    """Batched U(duration) from t = 0 for H = h0 + v_amp sin(2 pi f t).

    The drive repeats every period T = 1/f, so with duration = n T + r,
    U(duration) = U(r) U(T)^n, and U(T)^n costs about log2 n squarings.
    U(T) takes SUBSTEPS (= 40) Magnus steps of dt = T/SUBSTEPS in one
    pass.  U(r) is the running product of that pass after its first
    j = min(floor(r/dt), SUBSTEPS - 1) steps, times one more step of
    r - j dt (<= dt), so a row costs SUBSTEPS + 1 eigendecompositions.
    freqs is (nb,) or one frequency shared by the nb durations, whose
    pass is then made once.  Rows with no tail skip the extra step, so a
    zero duration is exactly the identity.
    """
    f = np.asarray(freqs, dtype=float)
    dur = np.asarray(durations_us, dtype=float)
    # non-finite inputs give non-finite periods, and a period count past
    # int64 would wrap negative and never end the powering loop
    periods = dur * f
    if not np.all(np.abs(periods) < MAX_PERIODS):
        raise ValueError("drive frequencies and durations must be finite, "
                         "with fewer than 2**62 periods per duration")
    n = np.floor(periods).astype(np.int64)
    rem = np.maximum(dur - n / f, 0.0)
    # frequency row of each duration
    row = np.broadcast_to(np.arange(len(f)), dur.shape)
    dt = (1.0 / f) / SUBSTEPS
    w2p = 2 * np.pi * f
    j = np.minimum(np.floor(rem / dt[row]), SUBSTEPS - 1).astype(np.int64)
    d = h0.shape[0]
    u = np.broadcast_to(np.eye(d, dtype=complex), (len(f), d, d))
    u_rem = np.empty((len(dur), d, d), dtype=complex)
    for k in range(SUBSTEPS):
        at = j == k
        u_rem[at] = u[row[at]]
        u = _magnus_step(h0, v_amp, w2p, k * dt, dt) @ u
    tail = np.maximum(rem - j * dt[row], 0.0)
    live = tail > 0
    if live.any():
        r = row[live]
        u_rem[live] = _magnus_step(h0, v_amp, w2p[r], j[live] * dt[r],
                                   tail[live]) @ u_rem[live]
    return u_rem @ _power(u, n)


def propagate_unitary(h0, drive, duration_us, method="magnus"):
    """Propagator U(duration) for H(t) = h0 + drive(t).

    Parameters
    ----------
    h0 : (d, d) Hermitian static Hamiltonian, MHz.
    drive : SinusoidalDrive
    duration_us : float
    method : "magnus" (SUBSTEPS steps per drive period) | "ode" (the
        reference, at ODE_RTOL)
    """
    h0 = np.asarray(h0, dtype=complex)
    if not np.isfinite(duration_us) or duration_us < 0:
        raise ValueError("duration_us must be finite and >= 0")
    if duration_us == 0:
        return np.eye(h0.shape[0], dtype=complex)
    if method == "ode":
        return _propagate_ode(h0, drive, duration_us)
    if method == "magnus":
        return _floquet_propagator(h0, drive.amp_matrix, [drive.freq_mhz],
                                   [duration_us])[0]
    raise ValueError(f"unknown method {method!r}")


def _eigenbasis_propagator(h0, v_amp, freqs, durations_us):
    """_floquet_propagator in the eigenbasis of h0, where the diagonal of
    U is the survival amplitude of each initial eigenstate."""
    w, vecs = eigensystem(h0)
    return _floquet_propagator(np.diag(w).astype(complex),
                               vecs.conj().T @ v_amp @ vecs, freqs,
                               durations_us)


def transition_spectrum(h0, v_amp, f_grid_mhz, t_b_us, populations):
    """Population-weighted pump probability P(f) of one member.

    P(f) = sum_i pop_i * (1 - |<i|U(f)|i>|^2) over the eigenstates of h0,
    computed with the period-power Magnus propagator batched over the
    frequency grid.  Each frequency is computed on its own, so the result
    on a grid equals the concatenated results on any split of it.
    """
    f = np.asarray(f_grid_mhz, dtype=float)
    if f.ndim != 1 or len(f) == 0:
        raise ValueError("f_grid_mhz must be a non-empty 1-D array")
    if not np.all(np.isfinite(f) & (f > 0)):
        raise ValueError("drive frequencies must be finite and positive")
    pop = np.asarray(populations, dtype=float)
    d = h0.shape[0]
    if pop.shape != (d,):
        raise ValueError(f"populations must have length {d}")
    if np.any(pop < 0) or not np.isclose(pop.sum(), 1.0, atol=1e-6):
        raise ValueError("populations must be non-negative and sum to 1")
    if not np.isfinite(t_b_us) or t_b_us < 0:
        raise ValueError("t_b_us must be finite and >= 0")

    u = _eigenbasis_propagator(h0, v_amp, f, np.full(len(f), float(t_b_us)))
    surv = np.abs(np.diagonal(u, axis1=1, axis2=2)) ** 2
    p = (pop[None, :] * (1.0 - surv)).sum(axis=1)
    return np.clip(p, 0.0, 1.0)


def _member_populations(system, field):
    """Initial eigenstate populations of one member: uniform for P1 and
    X, the optical-pumping steady state for NV."""
    if system.species != "NV":
        d = {"P1": 6, "X": 2}[system.species]
        return np.full(d, 1.0 / d)
    # NV ground populations from the optical-pumping steady state, with
    # spin mixing evaluated in this member's frame
    b0, _ = apply_orientation(system.orientation, field)
    rates = photophysics.RateModelParams.for_field(b0)
    n7, _ = photophysics.steady_state_populations(
        rates, photophysics.PulseTrain())
    return photophysics.ground_populations(n7)


def ensemble_transfer(members, field, f_grid_mhz, t_b_us):
    """Weighted pump probability P_B(f) of an ensemble of one species.

    Sums weight * transition_spectrum over the members, each starting
    from uniform level populations (P1, X) or the optical-pumping steady
    state (NV).
    """
    members = list(members)
    if not members:
        raise ValueError("ensemble must contain at least one member")
    species = {m.species for m in members}
    if len(species) > 1:
        raise ValueError("ensemble members must share one species")
    total = np.zeros(len(np.atleast_1d(f_grid_mhz)))
    for m in members:
        h0 = static_hamiltonian(m, field)
        v_amp = drive_amplitude_matrix(m, field)
        pop = _member_populations(m, field)
        total = total + m.weight * transition_spectrum(
            h0, v_amp, f_grid_mhz, t_b_us, pop)
    return total


def simulate_rabi(system, field, t_grid_us):
    """Driven nutation P(t) of one member at the field's carrier.

    Starts from the lower level of the drive-allowed transition closest
    to the carrier and records its leave probability at each requested
    time (SUBSTEPS Magnus steps per period).

    Returns a SpectrumTrace (x = t_us, y = P).
    """
    t = np.asarray(t_grid_us, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        raise ValueError("t_grid_us must be a non-empty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid_us must be finite")
    if np.any(np.diff(t) < 0) or t[0] < 0:
        raise ValueError("t_grid_us must be sorted and non-negative")
    f_b = field.drive_freq_mhz
    if not np.isfinite(f_b) or f_b <= 0:
        raise ValueError("field.drive_freq_mhz must be finite and positive")
    trans = allowed_transitions(system, field)
    if not trans:
        raise ValueError("no drive-allowed transition for this member")
    _, _, lo, _ = min(trans, key=lambda r: abs(r[0] - f_b))

    u = _eigenbasis_propagator(static_hamiltonian(system, field),
                               drive_amplitude_matrix(system, field),
                               [f_b], t)
    p = 1.0 - np.abs(u[:, lo - 1, lo - 1]) ** 2
    return SpectrumTrace(t, np.clip(p, 0.0, 1.0),
                         x_label="t (us)", y_label="P")


def compute_sigma(h0, level_a, level_b):
    """Half the projection difference |<a|Sz|a> - <b|Sz|b>| / 2.

    Sz is the electron spin component along the molecular z axis, taken
    by dimension: 2 -> X (S=1/2), 3 -> NV (S=1), 6 -> the P1 electron
    operators embedded over the nuclear identity.  This is the effective
    flip magnitude sigma of a driven transition a <-> b, the factor
    entering the dipolar decay prefactor (1/2 for a free electron,
    smaller for mixed levels).  Levels are 1-based in ascending energy.
    """
    h0 = np.asarray(h0, dtype=complex)
    d = h0.shape[0]
    species = {2: "X", 3: "NV", 6: "P1"}.get(d)
    if species is None:
        raise ValueError(f"no electron spin operators for dimension {d}")
    for lv in (level_a, level_b):
        if not 1 <= lv <= d:
            raise ValueError(f"level {lv} out of range 1..{d}")
    if level_a == level_b:
        raise ValueError("levels must differ")
    w, v = eigensystem(h0)
    sq = electron_spin_operators(species).sz
    ma = (v[:, level_a - 1].conj() @ sq @ v[:, level_a - 1]).real
    mb = (v[:, level_b - 1].conj() @ sq @ v[:, level_b - 1]).real
    return abs(ma - mb) / 2.0
