"""Seven-level NV optical pumping model with field-induced spin mixing.

Levels, 1-based: |1..3> ground triplet (ms = 0, -1, +1 ordering by energy
at the working field), |4..6> excited triplet, |7> the metastable singlet.
Rates between them (radiative decay, optical pumping at a fraction beta of
the decay rate, spin-selective shelving through the singlet) are the
room-temperature literature values for an NV along its axis.

A transverse field component mixes the spin eigenstates, which is what
makes off-axis NVs pump poorly.  The mixing enters as

    k_ij = sum_kl |alpha_ik|^2 |alpha_jl|^2 k0_kl,
    |alpha_ik|^2 = |<k_axial | i_full>|^2,

i.e. the zero-mixing rate table k0 conjugated by the overlap probabilities
between the eigenstates of the full Hamiltonian (with the transverse
field) and those of the axial Hamiltonian (parallel component only).
Ground and excited manifolds mix separately through their own zero-field
splittings; the singlet is untouched.

Population evolution under a pulse train (laser on, dark wait, readout) is
a piecewise-constant linear ODE solved with matrix exponentials.  They
come from the scaling-and-squaring [13/13] Pade method (N. J. Higham,
SIAM J. Matrix Anal. Appl. 26, 1179 (2005); A. H. Al-Mohy and
N. J. Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009)) in NumPy, so
that simulate needs no SciPy module.
"""

from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from . import constants as c
from .errors import NumericError
from .hamiltonians import build_nv
from .spincore import eigensystem

__all__ = [
    "N_LEVELS",
    "RateModelParams",
    "PulseTrain",
    "base_rate_matrix",
    "mixing_coefficients",
    "transformed_rates",
    "rate_generator",
    "dark_rates",
    "evolve_populations",
    "ground_populations",
    "readout_history",
    "steady_state_populations",
    "signal_fraction",
]

N_LEVELS = 7

# default rate table entries, us^-1
_K_RAD = 65.9          # excited -> ground radiative decay
_K_ISC_0 = 7.9         # ms=0 excited -> singlet
_K_ISC_1 = 53.3        # ms=+-1 excited -> singlet
_K_S0 = 1.0            # singlet -> ms=0 ground
_K_S1 = 0.7            # singlet -> ms=+-1 ground

# pulses readout_history iterates before giving up
MAX_PULSES = 200
_GROUND_UNIFORM = np.array([1 / 3, 1 / 3, 1 / 3, 0, 0, 0, 0.0])

# The [13/13] Pade approximant is r = I + 2 (V - U)^-1 U with
# U = A (A^6 W_0 + W_1) and V = A^6 W_2 + W_3.  Row i holds the
# coefficients (Higham 2005) of A^6, A^4, A^2 and I in W_i: b13 b11 b9,
# b7 b5 b3 b1, b12 b10 b8, b6 b4 b2 b0.  theta_13 is the 1-norm up to
# which the approximant's backward error stays below the double-precision
# unit roundoff.
_PADE13 = np.array([
    [1.0, 16380.0, 40840800.0, 0.0],
    [33522128640.0, 10559470521600.0, 1187353796428800.0,
     32382376266240000.0],
    [182.0, 960960.0, 1323241920.0, 0.0],
    [670442572800.0, 129060195264000.0, 7771770303897600.0,
     64764752532480000.0]])
_THETA13 = 5.371920351148152


def base_rate_matrix(beta=0.03):
    """Unmixed 7x7 rate table k0[i, j] = rate i -> j in us^-1.

    beta is the optical pumping strength as a fraction of the radiative
    rate (dimensionless, laser-power dependent).
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    k0 = np.zeros((N_LEVELS, N_LEVELS))
    for g, e in ((0, 3), (1, 4), (2, 5)):
        k0[e, g] = _K_RAD
        k0[g, e] = beta * _K_RAD
    k0[3, 6] = _K_ISC_0
    k0[4, 6] = _K_ISC_1
    k0[5, 6] = _K_ISC_1
    k0[6, 0] = _K_S0
    k0[6, 1] = _K_S1
    k0[6, 2] = _K_S1
    return k0


def mixing_coefficients(b0_vec_mt):
    """Overlap probabilities |alpha|^2 between full and axial eigenstates.

    Returns a (7, 7) block-diagonal doubly-stochastic-per-block matrix:
    ground block from the 2870 MHz splitting, excited block from 1420 MHz,
    singlet entry 1.  Element [i, j] is |<j_axial|i_full>|^2 within the
    corresponding triplet (states ascending in energy).
    """
    b = np.asarray(b0_vec_mt, dtype=float)
    if b.shape != (3,):
        raise ValueError("b0_vec_mt must be a 3-vector")
    b_axial = np.array([0.0, 0.0, b[2]])
    a2 = np.zeros((N_LEVELS, N_LEVELS))
    for blk, d_mhz in ((slice(0, 3), c.D_GS_MHZ), (slice(3, 6), c.D_ES_MHZ)):
        _, v_full = eigensystem(build_nv(b, d_mhz))
        _, v_ax = eigensystem(build_nv(b_axial, d_mhz))
        # [i, j] = |<j_axial | i_full>|^2
        a2[blk, blk] = np.abs(v_full.conj().T @ v_ax) ** 2
    a2[6, 6] = 1.0
    return a2


@dataclass(frozen=True)
class RateModelParams:
    """Rate table plus mixing for one NV orientation in a given field."""

    beta: float = 0.03
    alpha2: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.alpha2 is None:
            object.__setattr__(self, "alpha2", np.eye(N_LEVELS))
        else:
            a2 = np.asarray(self.alpha2, dtype=float)
            if a2.shape != (N_LEVELS, N_LEVELS):
                raise ValueError("alpha2 must be 7x7")
            object.__setattr__(self, "alpha2", a2)

    @classmethod
    def for_field(cls, b0_vec_mt, beta=0.03):
        """Build params with mixing computed from the member-frame field."""
        return cls(beta=beta, alpha2=mixing_coefficients(b0_vec_mt))


def transformed_rates(params):
    """Mixed rate table k = |alpha|^2 k0 (|alpha|^2)^T, us^-1."""
    k0 = base_rate_matrix(params.beta)
    return params.alpha2 @ k0 @ params.alpha2.T


def dark_rates(k):
    """Rate table with the optical pumping (ground -> excited) block off."""
    kd = k.copy()
    kd[0:3, 3:6] = 0.0
    return kd


def rate_generator(k):
    """Generator M of dn/dt = M n from a rate table k[i, j] = i -> j."""
    return k.T - np.diag(k.sum(axis=1))


@dataclass(frozen=True)
class PulseTrain:
    """Laser pulse train timing (us)."""

    laser_on_us: float = 5.0
    period_us: float = 160.0
    readout_wait_us: float = 1.5
    n_pulses: int = 10

    def __post_init__(self):
        if self.laser_on_us <= 0 or self.period_us <= 0:
            raise ValueError("laser_on_us and period_us must be > 0")
        if self.laser_on_us + self.readout_wait_us > self.period_us:
            raise ValueError("readout must fall within the pulse period")
        if self.n_pulses < 1:
            raise ValueError("n_pulses must be >= 1")


def _check_populations(n0):
    n = np.asarray(n0, dtype=float)
    if n.shape != (N_LEVELS,):
        raise ValueError(f"population vector must have length {N_LEVELS}")
    if np.any(n < -1e-12):
        raise ValueError("populations must be non-negative")
    s = n.sum()
    if not np.isclose(s, 1.0, atol=1e-9):
        raise ValueError(f"populations must sum to 1, got {s}")
    return np.clip(n, 0.0, None)


def _expm(a):
    """Exponential of each matrix of a (k, n, n) stack.

    Matrix i is scaled by 2^-s_i, s_i the least s >= 0 with
    |2^-s a_i|_1 < theta_13 (the exact 1-norm), put through the [13/13]
    Pade approximant and squared s_i times.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.maximum(np.frexp(norms / _THETA13)[1], 0)
    a = np.ldexp(a, -s[:, None, None])
    p = np.empty((4,) + a.shape)        # A^6, A^4, A^2, I
    np.matmul(a, a, out=p[2])
    np.matmul(p[2], p[2], out=p[1])
    np.matmul(p[1], p[2], out=p[0])
    p[3] = np.eye(a.shape[-1])
    w = (_PADE13 @ p.reshape(4, -1)).reshape(p.shape)
    u = a @ (p[0] @ w[0] + w[1])
    v = p[0] @ w[2] + w[3]
    # I + 2 (V - U)^-1 U, not (V - U)^-1 (V + U): a level with no outflow
    # (a zero column of the generator) then keeps an exact unit column,
    # where the other form is an ulp off and the squarings grow that
    r = p[3] + 2.0 * np.linalg.solve(v - u, u)
    out = []
    for m, n in zip(r, s):
        for _ in range(n):
            m = m.dot(m)
        out.append(m)
    return np.array(out)


def _period_propagators(params, train):
    """Population propagators of one train period, a (3, 7, 7) stack:
    laser on, the wait to the readout, and the dark tail after it."""
    k_on = transformed_rates(params)
    m_off = rate_generator(dark_rates(k_on))
    tail = train.period_us - train.laser_on_us - train.readout_wait_us
    return _expm(np.stack((rate_generator(k_on) * train.laser_on_us,
                           m_off * train.readout_wait_us, m_off * tail)))


def _readouts(propagators, n):
    """Populations at the readout instant of each pulse, without end,
    from the populations n before the first."""
    u_on, u_wait, u_tail = propagators
    while True:
        n = u_wait @ (u_on @ n)
        yield n
        n = u_tail @ n


def evolve_populations(params, train, n0=None):
    """Population samples at the readout instant of each laser pulse.

    Each period is laser-on for laser_on_us with the full rate table,
    then dark (pumping off) for the rest; the sample is taken
    readout_wait_us after the laser switches off, which is where the
    spin-state measurement pulse sits in the sequence.

    Parameters
    ----------
    params : RateModelParams
    train : PulseTrain
    n0 : population 7-vector, default uniform over the ground triplet.

    Returns
    -------
    ndarray (n_pulses, 7), populations at each readout instant.
    """
    n = _check_populations(_GROUND_UNIFORM if n0 is None else n0)
    return np.array(list(islice(
        _readouts(_period_propagators(params, train), n), train.n_pulses)))


def ground_populations(n):
    """Ground-triplet fractions of a 7-vector, renormalized to sum 1."""
    n = np.asarray(n, dtype=float)
    g = n[..., 0:3]
    tot = g.sum(axis=-1, keepdims=True)
    if np.any(tot <= 0):
        raise ValueError("ground-state population is zero")
    return g / tot


def readout_history(params, train, tol=1e-6):
    """Readout populations from the uniform ground start until the
    periodic steady state, and for at least train.n_pulses pulses.

    Returns (history, n_pulses_to_converge): history is (n, 7), one row
    per pulse, and its row n_pulses_to_converge - 1 is the steady state,
    the first readout whose ground fractions moved less than tol since
    the pulse before.  Raises NumericError when MAX_PULSES do not
    converge.
    """
    history, n_conv = [], None
    prev = ground_populations(_GROUND_UNIFORM)
    for n_ro in _readouts(_period_propagators(params, train),
                          _GROUND_UNIFORM):
        history.append(n_ro)
        if n_conv is None:
            g = ground_populations(n_ro)
            if np.abs(g - prev).max() < tol:
                n_conv = len(history)
            elif len(history) == MAX_PULSES:
                raise NumericError(
                    f"no steady state after {MAX_PULSES} pulses")
            prev = g
        if n_conv is not None and len(history) >= train.n_pulses:
            return np.array(history), n_conv


def steady_state_populations(params, train, tol=1e-6):
    """Iterate the pulse train to its periodic steady state.

    Returns (populations_7vector_at_readout, n_pulses_to_converge), as
    readout_history finds them; raises NumericError when MAX_PULSES do
    not converge.
    """
    history, n_conv = readout_history(params, replace(train, n_pulses=1),
                                      tol)
    return history[n_conv - 1], n_conv


def signal_fraction(populations, transition=(2, 3), off_axis_share=0.75):
    """Fraction of all NVs contributing to a pumped-line DEER signal.

    (n_a + n_b) * off_axis_share for a transition between 1-based ground
    levels a and b; populations may be the ground 3-vector or the full
    7-vector (ground part taken as-is, not renormalized).
    """
    n = np.asarray(populations, dtype=float)
    if n.ndim != 1 or len(n) not in (3, N_LEVELS):
        raise ValueError("populations must be a 3- or 7-vector")
    a, b = transition
    if not (1 <= a <= 3 and 1 <= b <= 3 and a != b):
        raise ValueError("transition must name two distinct ground levels 1..3")
    if not 0 <= off_axis_share <= 1:
        raise ValueError("off_axis_share must be in [0, 1]")
    return float((n[a - 1] + n[b - 1]) * off_axis_share)
