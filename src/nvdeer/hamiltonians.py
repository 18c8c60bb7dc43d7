"""Static and drive Hamiltonians for the three defect species.

Species covered:

* P1: neutral substitutional nitrogen, electron S = 1/2 hyperfine-coupled
  to its own 14N (I = 1), 6 levels.  Trigonal symmetry axis along local z.
* NV: nitrogen-vacancy electron spin S = 1 with zero-field splitting D
  (ground 2870 MHz, excited 1420 MHz), 3 levels; the 14N hyperfine
  structure is below the linewidths involved and is not included.
* X: a structureless S = 1/2 dangling-bond-like defect, 2 levels.

All builders take the magnetic field as a lab-frame 3-vector in mT and
return H/h in MHz.  Crystallite orientations are handled by rotating the
lab vectors (field and drive axis) with Orientation.matrix() while keeping
each defect's internal tensors in its molecular frame; apply_orientation
does exactly that and nothing else.
"""

from dataclasses import dataclass

import numpy as np

from . import constants as c
from .spincore import (Orientation, SpinOperatorSet, eigensystem,
                       orientation_families, spin_operators, tensor_embed)

__all__ = [
    "SpinSystem",
    "build_p1",
    "build_nv",
    "build_x",
    "static_hamiltonian",
    "electron_spin_operators",
    "drive_operator",
    "drive_amplitude_matrix",
    "apply_orientation",
    "p1_ensemble",
    "x_member",
    "nv_offaxis_member",
    "nv_onaxis_member",
    "allowed_transitions",
]

_S_HALF = spin_operators(0.5)
_S_ONE = spin_operators(1.0)

# a transition is drive-allowed when |<a| e1.S |b>| exceeds this; the
# nuclear-spin-flip satellites of P1 sit two orders below the
# electron-allowed lines
ALLOWED_THRESHOLD = 0.1


@dataclass(frozen=True)
class SpinSystem:
    """One ensemble member: a species, its orientation and its weight.

    weight is the member's fractional abundance within its species (the
    four <111> families each carry 1/4 for P1; an orientation-insensitive
    species carries 1.0).
    """

    species: str
    orientation: Orientation
    weight: float = 1.0

    def __post_init__(self):
        if self.species not in ("P1", "NV", "X"):
            raise ValueError(f"unknown species {self.species!r}")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")


def _check_b0(b0_vec_mt):
    b = np.asarray(b0_vec_mt, dtype=float)
    if b.shape != (3,):
        raise ValueError("b0_vec_mt must be a 3-vector in mT")
    return b


def build_p1(b0_vec_mt):
    """6x6 P1 Hamiltonian H/h in MHz.

    H = gamma_e B.S + A_perp (Sx Ix + Sy Iy) + A_par Sz Iz + P_par Iz^2
        - gamma_n B.I

    with the hyperfine/quadrupole tensors along the molecular z axis.
    """
    b = _check_b0(b0_vec_mt)
    dims = (2, 3)
    sx = tensor_embed(_S_HALF.sx, 0, dims)
    sy = tensor_embed(_S_HALF.sy, 0, dims)
    sz = tensor_embed(_S_HALF.sz, 0, dims)
    ix = tensor_embed(_S_ONE.sx, 1, dims)
    iy = tensor_embed(_S_ONE.sy, 1, dims)
    iz = tensor_embed(_S_ONE.sz, 1, dims)
    h = c.GAMMA_E_MHZ_PER_MT * (b[0] * sx + b[1] * sy + b[2] * sz)
    h = h + c.A_PERP_MHZ * (sx @ ix + sy @ iy)
    h = h + c.A_PAR_MHZ * (sz @ iz)
    h = h + c.P_PAR_MHZ * (iz @ iz)
    h = h - c.GAMMA_N14_MHZ_PER_MT * (b[0] * ix + b[1] * iy + b[2] * iz)
    return h


def build_nv(b0_vec_mt, d_mhz=c.D_GS_MHZ):
    """3x3 NV electron Hamiltonian H/h = D Sz^2 + gamma_e B.S in MHz.

    D is the ground-state zero-field splitting unless d_mhz is given
    (D_ES_MHZ for the optically excited manifold).
    """
    b = _check_b0(b0_vec_mt)
    s = _S_ONE
    h = d_mhz * (s.sz @ s.sz)
    h = h + c.GAMMA_E_MHZ_PER_MT * (b[0] * s.sx + b[1] * s.sy + b[2] * s.sz)
    return h


def build_x(b0_vec_mt):
    """2x2 free-electron Hamiltonian H/h = gamma_e B.S in MHz."""
    b = _check_b0(b0_vec_mt)
    s = _S_HALF
    return c.GAMMA_E_MHZ_PER_MT * (b[0] * s.sx + b[1] * s.sy + b[2] * s.sz)


def apply_orientation(orientation, field):
    """Rotate the lab field and drive vectors into a member's frame.

    Returns (b0_vec_mt, drive_unit) after applying R = Rz @ Ry of the
    orientation to both vectors.  The member's internal tensors stay in
    the molecular frame, so this is the complete orientation handling.
    """
    r = orientation.matrix()
    b0 = r @ field.b0_vector()
    e1 = r @ field.drive_unit()
    return b0, e1


def electron_spin_operators(species):
    """Electron spin operator set of a species, embedded in its full space.

    For P1 the electron S = 1/2 operators are embedded over the 14N
    identity, giving 6x6 matrices; NV and X return their bare sets.
    """
    if species == "P1":
        dims = (2, 3)
        return SpinOperatorSet(
            spin=0.5,
            sx=tensor_embed(_S_HALF.sx, 0, dims),
            sy=tensor_embed(_S_HALF.sy, 0, dims),
            sz=tensor_embed(_S_HALF.sz, 0, dims),
        )
    if species == "NV":
        return _S_ONE
    if species == "X":
        return _S_HALF
    raise ValueError(f"unknown species {species!r}")


def static_hamiltonian(system, field):
    """Static Hamiltonian of one ensemble member in the lab field.

    Applies the member's orientation to the field vector, then builds the
    species Hamiltonian in the molecular frame.
    """
    b0, _ = apply_orientation(system.orientation, field)
    if system.species == "P1":
        return build_p1(b0)
    if system.species == "NV":
        return build_nv(b0)
    return build_x(b0)


def drive_operator(system, field):
    """Drive coupling matrix (e1 . S_electron) for one member (unit norm).

    e1 is the drive polarization rotated into the member frame.
    """
    _, e1 = apply_orientation(system.orientation, field)
    ops = electron_spin_operators(system.species)
    return ops.projection(e1)


def drive_amplitude_matrix(system, field):
    """Peak drive matrix 2*Omega*(e1 . S) in MHz.

    The factor 2 sets the convention that field.rabi_mhz is the observed
    on-resonance Rabi frequency: a linear drive 2*Omega*sin(2 pi f t)
    splits into two rotating components of amplitude Omega each, and only
    the co-rotating one drives the transition.
    """
    return 2.0 * field.rabi_mhz * drive_operator(system, field)


def p1_ensemble(merge_off_axis=False):
    """The standard four-orientation P1 ensemble, equal weights.

    With merge_off_axis=True the three off-axis families are represented
    by a single member of weight 3/4; they are exactly degenerate here
    because conjugating the field and drive by a rotation about z changes
    neither eigenvalues nor drive matrix-element magnitudes.
    """
    fams = orientation_families()
    if merge_off_axis:
        return [
            SpinSystem("P1", fams[0], weight=0.25),
            SpinSystem("P1", fams[1], weight=0.75),
        ]
    return [SpinSystem("P1", o, weight=0.25) for o in fams]


def x_member():
    """Single orientation-insensitive X member (S = 1/2), weight 1."""
    return SpinSystem("X", orientation_families()[0], weight=1.0)


def nv_onaxis_member():
    """The on-axis NV member, weight 1/4."""
    return SpinSystem("NV", orientation_families()[0], weight=0.25)


def nv_offaxis_member():
    """One off-axis NV member standing for the three degenerate families:
    the [-111] family at weight 3/4."""
    return SpinSystem("NV", orientation_families()[1], weight=0.75)


def p1_line_table(field):
    """(frequency, area fraction) of the allowed P1 lines at this field.

    Six rows (three per orientation family, the off-axis families merged
    at weight 3/4), sorted by frequency.  Level populations are uniform,
    so each allowed line of a family carries weight * (1/6 + 1/6).
    """
    rows = []
    for member in p1_ensemble(merge_off_axis=True):
        for f, _, _, _ in allowed_transitions(member, field):
            rows.append((f, member.weight * (2.0 / 6.0)))
    rows.sort(key=lambda r: r[0])
    return rows


def p1_group_table(rows):
    """The six P1 lines of p1_line_table, `rows`, merged into the five
    observed groups.

    The two central lines sit closer than the pulse bandwidth and merge
    into one group at their area-weighted mean frequency, carrying their
    summed area.  Returns (centers, amps) arrays sorted by frequency,
    empty when no P1 line is drive-allowed.
    """
    if not rows:
        return np.empty(0), np.empty(0)
    f = np.array([r[0] for r in rows])
    a = np.array([r[1] for r in rows])
    i_mid = np.argsort(np.abs(f - np.median(f)))[:2]
    mask = np.ones(len(f), bool)
    mask[i_mid] = False
    centers = np.append(f[mask], np.average(f[i_mid], weights=a[i_mid]))
    amps = np.append(a[mask], a[i_mid].sum())
    order = np.argsort(centers)
    return centers[order], amps[order]


def x_line_frequency(field):
    """Resonance frequency of the bare S = 1/2 X line, gamma_e |B0|."""
    trans = allowed_transitions(x_member(), field)
    return trans[0][0]


def nv_line_table(field):
    """Drive-allowed NV lines: (freq, matrix element, levels, family label).

    Both the on-axis member and one representative off-axis member are
    listed; the off-axis 2<->3 line is the DEER-relevant one.
    """
    rows = []
    for member in (nv_onaxis_member(), nv_offaxis_member()):
        for f, el, a, b in allowed_transitions(member, field):
            rows.append((f, el, a, b, member.orientation.label))
    rows.sort(key=lambda r: r[0])
    return rows


def allowed_transitions(system, field):
    """Drive-allowed transitions of one member in the given field.

    Diagonalizes the static Hamiltonian and evaluates the drive coupling
    matrix elements between eigenstates.  A transition counts as allowed
    when |<a| e1.S |b>| exceeds ALLOWED_THRESHOLD.

    Returns
    -------
    list of (freq_mhz, matrix_element, level_a, level_b) sorted by
    frequency, levels 1-based in ascending energy order.
    """
    h0 = static_hamiltonian(system, field)
    w, v = eigensystem(h0)
    op = drive_operator(system, field)
    m = v.conj().T @ op @ v
    out = []
    n = len(w)
    for a in range(n):
        for b in range(a + 1, n):
            el = abs(m[a, b])
            if el > ALLOWED_THRESHOLD:
                out.append((float(w[b] - w[a]), float(el), a + 1, b + 1))
    out.sort(key=lambda r: r[0])
    return out
