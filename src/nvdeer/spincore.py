"""Spin operators, lattice orientations, fields and eigensystem utilities.

Everything downstream (Hamiltonian builders, time propagation, line-position
oracles) is assembled from the pieces in this module.  Conventions:

* spin matrices are built in the |S, m> basis ordered m = S, S-1, ..., -S,
  so index 0 is the m = +S state;
* rotations act on laboratory vectors (field, drive axis), never on the
  spin operators, via R = Rz(theta_z) @ Ry(theta_y);
* eigensystems are returned in ascending-eigenvalue order with a fixed
  phase gauge so results are reproducible across LAPACK builds.
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpinOperatorSet",
    "spin_operators",
    "rotation_matrix",
    "Orientation",
    "orientation_families",
    "TETRAHEDRAL_ANGLE_DEG",
    "FieldConfiguration",
    "tensor_embed",
    "eigensystem",
]

# polar angle between distinct <111> axes; the exact value is
# arccos(-1/3) = 109.4712 deg, the rounded figure is the conventional one
# and is what the orientation tables below use.
TETRAHEDRAL_ANGLE_DEG = 109.5

# relative Hermiticity tolerance of eigensystem
HERM_TOL = 1e-9


@dataclass(frozen=True)
class SpinOperatorSet:
    """Cartesian spin matrices for a single spin.

    Attributes
    ----------
    spin : float
        Spin quantum number (0.5, 1, 1.5, ...).
    sx, sy, sz : ndarray
        (2S+1, 2S+1) complex Hermitian matrices in the m = S..-S basis.
    """

    spin: float
    sx: np.ndarray = field(repr=False)
    sy: np.ndarray = field(repr=False)
    sz: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.sx.shape[0]

    def projection(self, axis):
        """Spin component along a 3-vector axis, i.e. axis . (sx, sy, sz).

        The axis is normalized first; a zero axis is rejected.
        """
        a = np.asarray(axis, dtype=float)
        if a.shape != (3,):
            raise ValueError("axis must be a 3-vector")
        norm = np.linalg.norm(a)
        if norm == 0:
            raise ValueError("axis must be non-zero")
        a = a / norm
        return a[0] * self.sx + a[1] * self.sy + a[2] * self.sz


def spin_operators(s):
    """Build the Cartesian spin matrices for spin quantum number s.

    Uses the ladder-operator matrix elements
    <m+1|S+|m> = sqrt(S(S+1) - m(m+1)) in the m = S..-S ordered basis, then
    sx = (S+ + S-)/2, sy = (S+ - S-)/(2i), sz = diag(m).

    Parameters
    ----------
    s : float
        Non-negative half-integer or integer spin.

    Returns
    -------
    SpinOperatorSet
    """
    two_s = 2 * s
    if s < 0 or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(f"spin must be a non-negative multiple of 1/2, got {s}")
    d = int(round(two_s)) + 1
    m = s - np.arange(d)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((d, d), dtype=complex)
    for k in range(1, d):
        # <m[k-1]| S+ |m[k]> with m[k-1] = m[k] + 1
        sp[k - 1, k] = np.sqrt(s * (s + 1) - m[k] * (m[k] + 1))
    sm = sp.conj().T
    sx = (sp + sm) / 2
    sy = (sp - sm) / 2j
    return SpinOperatorSet(spin=float(s), sx=sx, sy=sy, sz=sz)


def rotation_matrix(theta_y_deg, theta_z_deg):
    """Rotation R = Rz(theta_z) @ Ry(theta_y) as a (3, 3) array.

    Applied to lab vectors to express a crystallographic defect family:
    Ry tips the z axis by the polar angle, Rz then sets the azimuth.
    """
    ty = np.deg2rad(theta_y_deg)
    tz = np.deg2rad(theta_z_deg)
    ry = np.array([[np.cos(ty), 0.0, np.sin(ty)],
                   [0.0, 1.0, 0.0],
                   [-np.sin(ty), 0.0, np.cos(ty)]])
    rz = np.array([[np.cos(tz), -np.sin(tz), 0.0],
                   [np.sin(tz), np.cos(tz), 0.0],
                   [0.0, 0.0, 1.0]])
    return rz @ ry


@dataclass(frozen=True)
class Orientation:
    """One <111>-type defect orientation, given by two rotation angles.

    label is the crystallographic direction it stands for, theta_y_deg the
    polar angle from the quantization (z) axis and theta_z_deg the azimuth.
    """

    label: str
    theta_y_deg: float
    theta_z_deg: float

    def matrix(self):
        return rotation_matrix(self.theta_y_deg, self.theta_z_deg)

    @property
    def on_axis(self):
        return self.theta_y_deg == 0.0


def orientation_families():
    """The four <111> orientation families of a tetrahedral defect.

    Returns the on-axis member first, then the three off-axis members at
    the tetrahedral polar angle with azimuths 0, 120 and 240 degrees.
    """
    t = TETRAHEDRAL_ANGLE_DEG
    return (
        Orientation("[111]", 0.0, 0.0),
        Orientation("[-111]", t, 0.0),
        Orientation("[1-11]", t, 120.0),
        Orientation("[11-1]", t, 240.0),
    )


@dataclass(frozen=True)
class FieldConfiguration:
    """Static field plus linear microwave drive settings.

    Attributes
    ----------
    b0_mag_mt : float
        Static field magnitude in mT.
    tilt_deg : float
        Polar tilt of the static field from the z axis, lying in the
        xz plane (B0 = |B0| (sin t, 0, cos t)).
    rabi_mhz : float
        On-resonance Rabi frequency Omega of the drive in MHz.  The lab
        drive term is 2*Omega*sin(2 pi f t)*(e1.S); the factor 2 makes the
        observed nutation frequency equal Omega after the rotating-wave
        reduction of a linear drive.
    drive_freq_mhz : float
        Drive carrier frequency f in MHz.

    The linear drive is polarized along the lab x axis.
    """

    b0_mag_mt: float
    tilt_deg: float = 0.0
    rabi_mhz: float = 0.0
    drive_freq_mhz: float = 0.0

    def __post_init__(self):
        if self.b0_mag_mt < 0:
            raise ValueError("b0_mag_mt must be >= 0")
        if self.rabi_mhz < 0:
            raise ValueError("rabi_mhz must be >= 0")
        if self.drive_freq_mhz < 0:
            raise ValueError("drive_freq_mhz must be >= 0")

    def b0_vector(self):
        """Static field vector in mT, tilt applied within the xz plane."""
        t = np.deg2rad(self.tilt_deg)
        return self.b0_mag_mt * np.array([np.sin(t), 0.0, np.cos(t)])

    def drive_unit(self):
        """Unit vector of the linear drive polarization, x."""
        return np.array([1.0, 0.0, 0.0])

    def replace(self, **kwargs):
        """Return a copy with some fields replaced."""
        return dataclasses.replace(self, **kwargs)


def tensor_embed(op, slot, dims):
    """Embed a single-site operator into a tensor-product space.

    Parameters
    ----------
    op : ndarray
        Square matrix acting on subsystem `slot`.
    slot : int
        Index of the subsystem the operator acts on.
    dims : sequence of int
        Dimensions of all subsystems in tensor-product order.

    Returns
    -------
    ndarray of shape (prod(dims), prod(dims))
    """
    op = np.asarray(op)
    dims = [int(d) for d in dims]
    if any(d < 1 for d in dims):
        raise ValueError("all subsystem dimensions must be >= 1")
    if not 0 <= slot < len(dims):
        raise ValueError(f"slot {slot} out of range for {len(dims)} subsystems")
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("op must be a square matrix")
    if op.shape[0] != dims[slot]:
        raise ValueError(f"op dimension {op.shape[0]} does not match "
                         f"dims[{slot}] = {dims[slot]}")
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        factor = op if k == slot else np.eye(d)
        out = np.kron(out, factor)
    return out


def eigensystem(h):
    """Eigenvalues and phase-fixed eigenvectors of a Hermitian matrix.

    Eigenvalues come out ascending (numpy.linalg.eigh order).  Each
    eigenvector's phase is fixed by making its largest-magnitude component
    real and positive, so degenerate-free spectra are bitwise reproducible.

    Parameters
    ----------
    h : ndarray
        Square matrix, Hermitian to within HERM_TOL (1e-9) relative to
        its largest entry.

    Returns
    -------
    (w, v) : eigenvalues (d,) float and eigenvectors (d, d) complex,
        v[:, i] belonging to w[i].
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("h must be a square matrix")
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > HERM_TOL * scale:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(h)
    # phase gauge: largest |component| of each column made real positive
    idx = np.argmax(np.abs(v), axis=0)
    lead = v[idx, np.arange(v.shape[1])]
    phases = lead / np.abs(lead)
    v = v / phases[np.newaxis, :]
    return w, v
