"""Physical constants and unit conversions used across the package.

Unit conventions, used everywhere unless a name says otherwise:

* frequency in MHz (Hamiltonians are H/h, i.e. frequency units)
* time in microseconds
* magnetic field in mT
* concentration in ppb of the diamond lattice, or m^-3 where flagged

The evolution phase convention is exp(-i 2 pi H t) with H in MHz and
t in us, so a level splitting f gives a phase 2*pi*f*t.
"""

import numpy as np

# gyromagnetic ratios, MHz per mT
GAMMA_E_MHZ_PER_MT = 28.025
GAMMA_N14_MHZ_PER_MT = 3.077e-3

# NV zero-field splittings, MHz
D_GS_MHZ = 2870.0
D_ES_MHZ = 1420.0

# P1 (substitutional nitrogen) hyperfine and quadrupole parameters, MHz
A_PERP_MHZ = 81.32
A_PAR_MHZ = 114.03
P_PAR_MHZ = -3.97

# electron g factor used for dipolar coupling strengths
G_ELECTRON = 2.0

# SI constants for the dipolar decay prefactor
MU_0 = 4e-7 * np.pi          # T m / A
MU_B = 9.274e-24             # J / T
HBAR = 1.0546e-34            # J s

# diamond atomic density: rho = 3.515 g/cm^3, M = 12.011 g/mol
DIAMOND_ATOMS_PER_M3 = 3.515e6 / 12.011 * 6.02214076e23   # ~1.762e29 m^-3

US_TO_S = 1e-6


def ppb_to_per_m3(ppb):
    """Convert a lattice-site concentration in ppb to spins per m^3."""
    return np.asarray(ppb, dtype=float) * 1e-9 * DIAMOND_ATOMS_PER_M3


def per_m3_to_ppb(n_per_m3):
    """Convert spins per m^3 to ppb of diamond lattice sites."""
    return np.asarray(n_per_m3, dtype=float) / (1e-9 * DIAMOND_ATOMS_PER_M3)


def dipolar_rate_constant(sigma_b=0.5):
    """Prefactor C of the dipolar echo-decay exponent, in m^3/s.

    The DEER echo amplitude decays as exp(-C * n_B * T_B * P_B) with n_B the
    flipped-spin density in m^-3, T_B the dipolar evolution time in seconds
    and P_B the flip probability.  C collects the angular average of the
    secular dipolar coupling for a dilute spin bath:

        C = 4 pi mu0 mu_B^2 g_A g_B |sigma_B| / (9 sqrt(3) hbar)

    with both g factors G_ELECTRON, and sigma_b half the difference of
    the projection quantum numbers of the two levels the pump pulse
    drives.
    """
    if sigma_b < 0:
        raise ValueError("sigma_b must be non-negative (magnitude of the "
                         "projection difference over two)")
    return (4 * np.pi * MU_0 * MU_B**2 * G_ELECTRON * G_ELECTRON
            * abs(sigma_b) / (9 * np.sqrt(3) * HBAR))
