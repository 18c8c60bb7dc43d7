"""Quadrature reference for the flip probability of a Lorentzian line.

P(delta) = (1/pi) int R(u) gamma / (gamma^2 + (delta - u)^2) du for a
unit-area line of HWHM gamma at pump detuning delta, R the Rabi kernel.
Near the line, |u| <= CORE_MHZ, the integral is taken in theta with
u = delta - gamma tan(theta), which makes the Lorentzian a flat measure,
and split at every zero of the kernel.  Beyond it the kernel is
R = Omega^2 / (2 v^2) (1 - cos(2 pi t_b v)) in v = sqrt(Omega^2 + u^2),
so the smooth part goes to plain `quad` and the oscillating part to
`quad`'s Fourier weight, out to infinity.  Two choices of CORE_MHZ agree
to ~1e-14.
"""

import functools
import math

import numpy as np
from scipy.integrate import quad

CORE_MHZ = 10.0
TOL = 1e-12


@functools.lru_cache(maxsize=None)
def line_reference(omega_mhz, t_b_us, gamma_mhz, offset_mhz):
    """Flip probability of a unit-area Lorentzian line at detuning
    offset_mhz from the pump."""
    om2 = omega_mhz**2

    def kernel(u):
        g2 = om2 + u * u
        s = math.sin(math.pi * math.sqrt(g2) * t_b_us)
        return om2 / g2 * s * s

    roots = [math.sqrt((m / t_b_us) ** 2 - om2)
             for m in range(1, int(math.hypot(omega_mhz, CORE_MHZ) * t_b_us)
                            + 1)
             if (m / t_b_us) ** 2 > om2]
    edges = sorted({-CORE_MHZ, CORE_MHZ, *roots, *(-r for r in roots)})
    theta = [math.atan((offset_mhz - u) / gamma_mhz) for u in edges]
    total = 0.0
    for lo, hi in zip(theta[1:], theta[:-1]):
        total += quad(lambda th: kernel(offset_mhz - gamma_mhz * math.tan(th)),
                      lo, hi, epsabs=TOL, epsrel=TOL, limit=200)[0] / math.pi
    for sign in (1.0, -1.0):
        def smooth(v):
            u = math.sqrt(v * v - om2)
            lor = gamma_mhz / (math.pi * (gamma_mhz**2
                                          + (offset_mhz - sign * u) ** 2))
            return om2 / (2.0 * v * u) * lor

        cuts = [math.hypot(omega_mhz, CORE_MHZ)]
        if sign * offset_mhz > CORE_MHZ:
            cuts.append(math.hypot(omega_mhz, offset_mhz))
        for lo, hi in zip(cuts, cuts[1:] + [math.inf]):
            total += quad(smooth, lo, hi, epsabs=TOL, epsrel=TOL,
                          limit=200)[0]
            total -= quad(smooth, lo, hi, weight="cos",
                          wvar=2.0 * math.pi * t_b_us, epsabs=TOL,
                          limit=200, limlst=200)[0]
    return total


def transfer_reference(peaks, omega_mhz, f_b_mhz, t_b_us):
    """population_transfer of broad peaks, one quadrature per pump
    frequency and line (the kernel is even, so P depends on |offset|)."""
    return np.array([sum(p.amp * line_reference(float(omega_mhz),
                                                float(t_b_us), p.gamma_mhz,
                                                abs(f - p.f_r_mhz))
                         for p in peaks)
                     for f in np.atleast_1d(f_b_mhz)])
