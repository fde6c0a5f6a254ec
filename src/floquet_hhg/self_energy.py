"""Channel self-energies of the 1D photon continuum on both Riemann sheets.

Folding the +-k branches of the coupling onto energy gives the density
rho(eps) = 4*eps on (0, k_c), so each Floquet channel n sees the Cauchy
transform

    Sigma(n, z) = integral_0^{k_c} rho(eps) / (z - n*omega - eps) d eps.

With zeta = z - n*omega the first-sheet closed form is

    Sigma_I(zeta) = 4 * (-k_c + zeta * (Log(zeta) - Log(zeta - k_c))),

where both logarithms are principal.  Their cuts on the negative axis
cancel, leaving the physical branch cut exactly on [0, k_c]; real
arguments are handled as limits from the upper half-plane.  Continuing
through the cut from above (the second sheet, where decaying resonance
poles live) subtracts the density term analytically continued in zeta:

    Sigma_II(zeta) = Sigma_I(zeta) - 2*pi*i * 4*zeta.

``sigma_ladder`` evaluates the closed form for an array of channels at
once; ``sigma`` and ``sigma_prime`` are its one-channel views.  The sheet
of each channel follows one rule, ``model.second_sheet``.

``quadrature_reference`` provides an independent slow evaluation of the
first-sheet integral for validation; it never calls the closed form.
"""
from __future__ import annotations

import cmath
import enum

import numpy as np
from scipy import integrate

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams, second_sheet


class Sheet(enum.Enum):
    FIRST = "first"
    SECOND = "second"


#: Below this |Im zeta| the reference quadrature switches to an explicit
#: principal-value + boundary-term decomposition.
QUADRATURE_IM_FLOOR = 1e-6


def spectral_density(epsilon: float, k_c: float = TWO_PI) -> float:
    """Coupling density rho(eps) = 4*eps inside (0, k_c), zero outside.

    The endpoints are assigned 0 (a measure-zero choice).
    """
    if 0.0 < epsilon < k_c:
        return 4.0 * epsilon
    return 0.0


def sigma_ladder(params: ModelParams, n, z: complex,
                 second) -> tuple[np.ndarray, np.ndarray]:
    """Self-energies Sigma(n, z) and their z-derivatives for an array of
    channels n at one complex energy z; ``second`` masks the channels
    evaluated on the second sheet.

    Raises ValueError at the branch points zeta in {0, k_c}, and
    ConvergenceError when a second-sheet channel lies outside its
    continuation region Re(zeta) in (0, k_c).
    """
    z = complex(z)
    k_c = params.k_c
    zeta = np.empty(np.shape(n), dtype=complex)
    zeta.real = z.real - np.asarray(n) * params.omega
    # real arguments are limits from above: a -0.0 imaginary part becomes
    # +0.0 so the principal logs pick the upper side of their cuts
    zeta.imag = z.imag if z.imag != 0.0 else 0.0
    if z.imag == 0.0:
        hit = (zeta.real == 0.0) | (zeta.real == k_c)
        if hit.any():
            raise ValueError(f"self-energy argument {complex(zeta[hit][0])} "
                             "sits on a branch point")
    outside = second & ~((0.0 < zeta.real) & (zeta.real < k_c))
    if outside.any():
        raise ConvergenceError(
            f"second sheet undefined for Re(zeta)={float(zeta.real[outside][0])}"
            f"; continuation region is (0, {k_c})")
    logs = np.log(zeta) - np.log(zeta - k_c)
    s = 4.0 * (-k_c + zeta * logs)
    sp = 4.0 * (logs - k_c / (zeta - k_c))
    # continuing through the cut subtracts 2*pi*i times the density 4*zeta
    if second.any():
        s[second] -= TWO_PI * 1j * (4.0 * zeta[second])
        sp[second] -= TWO_PI * 4.0j
    return s, sp


def _channel(params: ModelParams, n: int, z: complex,
             sheet: Sheet) -> tuple[complex, complex]:
    try:
        s, sp = sigma_ladder(params, np.array([n]), z,
                             np.array([sheet is Sheet.SECOND]))
    except ConvergenceError as exc:
        raise ValueError(str(exc)) from None
    return complex(s[0]), complex(sp[0])


def sigma(params: ModelParams, n: int, z: complex,
          sheet: Sheet = Sheet.FIRST) -> complex:
    """Channel-n self-energy at complex energy z on the requested sheet.

    Exactly shift-covariant: sigma(n, z) == sigma(0, z - n*omega).
    Raises ValueError at the branch points zeta in {0, k_c} and when the
    second sheet is requested outside its continuation region
    Re(zeta) in (0, k_c).
    """
    return _channel(params, n, z, sheet)[0]


def sigma_prime(params: ModelParams, n: int, z: complex,
                sheet: Sheet = Sheet.FIRST) -> complex:
    """Analytic z-derivative of ``sigma`` on the requested sheet."""
    return _channel(params, n, z, sheet)[1]


def select_sheet(params: ModelParams, n: int, z: complex) -> Sheet:
    """Sheet of channel n when searching for resonance poles in the lower
    half-plane: ``second_sheet`` selected at z itself."""
    return Sheet.SECOND if second_sheet(params, n, z, at_z=True) \
        else Sheet.FIRST


def quadrature_reference(params: ModelParams, n: int, z: complex) -> complex:
    """First-sheet self-energy by adaptive quadrature of the defining
    integral; the independent check against the closed form.

    For |Im zeta| below ``QUADRATURE_IM_FLOOR`` the integral is evaluated
    as principal value plus the -i*pi*rho boundary term (upper side).
    """
    zeta = complex(z) - n * params.omega
    k_c = params.k_c
    if zeta == 0.0 or zeta == k_c:
        raise ValueError(f"self-energy argument {zeta} sits on a branch point")
    zr, zi = zeta.real, zeta.imag

    if abs(zi) < QUADRATURE_IM_FLOOR:
        if not (0.0 < zr < k_c):
            val, _ = integrate.quad(lambda e: 4.0 * e / (zr - e), 0.0, k_c,
                                    epsabs=1e-12, epsrel=1e-11, limit=400)
            return complex(val, 0.0)
        # principal value across the cut plus the upper-boundary term
        pv, _ = integrate.quad(lambda e: -4.0 * e, 0.0, k_c,
                               weight="cauchy", wvar=zr,
                               epsabs=1e-12, epsrel=1e-11, limit=400)
        boundary = -1j if zi >= 0.0 else 1j
        return pv + boundary * cmath.pi * spectral_density(zr, k_c)

    points = [zr] if 0.0 < zr < k_c else None
    re, _ = integrate.quad(
        lambda e: (4.0 * e * (zr - e)) / ((zr - e) ** 2 + zi ** 2),
        0.0, k_c, points=points, epsabs=1e-12, epsrel=1e-11, limit=400)
    im, _ = integrate.quad(
        lambda e: (-4.0 * e * zi) / ((zr - e) ** 2 + zi ** 2),
        0.0, k_c, points=points, epsabs=1e-12, epsrel=1e-11, limit=400)
    return complex(re, im)
