"""Quadrature reference for the closed-form self-energy.

``quadrature_reference`` evaluates the first-sheet defining integral

    Sigma(n, z) = integral_0^{k_c} rho(eps) / (z - n*omega - eps) d eps

by adaptive quadrature, from the density ``spectral_density`` alone; it
never calls the closed form, so the tests can check one against the
other.
"""
from __future__ import annotations

import cmath

from scipy import integrate

from floquet_hhg import TWO_PI, ModelParams


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
