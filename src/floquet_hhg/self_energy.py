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
"""
from __future__ import annotations

import enum

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams, second_sheet


class Sheet(enum.Enum):
    FIRST = "first"
    SECOND = "second"


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
    return _closed_form(zeta, k_c, np.flatnonzero(second))


def _closed_form(zeta: np.ndarray, k_c: float,
                 second_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sigma and Sigma' at the shifted energies zeta, unchecked, with the
    entries at the indices ``second_rows`` on the second sheet."""
    logs = np.log(zeta) - np.log(zeta - k_c)
    s = 4.0 * (-k_c + zeta * logs)
    sp = 4.0 * (logs - k_c / (zeta - k_c))
    # continuing through the cut subtracts 2*pi*i times the density 4*zeta
    if second_rows.size:
        s[second_rows] -= TWO_PI * 1j * (4.0 * zeta[second_rows])
        sp[second_rows] -= TWO_PI * 4.0j
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
