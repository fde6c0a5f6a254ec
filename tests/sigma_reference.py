"""Self-energy references that only the tests read.

``sigma_ladder`` and ``_closed_form`` below are the elementwise
self-energy as it stood before ``self_energy.ChannelRows`` existed, kept
verbatim but for the branch-point message, which names the channel as
the row table's does: the reference the row table is held to (the same
exceptions, and values within rounding of the closed form's terms).
``channel_sigma`` is the one-channel view of the package's
``ChannelRows``.
"""
from __future__ import annotations

import numpy as np

from floquet_hhg.errors import ConvergenceError
from floquet_hhg.model import TWO_PI, ModelParams
from floquet_hhg.self_energy import ChannelRows


def channel_sigma(params: ModelParams, n: int, z: complex,
                  second: bool = False) -> tuple[complex, complex]:
    """Sigma(n, z) and Sigma'(n, z) of one channel, on the second sheet
    if ``second``, from a one-row ``ChannelRows`` table."""
    s, sp = ChannelRows(params, np.array([n]), np.array([second])).sigma(z)
    return complex(s[0]), complex(sp[0])


def sigma_ladder(params: ModelParams, n, z: complex,
                 second) -> tuple[np.ndarray, np.ndarray]:
    """Self-energies Sigma(n, z) and their z-derivatives for an array of
    channels n at one complex energy z; ``second`` masks the channels
    evaluated on the second sheet.

    Raises ValueError at the branch points zeta in {0, k_c}, naming the
    first such channel, and ConvergenceError when a second-sheet channel
    lies outside its continuation region Re(zeta) in (0, k_c), naming the
    one nearest channel 0.
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
                             f"sits on the channel-{np.asarray(n)[hit][0]} "
                             "branch point")
    outside = second & ~((0.0 < zeta.real) & (zeta.real < k_c))
    if outside.any():
        nearest = np.abs(np.asarray(n)[outside]).argmin()
        raise ConvergenceError(
            f"second sheet undefined for Re(zeta)="
            f"{float(zeta.real[outside][nearest])}"
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
