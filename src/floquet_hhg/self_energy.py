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

A ``ChannelRows`` table fixes a set of channels and the sheet of each
(chosen by the one rule ``model.second_sheet``); its ``sigma`` is the one
home of the branch-point check, the continuation check and the closed
form.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams


class ChannelRows:
    """Channels ``ns`` with their sheets fixed by the mask ``second``: the
    offsets n*omega, the second-sheet rows and shift, and the extreme
    second-sheet offsets that bound the Re z where every second-sheet row
    continues."""

    def __init__(self, params: ModelParams, ns, second) -> None:
        self.params, self.ns, self.second = params, np.asarray(ns), second
        self.second_rows = np.flatnonzero(second)
        self.nw = self.ns * params.omega
        self.nw_max = self.nw[second].max(initial=-math.inf)
        self.nw_min = self.nw[second].min(initial=math.inf)
        # the second sheet's shift of Sigma', -2*pi*i times 4 (see above)
        self.shift = np.where(second, -4.0j * TWO_PI, 0.0j)

    def sigma(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """Self-energies Sigma(n, z) over the rows and their z-derivatives.

        Raises ValueError at the branch points zeta in {0, k_c}, and
        ConvergenceError when a second-sheet row lies outside its
        continuation region Re(zeta) in (0, k_c).
        """
        z, k_c = complex(z), self.params.k_c
        if z.imag == 0.0:
            # real arguments are limits from above: -0.0 becomes +0.0 so
            # the principal logs pick the upper side of their cuts
            z = complex(z.real, 0.0)
        zeta = z - self.nw
        if z.imag == 0.0:
            hit = zeta[(zeta.real == 0.0) | (zeta.real == k_c)]
            if hit.size:
                raise ValueError(f"self-energy argument {complex(hit[0])} "
                                 "sits on a branch point")
        # z.real - nw is monotone in nw, so the extreme offsets decide for
        # every row; the mask only names the first row outside
        if self.second_rows.size and not (z.real - self.nw_max > 0.0
                                          and z.real - self.nw_min < k_c):
            re = zeta.real[self.second & ~((0.0 < zeta.real)
                                           & (zeta.real < k_c))]
            raise ConvergenceError(
                f"second sheet undefined for Re(zeta)={float(re[0])}; "
                f"continuation region is (0, {k_c})")
        zeta_kc = zeta - k_c
        logs = 4.0 * (np.log(zeta) - np.log(zeta_kc)) + self.shift
        return zeta * logs - 4.0 * k_c, logs - 4.0 * k_c / zeta_kc
