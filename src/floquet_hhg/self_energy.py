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
(chosen by the one rule ``model.second_sheet``) and may fold a scale into
the closed form's factor 4; its ``sigma`` is the one home of the
zero-coupling rule (scale 0: no self-energy), the branch-point check, the
continuation check and the closed form, which it evaluates with one
logarithm call over zeta and zeta - k_c together.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams, second_sheet


class ChannelRows:
    """Channels ``ns`` with their sheets fixed by the mask ``second`` (None:
    all on the first sheet): the offsets n*omega, the second-sheet rows and
    shift, and the extreme second-sheet offsets that bound the Re z where
    every second-sheet row continues.  ``sigma`` gives ``scale`` times the
    self-energies as c (zeta L/4 - k_c) and c (L/4 - k_c/(zeta - k_c)), c
    = 4 scale, L = 4(Log zeta - Log(zeta - k_c)) + shift: as 4(x - y) ==
    4x - 4y exactly, bit for bit the closed form times ``scale``."""

    def __init__(self, params: ModelParams, ns, second=None,
                 scale: float = 1.0) -> None:
        self.params, self.ns, self.second = params, np.asarray(ns), second
        self.nw = self.ns * params.omega
        self.c = 4.0 * scale
        # rows [zeta, zeta - k_c], [zeta L/4, L/4], [k_c, k_c/(zeta - k_c)]
        self.pairs, self.terms, self.consts = buf = np.empty(
            (3, 2, self.ns.size), dtype=complex)
        self.views = tuple(buf.reshape(6, -1))
        self.consts[0] = params.k_c
        if second is None:  # all on the first sheet: no sheet bookkeeping
            self.second_rows = ()
            return
        self.second_rows = second.nonzero()[0]
        offsets = self.nw[self.second_rows].tolist()
        self.nw_max, self.nw_min = (max(offsets), min(offsets)) if offsets \
            else (-math.inf, math.inf)
        # the second sheet's shift of L/4, -2*pi*i (see above)
        self.shift = np.where(second, -1j * TWO_PI, 0.0j)

    def sigma(self, z: complex) -> np.ndarray:
        """Self-energies scale * Sigma(n, z) over the rows and their
        z-derivatives, the two rows of one array.

        A table whose scale is 0 gives zeros and checks nothing; any
        other raises ValueError at the branch points zeta in {0, k_c},
        naming the first such row's channel, and ConvergenceError when a
        second-sheet row leaves the region ``model.second_sheet`` opens.
        """
        if self.c == 0.0:  # zero coupling: no self-energy, whatever z is
            return np.zeros((2, self.ns.size), dtype=complex)
        z, k_c = complex(z), self.params.k_c
        if z.imag == 0.0:
            # real arguments are limits from above: -0.0 becomes +0.0 so
            # the principal logs pick the upper side of their cuts
            z = complex(z.real, 0.0)
        zeta, zeta_kc, zeta_l4, l4, _, kc_zeta = self.views
        np.subtract(z, self.nw, zeta)
        if z.imag == 0.0:
            hit = np.flatnonzero((zeta.real == 0.0) | (zeta.real == k_c))
            if hit.size:  # name the first row on a branch point
                raise ValueError(
                    f"self-energy argument {complex(zeta[hit[0]])} sits on "
                    f"the channel-{self.ns[hit[0]]} branch point")
        # z.real - nw is monotone in nw, so the extreme offsets decide for
        # every row; the mask only names a row outside: the one nearest
        # channel 0, which no order of the rows changes
        if len(self.second_rows) and not (z.real - self.nw_max > 0.0
                                          and z.real - self.nw_min < k_c):
            outside = self.second & ~second_sheet(self.params, self.ns, z)
            re = zeta.real[outside][np.abs(self.ns[outside]).argmin()]
            raise ConvergenceError(
                f"second sheet undefined for Re(zeta)={float(re)}; "
                f"continuation region is (0, {k_c})")
        np.subtract(zeta, k_c, zeta_kc)
        np.subtract(*np.log(self.pairs), l4)
        if len(self.second_rows):
            l4 += self.shift
        np.multiply(zeta, l4, zeta_l4)
        np.divide(k_c, zeta_kc, kc_zeta)
        return self.c * (self.terms - self.consts)
