"""Emission observables assembled from the resonance pole state.

All three observables share the same ingredients: the pole z_d, the ladder
coefficients R_n/L_n, the normalization N_d, and the emission prefactor
N_d * sum_n L_n.  Each sums over the state's whole ladder ``ns``, whose
edge (where the solver finds it below LADDER_TOL) is the one truncation.
Writing zeta_n = z_d - n*omega for the shifted pole of channel n:

* photon line spectrum (continuum density normalization, no free scale):
      S(k) = lambda^2 * v_k^2 * | sum_n Kem * R_n / (zeta_n - eps_k) |^2,
  with v_k^2 = 2|k| and Kem = N_d * sum L; each open channel contributes a
  Lorentzian line at eps_k = Re z_d - n*omega with half-width |Im z_d|.

* resonance part of the spatial field, kept as the sum of outgoing pole
  waves (pole term of the momentum integral per open channel):
      f(x, t) = -i*sqrt(2*pi) * lambda * Kem
                * sum_n R_n * sqrt(2*zeta_n) * exp(-i*zeta_n*(t - |x|)).
  Each mode's intensity grows toward the light front at rate 2*|Im z_d|;
  cross terms between modes beat in (t - |x|) at multiples of omega.

* survival amplitude of the bare excited state, pole part
      c(t) = Kem * sum_n R_n * exp(i*n*omega*t) * exp(-i*z_d*t),
  which at lambda = 0 collapses to the exact driven-level phase.  The
  complete amplitude (pole plus background) is a sum of the Floquet
  states of the emitter coupled to photon pseudo-modes on a contour below
  the real axis, each a quasi-energy and a harmonic ladder; the pole
  term is one of them.

The spectrum and the field each return one ``ModeAmplitudes``: the
complex term of each emission mode m = -n on the caller's grid.  The
coherent total, the per-mode diagonal intensities and their interference
are derived from it, so they cannot contradict each other.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI, ModelParams
from .oracle import DEFAULT_DT, _lawson
from .solver import ResonanceState

#: Gauss-Legendre nodes on the photon contour and its depth below the real
#: axis; the propagator steps by about DEFAULT_DT, times 2 pi/k_c above 2 pi.
CONTOUR_NODES = 60
CONTOUR_DEPTH = 2.5


@dataclass(frozen=True, eq=False)
class ModeAmplitudes:
    """Complex amplitude of each emission mode m in ``modes`` (ascending)
    on the caller's grid, one row of ``amps`` per mode.  Every intensity
    is derived: the coherent ``total``, the per-mode ``diagonal`` terms and
    their ``interference``, with sum(diagonal) + interference == total."""

    modes: np.ndarray
    amps: np.ndarray

    @property
    def total(self) -> np.ndarray:  # coherent sum by ascending channel n
        return np.abs(self.amps[::-1].sum(axis=0)) ** 2

    @property
    def diagonal(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    @property
    def interference(self) -> np.ndarray:  # terms by ascending channel n
        return functools.reduce(np.subtract, self.diagonal[::-1], self.total)


def hhg_spectrum(state: ResonanceState, kgrid) -> ModeAmplitudes:
    """Long-time photon spectrum: the photon amplitude of each emission
    mode m = -n over the state's whole ladder, a channel of zero weight an
    exact zero row; ``total`` is the coherent spectrum and ``diagonal`` its
    per-mode Lorentzian lines.

    The grid must lie inside (-k_c, k_c); the spectrum is even in k.
    """
    k = np.asarray(kgrid, dtype=float)
    params = state.params
    if not np.all(np.abs(k) < params.k_c):
        raise ValueError(f"momentum grid reaches |k| = "
                         f"{np.max(np.abs(k)):.6g}, not inside (-k_c, k_c) "
                         f"= ({-params.k_c:.6g}, {params.k_c:.6g})")
    eps_k = np.abs(k)
    zeta = state.z_d - state.ns * params.omega
    weight = state.emission_constant * state.R * params.lambda_
    amps = weight[:, None] * np.sqrt(2.0 * eps_k)  # photon state per channel
    # an uncoupled channel emits nothing, on its own pole too
    np.divide(amps, zeta[:, None] - eps_k, out=amps,
              where=weight[:, None] != 0.0)
    return ModeAmplitudes(modes=-state.ns[::-1], amps=amps[::-1])


def resonance_spatial_field(state: ResonanceState, xgrid,
                            t: float) -> ModeAmplitudes:
    """Resonance-pole part of the emitted field at time t > 0: the
    outgoing-wave amplitude of each open emission mode, whose intensities
    split into per-mode diagonal terms and the interference remainder.

    Each open channel n (on the second sheet) carries an outgoing pole
    wave; at lambda = 0 no channel is open and the field vanishes.  The
    diagonal term of mode m = -n is |amplitude_n|^2 and grows toward the
    light front with rate 2*|Im z_d|; the interference term oscillates in
    (t - |x|) with fundamental period 2*pi/omega.  The closed form holds
    only inside the front, |x| < t: past it each wave keeps growing like
    exp(2*|Im z_d|*(|x| - t)), where the physical field is near zero.
    """
    if not 0.0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    x = np.asarray(xgrid, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("xgrid positions must be finite")
    params = state.params
    pref = -1j * np.sqrt(TWO_PI) * params.lambda_ * state.emission_constant
    second = state.second_sheet
    n, R = state.ns[second], state.R[second]
    zeta = state.z_d - n * params.omega
    wave = np.exp(-1j * zeta[:, None] * (t - np.abs(x)))
    amps = (pref * R * np.sqrt(2.0 * zeta))[:, None] * wave
    return ModeAmplitudes(modes=-n[::-1], amps=amps[::-1])


def _times(t) -> np.ndarray:
    """The times t as a float array, each finite and nonnegative."""
    times = np.asarray(t, dtype=float)
    if not ((0.0 <= times) & (times < math.inf)).all():
        raise ValueError("t must be finite and nonnegative")
    return times


def survival_amplitude_floquet(state: ResonanceState, t):
    """Pole-subspace amplitude of the bare excited state at the times t,
    complex values in t's shape (0-d for a scalar t).

    At t = 0 this is the pole-subspace overlap, close to but below 1; the
    continuum carries the small remainder.  For lambda = 0 the modulus is
    exactly 1 and the phase is the exact driven-level phase.
    """
    times = _times(t)
    w = state.params.omega * times  # sum_n R_n e^{inw}, Horner in e^{iw}
    phases = np.exp(1j * state.ns[0] * w) * np.polyval(state.R[::-1],
                                                        np.exp(1j * w))
    return state.emission_constant * phases * np.exp(-1j * state.z_d * times)


def _floquet_states(params):
    """Multipliers mu of the one-period propagator U(T) of the emitter and
    its pseudo-modes, all stepped at once, and the harmonic ladder C[n, j]
    of each Floquet state j, n from -N//2 on the N-step grid."""
    from numpy.polynomial.legendre import leggauss  # no command needs it
    x, w = leggauss(CONTOUR_NODES)
    theta = 0.5 * math.pi * (x + 1.0)
    eps = 0.5 * params.k_c * (1.0 - np.cos(theta)) \
        - 1j * CONTOUR_DEPTH * np.sin(theta)
    # mirrored coupling 2 lambda^2 V^2 = g^2 = 4 lambda^2 eps eps' w pi/2
    V = np.sqrt(math.pi * w * eps * (0.5 * params.k_c * np.sin(theta)
                                     - 1j * CONTOUR_DEPTH * np.cos(theta)))
    _, rows, photons = _lawson(params, eps, V, TWO_PI / params.omega,
                               DEFAULT_DT * min(1.0, TWO_PI / params.k_c),
                               np.eye(eps.size + 1, dtype=complex))
    n = len(rows) - 1
    mu, vecs = np.linalg.eig(np.vstack([rows[-1], photons]))
    # (e_d^T U(s) V)_j mu_j^(-s/T) (V^-1 e_d)_j is T-periodic in s
    wave = rows[:-1] @ vecs * np.exp(-np.outer(np.arange(n) / n, np.log(mu)))
    return mu, np.fft.fftshift(np.fft.fft(
        wave * np.linalg.inv(vecs)[:, 0], axis=0), axes=0) / n


def survival_amplitude_complete(params: ModelParams, t):
    """Complete amplitude of the bare excited state of ``params`` at the
    times t >= 0, complex values in t's shape (0-d for a scalar t), pole plus
    background, as the Floquet eigenvector expansion, which needs no pole
    (none is solved at a channel threshold).

    For tau >= 0 the continuum's memory kernel keeps its value on the
    contour eps(theta) = k_c (1 - cos theta)/2 - i CONTOUR_DEPTH sin theta,
    theta in (0, pi) (Berggren, Nucl. Phys. A 109, 265, 1968; Garraway,
    Phys. Rev. A 55, 2290, 1997), whose CONTOUR_NODES Gauss-Legendre nodes
    are the emitter's pseudo-modes.  Each Floquet state of their periodic
    system is a quasi-energy z_j = i log(mu_j)/T and a harmonic ladder
    (Shirley, Phys. Rev. 138, B979, 1965):
    c(t) = sum_j e^{-i z_j t} sum_n C[n, j] e^{i n omega t}.
    """
    times = _times(t)
    if times.size == 0:
        return np.zeros(times.shape, dtype=complex)
    mu, ladders = _floquet_states(params)
    N, wt = len(ladders), params.omega * times.reshape(-1, 1)
    e_n = np.exp(1j * wt * (np.arange(0, N, 32) - N // 2))[:, :, None] \
        * np.exp(1j * wt * np.arange(32))[:, None]  # e^{i(32q + r - N//2)wt}
    out = np.sum(e_n.reshape(wt.size, -1)[:, :N] @ ladders * np.exp(
        wt / TWO_PI * np.log(mu)), axis=1)  # e^{-i z t}
    return out.reshape(times.shape)
