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
  complete amplitude (pole plus branch-cut background) inverts the
  Floquet resolvent G_n0(z) = R_n(z)/D(z) along a line above the real
  axis instead of keeping only its pole.

The spectrum and the field each return one ``ModeAmplitudes``: the
complex term of each emission mode m = -n on the grid.  The coherent
total, the per-mode diagonal intensities and their interference are
derived from it, so they cannot contradict each other.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI
from .solver import ResonanceState, resolvent_column

#: Contour height, energy half-range, energy step and relative drift bar
#: of the resolvent integral behind ``survival_amplitude_complete``.  They
#: converge on t in [0, 20] at the reference coupling.
RESOLVENT_ETA = 0.25
RESOLVENT_RANGE = 60.0
RESOLVENT_STEP = 0.08
RESOLVENT_TOL = 5e-3


@dataclass(frozen=True, eq=False)
class ModeAmplitudes:
    """Complex amplitude of each emission mode m in ``modes`` (ascending)
    on a grid, one row of ``amps`` per mode.  Every intensity is derived:
    the coherent ``total``, the per-mode ``diagonal`` terms and their
    ``interference``, with sum(diagonal) + interference == total."""

    grid: np.ndarray
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
    mode m = -n over the state's whole ladder, keeping the modes with a
    nonzero amplitude on the grid; ``total`` is the coherent spectrum and
    ``diagonal`` its per-mode Lorentzian lines.

    The grid must lie inside (-k_c, k_c); the spectrum is even in k.
    """
    k = np.asarray(kgrid, dtype=float)
    params = state.params
    if not np.all(np.abs(k) < params.k_c):
        raise ValueError("momentum grid must lie inside (-k_c, k_c)")
    eps_k = np.abs(k)
    zeta = state.z_d - state.ns * params.omega
    weight = state.emission_constant * state.R * params.lambda_
    amps = weight[:, None] * np.sqrt(2.0 * eps_k)  # photon state per channel
    # an uncoupled channel emits nothing, on its own pole too
    np.divide(amps, zeta[:, None] - eps_k, out=amps,
              where=weight[:, None] != 0.0)
    amps = amps[::-1]  # by ascending mode m = -n
    shown = amps.any(axis=1)
    return ModeAmplitudes(grid=k, modes=-state.ns[::-1][shown],
                          amps=amps[shown])


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
    return ModeAmplitudes(grid=x, modes=-n[::-1], amps=amps[::-1])


def survival_amplitude_floquet(state: ResonanceState, t):
    """Pole-subspace amplitude of the bare excited state at time(s) t.

    At t = 0 this is the pole-subspace overlap, close to but below 1; the
    continuum carries the small remainder.  For lambda = 0 the modulus is
    exactly 1 and the phase is the exact driven-level phase.
    """
    times = np.asarray(t, dtype=float)
    scalar = times.ndim == 0
    times = np.atleast_1d(times)
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    w = state.params.omega * times  # sum_n R_n e^{inw}, Horner in e^{iw}
    phases = np.exp(1j * state.ns[0] * w) * np.polyval(state.R[::-1],
                                                        np.exp(1j * w))
    out = state.emission_constant * phases * np.exp(-1j * state.z_d * times)
    if scalar:
        return complex(out[0])
    return out


def survival_amplitude_complete(state: ResonanceState, t):
    """Complete amplitude of the bare excited state at time(s) t >= 0:
    resonance pole plus the branch-cut (non-pole) background.

    Inverts the Floquet resolvent G_n0(z) = R_n(z)/D(z) on the first sheet,

        c(t) = sum_n exp(i*n*omega*t) * (i/2pi) * integral_{Im z = eta}
               exp(-i*z*t) * G_n0(z) dz,

    with eta = RESOLVENT_ETA, by the trapezoidal rule on |Re z| <=
    RESOLVENT_RANGE with step at most RESOLVENT_STEP.  The slow large-|z|
    tail 1/z + E(t)/z^2 + a(t)/z^3, with E(t) = eps_d + A*sin(omega*t)
    and a(t) = E^2 - i*E'(t) + lambda^2 * 2*k_c^2 (the last term is the
    integral of rho), is subtracted as 1/(z-w) + b2/(z-w)^2 + b3/(z-w)^3
    with w below the real axis and added back in closed form.  The sums
    over half the range and over every other energy point bound the
    error of the returned one; if either differs from it by more than
    RESOLVENT_TOL relative to |c(t)| at any t, ConvergenceError is raised.
    The error grows like exp(eta*t), which limits the reach in t.

    Each energy point costs one resolvent column (one continued fraction
    per ladder wing).
    """
    times = np.asarray(t, dtype=float)
    scalar = times.ndim == 0
    times = np.atleast_1d(times)
    if not (0.0 <= times).all() or not np.isfinite(times).all():
        raise ValueError("t must be finite and nonnegative")
    if times.size == 0:
        return np.zeros(0, dtype=complex)
    params = state.params
    # a multiple of 4 intervals, so the half range and the doubled step
    # are sub-sums on the same points
    n_int = 4 * int(math.ceil(RESOLVENT_RANGE / (2.0 * RESOLVENT_STEP)))
    z = np.linspace(-RESOLVENT_RANGE, RESOLVENT_RANGE, n_int + 1) \
        + 1j * RESOLVENT_ETA
    h = 2.0 * RESOLVENT_RANGE / n_int
    w = params.epsilon_d - 1.0j
    # first-sheet columns (Im z > 0), each sized by its own ladder
    sized = [resolvent_column(params, zj) for zj in z]
    half = max(col.size for col in sized) // 2
    levels = np.arange(-half, half + 1)
    columns = np.zeros((z.size, levels.size + 3), dtype=complex)
    for j, col in enumerate(sized):
        columns[j, half - col.size // 2:half + col.size // 2 + 1] = col
    for power in range(1, 4):
        columns[:, levels.size + power - 1] = (z - w) ** -power

    # trapezoid weights: full grid, half range, every other point
    weights = np.zeros((3, z.size))
    weights[0] = h
    weights[1, n_int // 4:3 * n_int // 4 + 1] = h
    weights[2, ::2] = 2.0 * h
    weights[:, [0, -1]] *= 0.5
    weights[1, [n_int // 4, 3 * n_int // 4]] *= 0.5

    omt = params.omega * times
    E = params.epsilon_d + params.A * np.sin(omt)
    a3 = (E ** 2 - 1j * params.A * params.omega * np.cos(omt)
          + params.lambda_ ** 2 * 2.0 * params.k_c ** 2)
    b2 = E - w
    b3 = a3 - 2.0 * w * E + w ** 2
    ladder_phase = np.exp(1j * np.outer(omt, levels))
    closed = np.exp(-1j * w * times) * (1.0 - 1j * times * b2
                                        - 0.5 * times ** 2 * b3)
    sums = np.empty((3, times.size), dtype=complex)
    for start in range(0, times.size, 256):
        sl = slice(start, start + 256)
        phase = np.exp(-1j * np.outer(times[sl], z))
        for q in range(3):
            proj = (phase * weights[q]) @ columns
            sums[q, sl] = (np.sum(ladder_phase[sl] * proj[:, :levels.size],
                                  axis=1)
                           - proj[:, -3] - b2[sl] * proj[:, -2]
                           - b3[sl] * proj[:, -1])
    amps = closed + (1j / TWO_PI) * sums
    out = amps[0]
    drift = float(np.max(np.abs(amps[1:] - out) / np.abs(out),
                         initial=0.0))
    if not drift <= RESOLVENT_TOL:
        raise ConvergenceError(
            f"resolvent integral not converged on |Re z| <= "
            f"{RESOLVENT_RANGE}: half range or double step moves |c| by "
            f"{drift:.3e} > {RESOLVENT_TOL:.1e}")
    if scalar:
        return complex(out[0])
    return out
