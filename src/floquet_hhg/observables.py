"""Emission observables assembled from the resonance pole state.

All three observables share the same ingredients: the pole z_d, the ladder
coefficients R_n/L_n, the normalization N_d, and the emission prefactor
N_d * sum_n L_n.  Writing zeta_n = z_d - n*omega for the shifted pole of
channel n:

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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI
from .solver import ResonanceState, SolverOptions, resolvent_column

#: Default half-width of the emission-mode window.  The coherent spectrum
#: converges in the coefficient amplitudes (not their squares), which at
#: A/omega = 2 need |n| ~ 12 to reach the 1e-8 doubling bar.
DEFAULT_MODE_WINDOW = 12

#: Contour height, energy half-range, energy step and relative drift bar
#: of the resolvent integral behind ``survival_amplitude_complete``.  They
#: converge on t in [0, 20] at the reference coupling.
RESOLVENT_ETA = 0.25
RESOLVENT_RANGE = 60.0
RESOLVENT_STEP = 0.08
RESOLVENT_TOL = 5e-3


@dataclass(frozen=True, eq=False)
class SpectrumDataset:
    """Photon spectrum on a momentum grid: coherent total plus the
    per-mode Lorentzian components, one row of ``lines`` per emission
    mode m in ``modes`` (ascending)."""

    kgrid: np.ndarray
    total: np.ndarray
    modes: np.ndarray
    lines: np.ndarray
    mode_window: int


@dataclass(frozen=True, eq=False)
class SpatialFieldDataset:
    """Resonance field on a position grid at fixed time, with its exact
    diagonal/interference split, one row of ``diagonal`` per emission mode
    m in ``modes`` (ascending): sum(diagonal) + interference == |field|^2
    pointwise."""

    xgrid: np.ndarray
    t: float
    field: np.ndarray
    modes: np.ndarray
    diagonal: np.ndarray
    interference: np.ndarray
    mode_window: int

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.field) ** 2


def local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of the interior local maxima of a sampled curve (a plateau
    counts once, at its left end)."""
    inner = (values[1:-1] > values[:-2]) & (values[1:-1] >= values[2:])
    return np.where(inner)[0] + 1


def _pole_mode_sum(state: ResonanceState, mode_window: int, what: str,
                   amplitudes, open_only: bool):
    """Channel sum of the per-channel amplitudes ``amplitudes(zeta_n,
    R_n)`` (one row per channel n, zeta_n = z_d - n*omega) over the mode
    window |n| <= mode_window, verified by doubling.

    The check window is [-check, check], check = min(2 * mode_window,
    window), restricted to the second-sheet channels if ``open_only``.
    The window is rejected if |sum|^2 over the check window differs from
    it by more than 1e-8 relative to any interior local maximum or to the
    largest value of |sum|^2.  Returns the emission modes m = -n of the
    window (ascending), their amplitude rows and the windowed sum (added
    in ascending channel order).
    """
    if mode_window < 1:
        raise ValueError("mode window must be at least 1")
    check = min(2 * mode_window, state.window)
    reach = max(check, mode_window)
    lo, hi = state.ns[0], state.ns[-1]
    if lo > -reach or hi < reach:
        raise ValueError(
            f"mode window {mode_window} needs the ladder on [-{reach}, "
            f"{reach}]; the state holds it on [{lo}, {hi}]")
    n = np.arange(-check, check + 1)
    if open_only:
        n = n[state.second_sheet[n - lo]]
    amps = amplitudes(state.z_d - n * state.params.omega, state.R[n - lo])
    inner = np.abs(n) <= mode_window
    total = amps[inner].sum(axis=0)
    if not inner.all():
        narrow = np.abs(total) ** 2
        wide = np.abs(amps.sum(axis=0)) ** 2
        moved = np.abs(wide - narrow)
        peaks = local_maxima(narrow)
        drift = float(np.max(moved[peaks] / narrow[peaks], initial=0.0))
        if np.max(wide) > 0.0:
            drift = max(drift, float(np.max(moved) / np.max(wide)))
        if drift > 1e-8:
            raise ConvergenceError(
                f"mode window {mode_window} not converged for the {what}: "
                f"doubling moves it by {drift:.3e}")
    return -n[inner][::-1], amps[inner][::-1], total


def hhg_spectrum(state: ResonanceState, kgrid,
                 mode_window: int = DEFAULT_MODE_WINDOW) -> SpectrumDataset:
    """Long-time photon spectrum: coherent channel sum plus the per-mode
    Lorentzian components of emission modes m = -n with a nonzero line.

    The grid must lie inside (-k_c, k_c); the spectrum is even in k.  The
    mode window is convergence-checked by doubling (when the solver window
    allows).
    """
    k = np.asarray(kgrid, dtype=float)
    params = state.params
    if np.any(np.abs(k) >= params.k_c):
        raise ValueError("momentum grid must lie inside (-k_c, k_c)")
    eps_k = np.abs(k)

    def amplitudes(zeta, R):  # long-time photon state per channel
        weight = state.emission_constant * R * params.lambda_
        amps = weight[:, None] * np.sqrt(2.0 * eps_k)
        amps /= zeta[:, None] - eps_k
        return amps

    modes, amps, total = _pole_mode_sum(state, mode_window, "spectrum",
                                        amplitudes, open_only=False)
    lines = np.abs(amps) ** 2
    shown = np.max(lines, axis=1) > 0.0
    return SpectrumDataset(kgrid=k, total=np.abs(total) ** 2,
                           modes=modes[shown], lines=lines[shown],
                           mode_window=mode_window)


def resonance_spatial_field(state: ResonanceState, xgrid, t: float,
                            mode_window: int = DEFAULT_MODE_WINDOW
                            ) -> SpatialFieldDataset:
    """Resonance-pole part of the emitted field at time t > 0, decomposed
    into per-mode diagonal intensities and the interference remainder.

    Each open channel n (on the second sheet) carries an outgoing pole
    wave; closed channels contribute nothing, and at lambda = 0 there are
    no open channels and the field vanishes identically.  The diagonal
    term of emission mode m = -n is |amplitude_n|^2 and grows
    monotonically toward the light front with rate 2*|Im z_d|; the
    interference term oscillates in (t - |x|) with fundamental period
    2*pi/omega.  The split is algebraically exact.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    x = np.asarray(xgrid, dtype=float)
    params = state.params
    absx = np.abs(x)
    pref = -1j * np.sqrt(TWO_PI) * params.lambda_ * state.emission_constant

    def amplitudes(zeta, R):  # outgoing pole wave per open channel
        wave = np.exp(-1j * zeta[:, None] * (t - absx))
        return (pref * R * np.sqrt(2.0 * zeta))[:, None] * wave

    modes, amps, field = _pole_mode_sum(state, mode_window, "spatial field",
                                        amplitudes, open_only=True)
    diagonal = np.abs(amps) ** 2
    interference = np.abs(field) ** 2
    for term in diagonal[::-1]:  # ascending channel order
        interference = interference - term
    return SpatialFieldDataset(xgrid=x, t=float(t), field=field, modes=modes,
                               diagonal=diagonal, interference=interference,
                               mode_window=mode_window)


def survival_amplitude_floquet(state: ResonanceState, t):
    """Pole-subspace amplitude of the bare excited state at time(s) t.

    At t = 0 this is the pole-subspace overlap, close to but below 1; the
    continuum carries the small remainder.  For lambda = 0 the modulus is
    exactly 1 and the phase is the exact driven-level phase.
    """
    times = np.asarray(t, dtype=float)
    scalar = times.ndim == 0
    times = np.atleast_1d(times)
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
    if np.any(times < 0.0):
        raise ValueError("t must be nonnegative")
    params = state.params
    energy_range = RESOLVENT_RANGE
    # sheets selected on Im z = eta > 0: every channel on the first sheet
    options = SolverOptions(window=state.window)
    levels = np.arange(-state.window, state.window + 1)

    # a multiple of 4 intervals, so the half range and the doubled step
    # are sub-sums on the same points
    n_int = 4 * int(math.ceil(energy_range / (2.0 * RESOLVENT_STEP)))
    z = np.linspace(-energy_range, energy_range, n_int + 1) \
        + 1j * RESOLVENT_ETA
    h = 2.0 * energy_range / n_int
    w = params.epsilon_d - 1.0j
    columns = np.empty((z.size, levels.size + 3), dtype=complex)
    for j, zj in enumerate(z):
        columns[j, :levels.size] = resolvent_column(params, zj, options)
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
    drift = float(np.max(np.abs(amps[1:] - out) / np.abs(out)))
    if not drift <= RESOLVENT_TOL:
        raise ConvergenceError(
            f"resolvent integral not converged on |Re z| <= "
            f"{energy_range}: half range or double step moves |c| by "
            f"{drift:.3e} > {RESOLVENT_TOL:.1e}")
    if scalar:
        return complex(out[0])
    return out
