"""Brute-force ground truth: direct integration of the driven emitter
coupled to a box-discretized photon continuum.

The excitation-number-conserving Hamiltonian closes on the single
excitation sector (emitter amplitude plus one amplitude per retained
photon mode), so the exact dynamics reduces to a linear ODE with the
time-dependent diagonal eps_d + A*sin(omega*t), integrated here by a
fixed-step integrating-factor (Lawson) RK4: the free and driven phases
are exact and RK4 integrates only the coupling.  Every spectral-analysis
result is validated against this integrator.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams, as_points

#: Acceptable total norm drift over a full run.
NORM_DRIFT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DiscretizedSystem:
    """Box-normalized single-excitation system: modes k_j = 2*pi*j/L for
    j in [-N/2, N/2] without 0, retaining |k_j| <= k_c; couplings
    V_j = sqrt(4*pi*|k_j|/L) vanish beyond the cutoff."""

    params: ModelParams
    box_length: float
    n_modes: int
    k: np.ndarray
    V: np.ndarray

    @property
    def delta_k(self) -> float:
        return TWO_PI / self.box_length

    @property
    def n_retained(self) -> int:
        return int(self.k.size)


@dataclass(frozen=True, eq=False)
class SectorState:
    """Amplitudes of the single-excitation sector at one instant."""

    psi_d: complex
    psi_k: np.ndarray
    t: float

    @property
    def norm_sq(self) -> float:
        return abs(self.psi_d) ** 2 + float(np.sum(np.abs(self.psi_k) ** 2))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: dense (t, psi_d) series plus the final state."""

    times: np.ndarray
    psi_d: np.ndarray
    final: SectorState
    system: DiscretizedSystem
    dt: float
    norm_drift: float


def discretize(params: ModelParams, box_length: float = 400.0,
               n_modes: int = 8192) -> DiscretizedSystem:
    """Build the box-normalized mode grid and couplings."""
    if box_length <= 0.0:
        raise ValueError("box_length must be positive")
    if n_modes < 64:
        raise ValueError("n_modes must be at least 64")
    if n_modes % 2:
        raise ValueError("n_modes must be even")
    if math.pi * n_modes / box_length < params.k_c:
        raise ValueError(
            f"n_modes={n_modes} too small to cover (-k_c, k_c) at "
            f"box_length={box_length}")
    j = np.arange(-n_modes // 2, n_modes // 2 + 1)
    j = j[j != 0]
    k = TWO_PI * j / box_length
    keep = np.abs(k) <= params.k_c
    k = k[keep]
    V = np.sqrt(4.0 * math.pi * np.abs(k) / box_length)
    return DiscretizedSystem(params=params, box_length=float(box_length),
                             n_modes=int(n_modes), k=k, V=V)


def evolve(system: DiscretizedSystem, psi0: SectorState | None = None,
           t_end: float = 20.0, dt: float = 1e-2,
           sample_stride: int = 1) -> Trajectory:
    """Integrating-factor (Lawson) RK4 integration of the sector ODE up
    to t_end (Lawson, SIAM J. Numer. Anal. 4, 372, 1967; Hochbruck &
    Ostermann, Acta Numerica 19, 209, 2010).

    The free phases exp(-i|k|t) and the driven emitter phase exp(-i phi(t)),
    phi(t) = eps_d t - (A/omega)(cos(omega t) - 1), are carried exactly (no
    stroboscopic approximation); RK4 integrates only the lambda*V coupling.
    At the default dt the norm drifts by about 1e-10 over t = 20.  Drift
    beyond ``NORM_DRIFT_TOL`` aborts the run; halve dt in that case.
    """
    if t_end <= 0.0 or dt <= 0.0:
        raise ValueError("t_end and dt must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
    p = system.params
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    if psi0 is None:
        psi0 = SectorState(psi_d=1.0 + 0.0j, t=0.0,
                           psi_k=np.zeros(system.k.shape, dtype=complex))
    elif np.shape(psi0.psi_k) != system.k.shape:
        raise ValueError("psi0 does not match the retained mode grid")
    pd, pk = complex(psi0.psi_d), np.array(psi0.psi_k, dtype=complex)

    def rotor(t: float) -> complex:
        # exp(i phi(t)): takes psi_d to the interaction picture
        return cmath.exp(1j * (p.epsilon_d * t - p.a_over_omega
                               * (math.cos(p.omega * t) - 1.0)))

    def slopes(c: complex, s: complex, d: complex) -> tuple[complex, complex]:
        # emitter slope from the photon sum s; photon slope per conj(row)
        return -1j * p.lambda_ * c * s, -1j * p.lambda_ * c.conjugate() * d

    # Within a step the photons ride the free frame started at t_n, where
    # the coupling profile at t_n + s is V exp(-i|k|s); the rows of W are
    # s = 0, h/2, h.  Every photon stage slope is a scalar times a
    # conjugated row, so each stage's photon sum is a row sum with psi_k
    # plus that scalar times an overlap sum_k V^2 exp(-i|k|s).
    V, free = system.V, np.exp(-1j * h * np.abs(system.k))
    W = np.stack([V, V * np.exp(-0.5j * h * np.abs(system.k)), V * free])
    S0, Sh = np.sum(V * W[:2], axis=1).tolist()
    ud, c0 = pd, 1.0 + 0.0j
    times, series = [0.0], [pd]
    for step in range(1, n_steps + 1):
        t = step * h
        ch, cf = rotor(t - 0.5 * h), rotor(t)
        q0, qh, qf = np.sum(W * pk, axis=1).tolist()
        k1, a1 = slopes(c0, q0, ud)
        k2, a2 = slopes(ch, qh + 0.5 * h * a1 * Sh, ud + 0.5 * h * k1)
        k3, a3 = slopes(ch, qh + 0.5 * h * a2 * S0, ud + 0.5 * h * k2)
        k4, a4 = slopes(cf, qf + h * a3 * Sh, ud + h * k3)
        ud = ud + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pk = free * pk + (h / 6.0) * (
            a4 * W[0] + 2.0 * (a2 + a3) * W[1] + a1 * W[2])
        pd, c0 = cf.conjugate() * ud, cf
        if step % sample_stride == 0 or step == n_steps:
            times.append(t)
            series.append(pd)
    final = SectorState(psi_d=pd, psi_k=pk, t=t)
    drift = abs(final.norm_sq - psi0.norm_sq)
    if drift > NORM_DRIFT_TOL:
        raise ConvergenceError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:.1e} over "
            f"t_end={t_end}; decrease dt={dt}")
    return Trajectory(times=np.array(times), psi_d=np.array(series),
                      final=final, system=system, dt=h, norm_drift=drift)


def survival_probability(trajectory: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Series (t, |psi_d|^2); quantum beats allowed, no monotonicity."""
    return trajectory.times, np.abs(trajectory.psi_d) ** 2


def photon_spectrum(system: DiscretizedSystem, state: SectorState
                    ) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Density-normalized photon spectrum (k_j, |psi_k|^2 * L / 2*pi).

    Comparable with the continuum spectrum once the excited state has
    decayed; a warning string is returned if called too early.
    """
    warning = None
    survival = abs(state.psi_d) ** 2
    if survival >= 1e-3:
        warning = (f"photon spectrum sampled before decay: survival "
                   f"{survival:.3e} >= 1e-3")
    spec = np.abs(state.psi_k) ** 2 * system.box_length / TWO_PI
    return system.k.copy(), spec, warning


def spatial_field(system: DiscretizedSystem, state: SectorState, xgrid
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Position-space photon field f(x) = (1/sqrt(L)) sum_j e^{i k_j x}
    psi_j and its intensity |f|^2; x must stay inside the box."""
    x = as_points(xgrid, "position-x")
    half = 0.5 * system.box_length
    if np.any(np.abs(x) >= half):
        raise ValueError(f"position grid must stay inside (-{half}, {half})")
    # k_j = j*delta_k, so the sum is exp(i k_min x) times a polynomial in
    # exp(i delta_k x) whose coefficients are psi_j (zero at j = 0)
    j = np.rint(system.k / system.delta_k).astype(int)
    coeffs = np.zeros(j[-1] - j[0] + 1, dtype=complex)
    coeffs[j[-1] - j] = state.psi_k
    f = np.exp(1j * system.k[0] * x) * np.polyval(
        coeffs, np.exp(1j * system.delta_k * x)) / math.sqrt(
        system.box_length)
    return x, f, np.abs(f) ** 2
