"""Brute-force ground truth: direct integration of the driven emitter
coupled to a box-discretized photon continuum.

The excitation-number-conserving Hamiltonian closes on the single
excitation sector (emitter amplitude plus one amplitude per retained
photon mode), so the exact dynamics reduces to a linear ODE with the
time-dependent diagonal eps_d + A*sin(omega*t), integrated here by a
fixed-step integrating-factor (Lawson) RK4, the free and driven phases
exact, whose steps compose into block maps of ``BLOCK`` steps: a block
costs two BLAS products over the modes and one small matvec.  The photon
field on an evenly spaced grid is one chirp-z transform.  The odd
combinations psi_k - psi_{-k} never couple to the emitter and stay zero,
so only k > 0 is integrated.
Every spectral-analysis result is validated against this integrator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams

#: Default box length and FFT size of discretize; horizon and step of evolve.
DEFAULT_BOX_LENGTH, DEFAULT_N_MODES = 400.0, 8192
DEFAULT_T_END, DEFAULT_DT = 20.0, 1e-2
#: Acceptable total norm drift over a full run.
NORM_DRIFT_TOL = 1e-8
#: Steps composed into one block map (measured fastest of 2, 3, 4, 6, 8, 16).
BLOCK = 4
#: Block maps built at once: bounds their memory, whatever the run length.
_CHUNK = 256
#: Largest departure of a field grid point from x_0 + i*dx, in ulps of max |x|.
_GRID_ULPS = 4


@dataclass(frozen=True, eq=False)
class DiscretizedSystem:
    """Box-normalized single-excitation system of length L: mirrored modes
    k_j = 2*pi*j/L, j != 0, retaining |k_j| <= k_c, and couplings
    V_j = sqrt(4*pi*|k_j|/L), both read-only arrays built from L."""

    params: ModelParams
    box_length: float
    k: np.ndarray = field(init=False)
    V: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        L, k_c = self.box_length, self.params.k_c
        if not 0.0 < L < math.inf:
            raise ValueError("box_length must be positive and finite")
        # only j <= floor(k_c L / 2 pi) + 1 can pass the cutoff; mirror them
        j = np.arange(1, int(k_c * L / TWO_PI) + 2)
        k = TWO_PI * j / L
        k = np.concatenate([-k[::-1], k])
        keep = np.abs(k) <= k_c
        if not np.any(keep):
            raise ValueError(f"box_length={L} keeps no mode with "
                             f"|k| <= k_c={k_c}")
        k = k[keep]
        V = np.sqrt(4.0 * math.pi * np.abs(k) / L)
        k.flags.writeable = V.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "V", V)

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
    """Evolution: (t, psi_d) at every step and the final photon psi_k."""

    times: np.ndarray
    psi_d: np.ndarray
    psi_k: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1])

    @property
    def final(self) -> SectorState:
        return SectorState(psi_d=self.psi_d[-1], psi_k=self.psi_k,
                           t=self.times[-1])

    @property
    def norm_drift(self) -> float:
        return abs(self.final.norm_sq - 1.0)


def discretize(params: ModelParams, box_length: float = DEFAULT_BOX_LENGTH,
               n_modes: int = DEFAULT_N_MODES) -> DiscretizedSystem:
    """The box of ``box_length`` if every mode j it keeps lies within
    ``n_modes`` / 2, checked before the grid is built."""
    if n_modes < 64:
        raise ValueError("n_modes must be at least 64")
    if n_modes % 2:
        raise ValueError("n_modes must be even")
    if box_length > 0.0 and math.pi * n_modes / box_length < params.k_c:
        raise ValueError(
            f"n_modes={n_modes} too small to cover (-k_c, k_c) at "
            f"box_length={box_length}")
    return DiscretizedSystem(params, float(box_length))


def _block_maps(c: np.ndarray, h: float, lambda_: float, g: np.ndarray
                ) -> np.ndarray:
    """Block maps [u, y_0..y_2B] -> [u_1..u_B, d_0..d_2B] of the blocks
    whose step rotors (start, middle, end) are c (3, blocks, B)."""
    # the RK4 stages (sums doubled for mirrors) map (u, q0, qh, qf) to
    # (u', x) linearly, so they act on coefficient rows over the inputs;
    # the photons x @ W of step l reach the block's end as d_j E_j,
    # j = 2(B-1-l) + (0, 1, 2), and step m > l overlaps them through g
    maps = np.zeros((3 * BLOCK + 1, 2 * BLOCK + 2, c.shape[1]), dtype=complex)
    d, unit = maps[BLOCK:], np.eye(2 * BLOCK + 2)[:, :, None]
    G = np.stack([g[s:s + 2 * BLOCK - 1] for s in range(3)])
    mu, nu, hh, S0, Sh = -2j * lambda_, -1j * lambda_, 0.5 * h, g[0], g[1]
    ud = unit[0]
    for m in range(BLOCK):
        lo = 2 * (BLOCK - m)
        q0, qh, qf = unit[2 * m + 1:2 * m + 4] + np.tensordot(
            G[:, :2 * m + 1], d[lo:], 1)
        c0, ch, cf = c[:, :, m]
        b0, bh, bf = c0.conj(), ch.conj(), cf.conj()
        k1, a1 = mu * c0 * q0, nu * b0 * ud
        k2, a2 = mu * ch * (qh + hh * Sh * a1), nu * bh * (ud + hh * k1)
        k3, a3 = mu * ch * (qh + hh * S0 * a2), nu * bh * (ud + hh * k2)
        k4, a4 = mu * cf * (qf + h * Sh * a3), nu * bf * (ud + h * k3)
        ud = maps[m] = ud + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        d[lo - 2:lo + 1] += (h / 6.0) * a4, (h / 3.0) * (a2 + a3), \
            (h / 6.0) * a1
    return np.ascontiguousarray(maps.transpose(2, 0, 1))


def evolve(system: DiscretizedSystem, t_end: float = DEFAULT_T_END,
           dt: float = DEFAULT_DT) -> Trajectory:
    """Integrating-factor (Lawson) RK4 integration of the sector ODE from
    psi_d = 1, no photons, to t_end (Lawson, SIAM J. Numer. Anal. 4, 372,
    1967; Hochbruck & Ostermann, Acta Numerica 19, 209, 2010).

    The free phases exp(-i|k|t) and the driven emitter phase exp(-i phi(t)),
    phi(t) = eps_d t - (A/omega)(cos(omega t) - 1), are carried exactly (no
    stroboscopic approximation); RK4 integrates only the lambda*V coupling
    over the k > 0 half (psi_k - psi_{-k} never couples and stays zero).
    One step is linear in the interaction-picture emitter amplitude u and
    the photon overlaps (q0, qh, qf) = W @ psi_k with the coupling rows
    V exp(-i|k|s), s = 0, h/2, h: a 4 x 4 step map gives u' and the
    emitted photons x @ W.  B = ``BLOCK`` step maps compose into one
    (3B+1) x (2B+2) block map from u and the overlaps y = E @ psi_k,
    E_j = V exp(-ijh|k|/2), j = 0..2B, to the block's B amplitudes u and
    the weights d of its emitted photons d @ E; these act on later steps
    of the block through the kernel g_j = sum_k V_k^2 exp(-ijh|k|/2).  A
    block costs the two products over the modes and one small matvec;
    uncoupled lead steps fill the first block.
    At the default dt the norm drifts by about 1e-10 over t = 20.  Drift
    beyond ``NORM_DRIFT_TOL`` aborts the run; halve dt in that case.
    """
    if not (0.0 < t_end < math.inf and 0.0 < dt < math.inf):
        raise ValueError("t_end and dt must be positive and finite")
    p = system.params
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    # exp(i phi(t)), psi_d to the interaction picture, at t = j*h/2
    th = 0.5 * h * np.arange(2 * n_steps + 1)
    rot = np.exp(1j * (p.epsilon_d * th - p.a_over_omega
                       * (np.cos(p.omega * th) - 1.0)))
    # zero rotors make a lead step the identity on u and emit nothing
    n_blocks = -(-n_steps // BLOCK)
    lead = n_blocks * BLOCK - n_steps
    c = np.zeros((3, n_blocks * BLOCK), dtype=complex)
    c[:, lead:] = rot[:-1:2], rot[1::2], rot[2::2]
    c = c.reshape(3, n_blocks, BLOCK)

    half = system.k.size // 2
    V, k = system.V[half:], system.k[half:]
    E = V * np.exp(-0.5j * h * np.outer(np.arange(2 * BLOCK + 1), k))
    g, free = E @ V, np.exp(-1j * BLOCK * h * k)
    outs = np.empty((n_blocks, 3 * BLOCK + 1), dtype=complex)
    pk = np.zeros(half, dtype=complex)
    uy = np.eye(1, 2 * BLOCK + 2, dtype=complex)[0]  # [u, y] with u = 1
    for start in range(0, n_blocks, _CHUNK):
        maps = _block_maps(c[:, start:start + _CHUNK], h, p.lambda_, g)
        for out, M in zip(outs[start:], maps):
            np.matmul(E, pk, out=uy[1:])
            np.matmul(M, uy, out=out)
            uy[0] = out[BLOCK - 1]
            pk *= free
            pk += out[BLOCK:] @ E
    u = outs[:, :BLOCK].ravel()[lead:]
    psi = np.concatenate(([1.0 + 0.0j], rot[2::2].conj() * u))
    traj = Trajectory(times=np.arange(n_steps + 1) * h, psi_d=psi,
                      psi_k=np.concatenate([pk[::-1], pk]))
    if traj.norm_drift > NORM_DRIFT_TOL:
        raise ConvergenceError(
            f"norm drift {traj.norm_drift:.3e} exceeds {NORM_DRIFT_TOL:.1e} "
            f"over t_end={t_end}; decrease dt={dt}")
    return traj


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
    psi_j and its intensity |f|^2 on an evenly spaced grid inside the box.

    One chirp-z transform (Rabiner, Schafer & Rader, Bell Syst. Tech. J.
    48, 1249, 1969; Bluestein, IEEE Trans. Audio Electroacoust. 18, 451,
    1970): with k_j = j*delta_k and x_i = x_c + i*dx, both indices counted
    from their grid's middle (j = 0 by mirror symmetry), the phase is
    k_j*x_c + theta*(i^2 + j^2 - (i - j)^2)/2, theta = delta_k*dx, and the
    chirps make the sum one convolution of three power-of-two FFTs.  A
    point more than ``_GRID_ULPS`` ulps of max |x| off x_0 + i*dx raises
    ValueError.  Within 1e-12 of the dense sum's peak: about 1e-14 on the
    +-30 grids, 1.4e-13 across an L = 800 box.
    """
    x = np.asarray(xgrid, dtype=float)
    half = 0.5 * system.box_length
    if not np.all(np.abs(x) < half):
        raise ValueError(f"position grid must stay inside (-{half}, {half})")
    n_x, c = x.size, (x.size - 1) // 2
    tol = _GRID_ULPS * np.spacing(np.max(np.abs(x)))  # rejects an empty grid
    dx = (x[-1] - x[0]) / max(n_x - 1, 1)
    if not np.all(np.abs(x - (x[0] + dx * np.arange(n_x))) <= tol):
        raise ValueError(f"position grid must be evenly spaced: every "
                         f"point within {_GRID_ULPS} ulps of x_0 + i*dx")
    j = np.rint(system.k / system.delta_k).astype(int)
    J, i = int(j[-1]), np.arange(n_x) - c
    lag = np.arange(-J - c, n_x - c + J)  # every i - j
    # w[n] = exp(i theta n^2 / 2) for every |n| read below
    w = np.exp(0.5j * system.delta_k * dx * np.arange(lag[-1] + 1) ** 2)
    n_fft = 1 << (lag.size - 1).bit_length()
    a, b = np.zeros((2, n_fft), dtype=complex)
    a[j + J] = state.psi_k * np.exp(1j * system.k * x[c]) * w[np.abs(j)]
    b[(lag + c - J) % n_fft] = w[np.abs(lag)].conj()
    conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))[:n_x]
    f = w[np.abs(i)] * conv / math.sqrt(system.box_length)
    return x, f, np.abs(f) ** 2
