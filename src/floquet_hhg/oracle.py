"""Brute-force ground truth: direct integration of the driven emitter
coupled to a box-discretized photon continuum.

The excitation-number-conserving Hamiltonian closes on the single
excitation sector (emitter amplitude plus one amplitude per retained
photon mode), so the exact dynamics reduces to a linear ODE with the
time-dependent diagonal eps_d + A*sin(omega*t).  One fixed-step
integrating-factor (Lawson) RK4 stepper, the free and driven phases
exact, runs whole blocks of ``BLOCK`` steps, each one precomputed block
map, picks its own step count by one rule and carries any number of
initial states at once: the box here, and the contour pseudo-modes of
``observables.survival_amplitude_complete``.  The photon field on an
evenly spaced grid is one chirp-z transform.  The odd combinations
psi_k - psi_{-k} never couple to the emitter and stay zero, so the box
holds only its k > 0 modes: psi_{-k} = psi_k.
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
#: Acceptable norm drift over a run; the most halvings of dt evolve tries.
NORM_DRIFT_TOL, DT_HALVINGS = 1e-8, 4
#: Steps composed into one block map (measured fastest of 2, 3, 4, 6, 8, 16).
BLOCK = 4
#: Block maps built at once: bounds their memory, whatever the run length.
_CHUNK = 256
#: Largest departure of a field grid point from x_0 + i*dx, in ulps of max |x|.
_GRID_ULPS = 4


@dataclass(frozen=True, eq=False)
class DiscretizedSystem:
    """Box-normalized single-excitation system of length L: the modes
    k_j = 2*pi*j/L <= k_c, j = 1..J, each standing for its mirror -k_j, and
    couplings V_j = sqrt(4*pi*k_j/L), read-only arrays built from L."""

    params: ModelParams
    box_length: float
    k: np.ndarray = field(init=False)
    V: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        L, k_c = self.box_length, self.params.k_c
        if not 0.0 < L < math.inf:
            raise ValueError("box_length must be positive and finite")
        # only j <= floor(k_c L / 2 pi) + 1 can pass the cutoff
        k = TWO_PI * np.arange(1, int(k_c * L / TWO_PI) + 2) / L
        k = k[k <= k_c]
        if not k.size:
            raise ValueError(f"box_length={L} keeps no mode with "
                             f"|k| <= k_c={k_c}")
        V = np.sqrt(4.0 * math.pi * k / L)
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
        # each k > 0 mode counts for its mirrored pair
        return abs(self.psi_d) ** 2 + 2.0 * float(
            np.sum(np.abs(self.psi_k) ** 2))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Evolution: (t, psi_d) at every step and the final k > 0 psi_k."""

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


def _lawson(params: ModelParams, k: np.ndarray, V: np.ndarray, span: float,
            max_step: float, states: np.ndarray
            ) -> tuple[float, np.ndarray, np.ndarray]:
    """Integrating-factor (Lawson) RK4 of the emitter coupled to modes
    (k, V), each standing for a mirrored pair and so coupled twice (the
    box's k > 0 half, or contour pseudo-modes), from each column of
    ``states`` (emitter row, photon block) at t = 0 over ``span``: the
    step h, the emitter rows at every step and the final photon block.
    The nearest whole number of ``max_step`` steps, at least one, rounds
    up to whole blocks of B = ``BLOCK`` steps, which set h.

    The free phases exp(-ikt) and the driven emitter phase exp(-i phi(t)),
    phi(t) = eps_d t - (A/omega)(cos(omega t) - 1), are carried exactly;
    RK4 integrates only the coupling.  One step is linear in the
    interaction-picture emitter amplitude u and the photon overlaps with
    the coupling rows V exp(-iks), s = 0, h/2, h.  B steps compose into
    one (3B+1) x (2B+2) block map from u and the overlaps
    y = E @ psi_k, E_j = V exp(-ijhk/2), j = 0..2B, to the block's B
    amplitudes u and the weights d of its emitted photons d @ E; these act
    on later steps of the block through the kernel g_j = sum_k V_k^2
    exp(-ijhk/2).  A block costs two products over the modes and one small
    matmul.
    """
    n_blocks = -(-max(1, round(span / max_step)) // BLOCK)
    h = span / (BLOCK * n_blocks)
    # exp(i phi(t)), psi_d to the interaction picture, at t = j*h/2
    th = 0.5 * h * np.arange(2 * BLOCK * n_blocks + 1)
    rot = np.exp(1j * (params.epsilon_d * th - params.a_over_omega
                       * (np.cos(params.omega * th) - 1.0)))
    c = np.stack((rot[:-1:2], rot[1::2], rot[2::2])).reshape(3, -1, BLOCK)
    E = V * np.exp(-0.5j * h * np.outer(np.arange(2 * BLOCK + 1), k))
    g, free = E @ V, np.exp(-1j * BLOCK * h * k)[:, None]
    outs = np.empty((n_blocks, 3 * BLOCK + 1, states.shape[1]), dtype=complex)
    pk = states[1:].copy()
    uy = np.empty((2 * BLOCK + 2, states.shape[1]), dtype=complex)  # [u, y]
    uy[0] = states[0]
    for start in range(0, n_blocks, _CHUNK):
        maps = _block_maps(c[:, start:start + _CHUNK], h, params.lambda_, g)
        for out, M in zip(outs[start:], maps):
            np.matmul(E, pk, out=uy[1:])
            np.matmul(M, uy, out=out)
            uy[0] = out[BLOCK - 1]
            pk *= free
            pk += E.T @ out[BLOCK:]
    u = outs[:, :BLOCK].reshape(-1, states.shape[1])
    return h, np.concatenate((states[:1], rot[2::2, None].conj() * u)), pk


def _check_horizon(key: str, t: float, box_length: float,
                   reach: float = 0.0) -> None:
    """ValueError naming ``key`` unless t is positive and before a photon
    circling the periodic box returns to within ``reach`` of the emitter."""
    if not (end := box_length - reach) > t > 0.0:
        raise ValueError(f"{key}={t} must lie in (0, {end}): photons "
                         f"circling box_length={box_length} return")


def evolve(system: DiscretizedSystem, t_end: float = DEFAULT_T_END,
           dt: float = DEFAULT_DT) -> Trajectory:
    """The sector ODE from psi_d = 1, no photons, to t_end by ``_lawson``
    (Lawson, SIAM J. Numer. Anal. 4, 372, 1967; Hochbruck & Ostermann,
    Acta Numerica 19, 209, 2010), which sizes its step from ``dt``.  At the
    default dt the norm drifts by about 1e-10 over t = 20.  From ``dt`` on,
    the step halves while the drift exceeds ``NORM_DRIFT_TOL``, and
    ConvergenceError is raised past ``DT_HALVINGS`` halvings.  A t_end at
    or past box_length, where the emitter meets its photons, is ValueError.
    """
    if not (0.0 < t_end < math.inf and 0.0 < dt < math.inf):
        raise ValueError("t_end and dt must be positive and finite")
    _check_horizon("t_end", t_end, system.box_length)
    for m in range(DT_HALVINGS + 1):
        h, psi, pk = _lawson(system.params, system.k, system.V, t_end,
                             dt / 2 ** m,
                             np.eye(system.k.size + 1, 1, dtype=complex))
        traj = Trajectory(times=np.arange(psi.shape[0]) * h, psi_d=psi[:, 0],
                          psi_k=pk[:, 0])
        if traj.norm_drift <= NORM_DRIFT_TOL:
            return traj
    raise ConvergenceError(
        f"norm drift {traj.norm_drift:.3e} exceeds {NORM_DRIFT_TOL:.1e} over "
        f"t_end={t_end} even at dt={dt / 2 ** m}, the smallest step tried")


def survival_probability(trajectory: Trajectory) -> np.ndarray:
    """|psi_d|^2 at each of ``times``: beats allowed, no monotonicity."""
    return np.abs(trajectory.psi_d) ** 2


def photon_spectrum(system: DiscretizedSystem, state: SectorState
                    ) -> tuple[np.ndarray, str | None]:
    """Density-normalized photon spectrum |psi_k|^2 * L / 2*pi at each
    k_j > 0 of the box; the spectrum at -k_j is the same.

    Comparable with the continuum spectrum once the excited state has
    decayed; a warning string is returned if called too early.
    """
    warning = None
    survival = abs(state.psi_d) ** 2
    if survival >= 1e-3:
        warning = (f"photon spectrum sampled before decay: survival "
                   f"{survival:.3e} >= 1e-3")
    spec = np.abs(state.psi_k) ** 2 * system.box_length / TWO_PI
    return spec, warning


def spatial_field(system: DiscretizedSystem, state: SectorState, xgrid
                  ) -> np.ndarray:
    """Position-space photon field f(x) = (1/sqrt(L)) sum_j e^{i k_j x}
    psi_j on an evenly spaced grid, read while no photon has circled the
    periodic box back onto it: 0 < state.t < box_length - max|x|, else
    ValueError.  A grid may reach past box_length/2 inside that horizon.

    One chirp-z transform (Rabiner, Schafer & Rader, Bell Syst. Tech. J.
    48, 1249, 1969; Bluestein, IEEE Trans. Audio Electroacoust. 18, 451,
    1970): with k_j = j*delta_k, j = -J..J, psi_{-j} = psi_j, psi_0 = 0,
    and x_i = x_c + i*dx, i counted from the grid's middle, the phase is
    k_j*x_c + theta*(i^2 + j^2 - (i - j)^2)/2, theta = delta_k*dx, and the
    chirps make the sum one convolution of three power-of-two FFTs.  A
    point more than ``_GRID_ULPS`` ulps of max |x| off x_0 + i*dx raises
    ValueError, a NaN included.  Within 1e-12 of the dense sum's peak:
    about 1e-14 on the +-30 grids, 1.4e-13 across an L = 800 box, 1e-14 to
    |x| = 80 on an L = 100 box at t = 10.
    """
    x = np.asarray(xgrid, dtype=float)
    n_x, c = x.size, (x.size - 1) // 2
    reach = np.max(np.abs(x))  # rejects an empty grid
    tol, dx = _GRID_ULPS * np.spacing(reach), (x[-1] - x[0]) / max(n_x - 1, 1)
    if not np.all(np.abs(x - (x[0] + dx * np.arange(n_x))) <= tol):
        raise ValueError(f"position grid must be evenly spaced: every "
                         f"point within {_GRID_ULPS} ulps of x_0 + i*dx")
    _check_horizon("t", state.t, system.box_length, reach)
    j = np.rint(system.k / system.delta_k).astype(int)
    J, i = int(j[-1]), np.arange(n_x) - c
    lag = np.arange(-J - c, n_x - c + J)  # every i - j
    # w[n] = exp(i theta n^2 / 2) for every |n| read below
    w = np.exp(0.5j * system.delta_k * dx * np.arange(lag[-1] + 1) ** 2)
    n_fft = 1 << (lag.size - 1).bit_length()
    a, b = np.zeros((2, n_fft), dtype=complex)
    a[J + j] = state.psi_k * np.exp(1j * system.k * x[c]) * w[j]
    a[J - j] = state.psi_k * np.exp(-1j * system.k * x[c]) * w[j]
    b[(lag + c - J) % n_fft] = w[np.abs(lag)].conj()
    conv = np.fft.ifft(np.fft.fft(a) * np.fft.fft(b))[:n_x]
    return w[np.abs(i)] * conv / math.sqrt(system.box_length)
