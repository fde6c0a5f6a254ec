"""Brute-force ground truth: direct integration of the driven emitter
coupled to a box-discretized photon continuum.

The excitation-number-conserving Hamiltonian closes on the single
excitation sector (emitter amplitude plus one amplitude per retained
photon mode), so the exact dynamics reduces to a linear ODE with the
time-dependent diagonal eps_d + A*sin(omega*t), integrated here by a
fixed-step integrating-factor (Lawson) RK4, the free and driven phases
exact, whose steps compose into block maps of ``BLOCK`` steps: a block
costs two BLAS products over the modes and one small matvec.  The photon
field is a two-level polynomial evaluation.  The odd combinations
psi_k - psi_{-k} never couple to the emitter and stay zero, so only
k > 0 is integrated.
Every spectral-analysis result is validated against this integrator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams

#: Default box length and FFT size of discretize, horizon and step of evolve.
DEFAULT_BOX_LENGTH, DEFAULT_N_MODES = 400.0, 8192
DEFAULT_T_END, DEFAULT_DT = 20.0, 1e-2
#: Acceptable total norm drift over a full run.
NORM_DRIFT_TOL = 1e-8
#: Steps composed into one block map (measured fastest of 2, 3, 4, 6, 8, 16).
BLOCK = 4
#: Block maps built at once: bounds their memory, whatever the run length.
_CHUNK = 256


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

    def __post_init__(self) -> None:
        if not (np.array_equal(self.k[::-1], -self.k)
                and np.array_equal(self.V[::-1], self.V)):
            raise ValueError("mode grid must be mirror-symmetric in k")

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
    dt: float
    norm_drift: float


def discretize(params: ModelParams, box_length: float = DEFAULT_BOX_LENGTH,
               n_modes: int = DEFAULT_N_MODES) -> DiscretizedSystem:
    """Build the box-normalized mode grid and couplings."""
    if not box_length > 0.0:
        raise ValueError("box_length must be positive")
    if n_modes < 64:
        raise ValueError("n_modes must be at least 64")
    if n_modes % 2:
        raise ValueError("n_modes must be even")
    if math.pi * n_modes / box_length < params.k_c:
        raise ValueError(
            f"n_modes={n_modes} too small to cover (-k_c, k_c) at "
            f"box_length={box_length}")
    # only j <= floor(k_c L / 2 pi) + 1 can pass the cutoff; mirror them
    j = np.arange(1, min(n_modes // 2,
                         int(params.k_c * box_length / TWO_PI) + 1) + 1)
    k = TWO_PI * j / box_length
    k = np.concatenate([-k[::-1], k])
    keep = np.abs(k) <= params.k_c
    if not np.any(keep):
        raise ValueError(f"box_length={box_length} keeps no mode with "
                         f"|k| <= k_c={params.k_c}")
    k = k[keep]
    V = np.sqrt(4.0 * math.pi * np.abs(k) / box_length)
    return DiscretizedSystem(params=params, box_length=float(box_length),
                             n_modes=int(n_modes), k=k, V=V)


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
           dt: float = DEFAULT_DT, sample_stride: int = 1) -> Trajectory:
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
    if not (t_end > 0.0 and dt > 0.0):
        raise ValueError("t_end and dt must be positive")
    if sample_stride < 1:
        raise ValueError("sample_stride must be at least 1")
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
    idx = np.append(np.arange(0, n_steps, sample_stride), n_steps)
    times = idx * h
    final = SectorState(psi_d=psi[-1], t=times[-1],
                        psi_k=np.concatenate([pk[::-1], pk]))
    drift = abs(final.norm_sq - 1.0)
    if drift > NORM_DRIFT_TOL:
        raise ConvergenceError(
            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_TOL:.1e} over "
            f"t_end={t_end}; decrease dt={dt}")
    return Trajectory(times=times, psi_d=psi[idx], final=final, dt=h,
                      norm_drift=drift)


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
    x = np.asarray(xgrid, dtype=float)
    half = 0.5 * system.box_length
    if np.any(np.abs(x) >= half):
        raise ValueError(f"position grid must stay inside (-{half}, {half})")
    # k_j = j*delta_k: the sum is exp(i k_min x) times a polynomial in
    # z = exp(i delta_k x) whose m-th coefficient is psi_j, m = j - j_min (0
    # at j = 0).  Two levels (Paterson & Stockmeyer, SIAM J. Comput. 2, 60,
    # 1973): a matmul with z^1..z^b sums each block of b = isqrt(n)
    # coefficients (times z); Horner's rule in z^b runs over the block sums
    m = np.rint((system.k - system.k[0]) / system.delta_k).astype(int)
    b = math.isqrt(m[-1] + 1)
    coeffs = np.zeros((m[-1] // b + 1) * b, dtype=complex)
    coeffs[m] = state.psi_k
    z = np.exp(1j * system.delta_k * x)
    powers = np.cumprod(np.broadcast_to(z[:, None], (x.size, b)), axis=1)
    inner = powers @ coeffs.reshape(-1, b).T
    f = np.exp(1j * (system.k[0] - system.delta_k) * x) * np.polyval(
        inner[:, ::-1].T, powers[:, -1]) / math.sqrt(system.box_length)
    return x, f, np.abs(f) ** 2
