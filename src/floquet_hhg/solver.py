"""Nonlinear complex eigenvalue solver for the driven-emitter Floquet ladder.

After projecting the photon continuum into channel self-energies, the
remaining problem is an infinite tridiagonal ladder in the Floquet index n
with diagonal d_n(z) = eps_d + n*omega + lambda^2 * Sigma(n, z) and
off-diagonals -A/2i above / +A/2i below the diagonal (their product is
+A^2/4).  Folding the semi-infinite wings onto the n = 0 row turns the
eigenvalue problem into a scalar dispersion relation

    D(z) = z - eps_d - lambda^2*Sigma(0, z) - C_up(z) - C_down(z) = 0,

where C_up/C_down are continued fractions built from the wing rows,

    C(z) = (A^2/4) / (z - d_1 - (A^2/4) / (z - d_2 - ...)),

truncated with a zero tail at the depth where a modified-Lentz pass finds
it converged.  The channel rows of a solve (a ``self_energy.ChannelRows``
table plus the bare diagonals) are built once, a few levels past the
window; each evaluation gets Sigma(0, z) and the wing diagonals from one
evaluation of that table (deeper levels only when a Lentz pass asks), and
only the fraction's recurrences run level by level.  The eigenvalue
dependence of the self-energies makes the problem nonlinear; the root is
found by Newton iteration with the analytic derivative (Muller fallback),
seeded by the perturbative eigenvalue, with the Riemann sheet of every
channel frozen per run and re-checked once after convergence.  Each
iterate folds the wings only as deep as D needs (a Lentz pass from level
1); the root is then folded once to the coefficient window, over the
wing diagonals of its own evaluation.  Its partial denominators give the
right ladder R; the left ladder (the transposed recurrence, drive sign
flipped) is L_n = (-1)^n R_n exactly.  The bilinear c-product norm takes
each channel's continuum part, -lambda^2 * Sigma'(n, z_d), and the sheets
of the state from that same evaluation: no self-energy is evaluated
after the root.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConvergenceError
from .model import DEFAULT_WINDOW, TWO_PI, ModelParams, second_sheet
from .perturbation import perturbative_eigenvalue
from .self_energy import ChannelRows

#: Wing levels evaluated past the coefficient window before a Lentz pass
#: asks for more; _LENTZ_TINY stands in for a vanishing partial value.
_LEVEL_MARGIN, _LENTZ_TINY = 8, 1e-300

#: Continued-fraction convergence: a wing is folded at the first level
#: where |Delta_j - 1| <= CF_TOL, and fails past CF_MAX_DEPTH levels.
CF_TOL, CF_MAX_DEPTH = 1e-13, 8192


@dataclass(frozen=True)
class SolverOptions:
    """Knobs of the resonance solve; defaults suit weak coupling."""

    window: int = DEFAULT_WINDOW
    root_tol: float = 1e-12
    max_iterations: int = 60

    def __post_init__(self) -> None:
        if not 1 <= self.window < CF_MAX_DEPTH:
            raise ValueError(
                f"window must lie in [1, CF_MAX_DEPTH = {CF_MAX_DEPTH})")
        if not self.root_tol > 0.0:
            raise ValueError("root_tol must be positive")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be at least 1, got {self.max_iterations}")


@dataclass(frozen=True, eq=False)
class ResonanceState:
    """Converged resonance pole of a Floquet mode.

    The ladder is held as read-only arrays aligned with the channel
    indices ``ns`` = mode + [-window, ..., window]: ``R``/``L`` are the
    right/left eigenvector coefficients (the entry at n = mode is 1
    before normalization) and ``second_sheet`` masks the channels on the
    second Riemann sheet at z_d.  ``N_d`` fixes the bilinear c-product to
    1; ``K_d`` is the emission constant N_d/(2*pi) * sum_n R_n.
    """

    params: ModelParams
    z_d: complex
    R: np.ndarray
    L: np.ndarray
    N_d: complex
    K_d: complex
    window: int
    second_sheet: np.ndarray
    mode: int = 0
    residual: float = 0.0
    iterations: int = 0
    cf_depth_used: int = 0

    def __post_init__(self) -> None:
        for name in ("R", "L", "second_sheet"):
            ladder = np.array(getattr(self, name))
            ladder.flags.writeable = False
            object.__setattr__(self, name, ladder)

    @property
    def ns(self) -> np.ndarray:
        """Channel index n of each ladder entry."""
        return np.arange(-self.window, self.window + 1) + self.mode

    @property
    def emission_constant(self) -> complex:
        """Prefactor of the long-time photon amplitude, N_d * sum_n L_n;
        agrees with 2*pi*K_d in modulus to second order in the coupling."""
        return self.N_d * sum(self.L.tolist())

    def open_modes(self) -> list[int]:
        """Emission mode labels m = -n of channels on the second sheet."""
        return sorted((-self.ns[self.second_sheet]).tolist())


class _Rows(ChannelRows):
    """The channel rows of one solve, with the sheets that the rule
    ``second_sheet`` gives at ``sheet_ref`` = (z_ref, at_z): adds the bare
    diagonals eps_d + n*omega and the lambda^2 scaling."""

    def __init__(self, params: ModelParams, ns: np.ndarray,
                 sheet_ref: tuple[complex, bool]) -> None:
        super().__init__(params, ns, second_sheet(params, ns, *sheet_ref))
        self.sheet_ref = sheet_ref
        self.bare = params.epsilon_d + self.nw

    def scaled_sigma(self, z: complex) -> tuple[np.ndarray, np.ndarray]:
        """lambda^2 * Sigma(n, z) and its z-derivative over the rows."""
        lam2 = self.params.lambda_ ** 2
        if lam2 == 0.0:
            zero = np.zeros(self.ns.shape, dtype=complex)
            return zero, zero
        s, sp = self.sigma(z)
        return lam2 * s, lam2 * sp

    def diagonals(self, z: complex) -> tuple[list, list]:
        """Ladder diagonals d_n = eps_d + n*omega + lambda^2 * Sigma(n, z)
        over the rows and their z-derivatives, as lists."""
        ls, lsp = self.scaled_sigma(z)
        return (self.bare + ls).tolist(), lsp.tolist()


def _rows(params: ModelParams, options: SolverOptions, z_ref: complex,
          at_z: bool = False) -> _Rows:
    """Rows [0, 1..M, -1..-M], M = window + _LEVEL_MARGIN (0 undriven),
    with sheets frozen from Re z_ref, or selected at z_ref with ``at_z``."""
    M = options.window + _LEVEL_MARGIN if params.A != 0.0 else 0
    levels = np.arange(1, M + 1)
    return _Rows(params, np.concatenate([[0], levels, -levels]),
                 (complex(z_ref), at_z))


def _chain(params: ModelParams, z: complex, direction: int, depth: int,
           d: list, dp: list, keep_levels: int = 0):
    """One wing continued fraction evaluated bottom-up at fixed depth.

    ``d``/``dp`` hold the diagonals and their derivatives of levels
    m = 1, 2, ... of the wing (entry m - 1, at least ``depth`` of them).
    Returns (C, C', T) where T[m - 1] for m = 1..keep_levels are the
    partial denominators T_m = z - d_{direction*m} - (A^2/4)/T_{m+1}; the
    eigenvector ratios along the wing are (+-A/2i) / T_m.
    """
    a2 = 0.25 * params.A * params.A
    T, Tp, levels = math.inf, 0.0, []  # the zero tail: a2/T = 0
    for m in range(depth, 0, -1):
        T, Tp = z - d[m - 1] - a2 / T, 1.0 - dp[m - 1] + a2 * Tp / (T * T)
        if T == 0.0:
            raise ConvergenceError(
                "continued fraction hit a truncated-ladder resonance at "
                f"level {direction * m}")
        levels.append(T)
    return a2 / T, -a2 * Tp / (T * T), levels[::-1][:keep_levels]


def _chain_adaptive(params: ModelParams, z: complex, direction: int,
                    rows: _Rows, d: list, dp: list, keep_levels: int = 0):
    """(C, C', T, depth) of one wing, folded once at the first level j
    where a forward modified-Lentz pass (Thompson & Barnett, J. Comput.
    Phys. 64, 490, 1986) over the tail below the kept levels finds the
    ratio of successive convergents within |Delta_j - 1| <= CF_TOL.
    ``d``/``dp`` (wing levels 1, 2, ...) are extended in place if needed,
    with the sheet rule of ``rows``.
    """
    if params.A == 0.0:
        return 0.0j, 0.0j, [], 0
    a2 = 0.25 * params.A * params.A
    C, D = _LENTZ_TINY, 0.0j
    for depth in range(keep_levels + 1, CF_MAX_DEPTH + 1):
        if depth > len(d):
            more, more_p = _Rows(params, direction * np.arange(
                len(d) + 1, min(2 * depth, CF_MAX_DEPTH) + 1),
                rows.sheet_ref).diagonals(z)
            d += more
            dp += more_p
        b = z - d[depth - 1]
        D = 1.0 / ((b - a2 * D) or _LENTZ_TINY)
        C = (b - a2 / C) or _LENTZ_TINY
        if abs(C * D - 1.0) <= CF_TOL:
            return (*_chain(params, z, direction, depth, d, dp, keep_levels),
                    depth)
    raise ConvergenceError(
        f"continued fraction not converged at depth {CF_MAX_DEPTH} "
        f"(direction {direction:+d}, z={z})")


def _dispersion_core(z: complex, rows: _Rows, keep_levels: int = 0):
    """D(z), D'(z), the depth used, the wing partial denominators
    (T_up, T_down) for levels 1..keep_levels, and the evaluation behind
    them: lambda^2 * Sigma'(n, z) over the rows (from ``_rows``) and the
    wing diagonals (d, d'), as far as a Lentz pass extended them."""
    params, M = rows.params, rows.ns.size // 2
    ls, lsp = rows.scaled_sigma(z)
    d, dp = (rows.bare + ls).tolist(), lsp.tolist()
    wings = (d[1:M + 1], dp[1:M + 1]), (d[M + 1:], dp[M + 1:])
    (cu, cup, t_up, d_up), (cd, cdp, t_dn, d_dn) = [
        _chain_adaptive(params, z, direction, rows, *wing, keep_levels)
        for direction, wing in zip((1, -1), wings)]
    D = z - params.epsilon_d - complex(ls[0]) - cu - cd
    Dp = 1.0 - complex(lsp[0]) - cup - cdp
    return D, Dp, max(d_up, d_dn), (t_up, t_dn), (lsp, wings)


def resolvent_column(params: ModelParams, z: complex,
                     options: SolverOptions | None = None) -> np.ndarray:
    """Column 0 of the Floquet resolvent, G_n0(z) = R_n(z)/D(z), for n on
    [-window, window] in order, with sheets selected at z itself.

    D(z) and the right ladder R_n(z) come from one continued fraction per
    wing: its folded value enters D and its partial denominators give R.
    """
    opts = options or SolverOptions()
    z = complex(z)
    D, _, _, (t_up, t_dn), _ = _dispersion_core(
        z, _rows(params, opts, z, at_z=True), opts.window)
    return _ladder_from_levels(params, t_up, t_dn, opts.window) / D


def _newton_muller(seed: complex, options: SolverOptions, rows: _Rows):
    """Newton iteration on D over the row table ``rows`` with a Muller
    fallback on stagnation: the root, |D|, the iterations and the root's
    own evaluation (see ``_dispersion_core``), each folded only as deep
    as D needs."""
    z = complex(seed)
    D, Dp, _, _, evaluation = _dispersion_core(z, rows)
    best = (abs(D), z, 0, evaluation)
    history: list[tuple[complex, complex]] = [(z, D)]
    increases = 0
    for it in range(1, options.max_iterations + 1):
        if abs(D) < options.root_tol:
            return z, abs(D), it - 1, evaluation
        bad_slope = Dp == 0.0 or not cmath.isfinite(Dp)
        if (increases >= 3 or bad_slope) and len(history) >= 3:
            (z0, f0), (z1, f1), (z2, f2) = history[-3:]
            q = (z2 - z1) / (z1 - z0) if z1 != z0 else 0.5
            a = q * f2 - q * (1 + q) * f1 + q * q * f0
            b = (2 * q + 1) * f2 - (1 + q) ** 2 * f1 + q * q * f0
            c = (1 + q) * f2
            disc = cmath.sqrt(b * b - 4 * a * c)
            den = b + disc if abs(b + disc) > abs(b - disc) else b - disc
            if den == 0.0:
                z_new = z * (1.0 + 1e-9) + 1e-9j
            else:
                z_new = z2 - (z2 - z1) * 2 * c / den
            increases = 0
        elif bad_slope:
            z_new = z * (1.0 + 1e-9) + 1e-9j
        else:
            z_new = z - D / Dp
        if not cmath.isfinite(z_new):
            raise ConvergenceError(
                f"root iteration produced a non-finite step at iteration {it}")
        D_new, Dp_new, _, _, evaluation = _dispersion_core(z_new, rows)
        if abs(D_new) >= abs(D):
            increases += 1
        else:
            increases = 0
        z, D, Dp = z_new, D_new, Dp_new
        history.append((z, D))
        if abs(D) < best[0]:
            best = (abs(D), z, it, evaluation)
    if best[0] < options.root_tol:
        return best[1], best[0], best[2], best[3]
    raise ConvergenceError(
        f"dispersion root not converged after {options.max_iterations} "
        f"iterations; best residual {best[0]:.3e} at z={best[1]}")


def _ladder_from_levels(params: ModelParams, t_up: list[complex],
                        t_dn: list[complex], N: int) -> np.ndarray:
    """Right ladder coefficients on [-N, N], 1 at n = 0, from the wing
    partial denominators: R_{n+1}/R_n = (A/2i)/T_{n+1} upward and
    R_{-(n+1)}/R_{-n} = (-A/2i)/T_{-(n+1)} downward."""
    if params.A == 0.0:
        return np.where(np.arange(-N, N + 1) == 0, 1.0 + 0.0j, 0.0j)
    up_num = complex(0.0, -0.5 * params.A)  # A/2i
    dn_num = -up_num
    up, dn = [1.0 + 0.0j], [1.0 + 0.0j]
    for m in range(N):
        up.append(up[-1] * up_num / t_up[m])
        dn.append(dn[-1] * dn_num / t_dn[m])
    edge = max(abs(up[-1]), abs(dn[-1]))
    if edge >= 1e-10:
        raise ConvergenceError(
            f"coefficient window {N} too small: edge magnitude {edge:.3e}")
    return np.array(dn[:0:-1] + up)


def _slot_sum(state: ResonanceState, delta: int) -> complex:
    """Bilinear pairing sum_n L_n * R_{n + delta} * (1 + q_n) of ladder
    slots, with q_n the continuum part of the pairing: -lambda^2 *
    Sigma'(n, z_d) on the diagonal, a partial fraction of Sigma(n, z_d)
    and Sigma(n + delta, z_d) off it, each on that channel's sheet."""
    params, size = state.params, state.R.size
    i = np.arange(max(0, -delta), min(size, size - delta))
    w = state.L[i] * state.R[i + delta]
    paired = w != 0.0
    i, w = i[paired], w[paired]
    q = np.zeros(i.size, dtype=complex)
    lam2 = params.lambda_ ** 2
    if lam2 != 0.0 and i.size:
        both = np.concatenate([i, i + delta]) if delta else i
        s, sp = ChannelRows(params, state.ns[both],
                            state.second_sheet[both]).sigma(state.z_d)
        q = -lam2 * sp if delta == 0 else \
            lam2 * (s[:i.size] - s[i.size:]) / (-delta * params.omega)
    return sum((w * (1.0 + q)).tolist(), 0.0j)


def solve_resonance(params: ModelParams,
                    options: SolverOptions | None = None) -> ResonanceState:
    """Locate the principal resonance pole and build its normalized state.

    Newton iteration on D(z) from the perturbative seed (a level on a
    channel branch point has none: ConvergenceError) with per-channel
    sheets frozen from the seed; if the converged root reclassifies any
    channel of the row table, the solve is repeated once from the new
    freeze, and ``iterations`` counts both passes.  The root
    must satisfy Im z_d <= 0 (up to roundoff), otherwise the sheet
    selection is faulty.  The ladders are rescaled jointly so that their
    bilinear ladder product is 1 and R_0 has positive real part; N_d then
    holds the continuum dressing alone (1 with no coupling), and the
    full-space c-product is 1.
    """
    opts = options or SolverOptions()
    try:
        z_seed = perturbative_eigenvalue(params, window=opts.window)
    except ValueError as exc:  # the level sits on a branch point
        raise ConvergenceError(f"no perturbative seed: {exc}") from None

    N = opts.window
    window = np.arange(-N, N + 1)
    iterations = 0
    for attempt in range(2):
        rows = _rows(params, opts, z_seed)
        z_root, residual, iters, (lsp, wings) = _newton_muller(z_seed, opts,
                                                               rows)
        iterations += iters
        if attempt == 1 or np.array_equal(
                rows.second, second_sheet(params, rows.ns, z_root)):
            break
        z_seed = z_root  # channel classification changed: refreeze once

    if z_root.imag > 1e-12:
        raise ConvergenceError(
            f"root {z_root} has positive imaginary part: sheet selection "
            "fault")
    if z_root.imag > 0.0:  # roundoff: the root is the real point below
        z_root = complex(z_root.real, 0.0)
        lsp, wings = _dispersion_core(z_root, rows)[4]
    # the root fold: both wings to the window over the root's diagonals
    (_, _, t_up, d_up), (_, _, t_dn, d_dn) = [
        _chain_adaptive(params, z_root, direction, rows, *wing, N)
        for direction, wing in zip((1, -1), wings)]

    # the left ladder solves the transposed recurrence: L_n = (-1)^n R_n
    R = _ladder_from_levels(params, t_up, t_dn, N)
    ladder_product = sum((np.where(window % 2, -R, R) * R).tolist())
    if ladder_product == 0.0:
        raise ConvergenceError(
            "vanishing ladder c-product (exceptional point); not regularized")
    R = R / cmath.sqrt(ladder_product)
    R = -R if R[N].real < 0.0 else R
    L = np.where(window % 2, -R, R)
    # lambda^2 Sigma' of the window channels from the table's rows [0,
    # 1..M, -1..-M]; an undriven table holds row 0, its ladder's one slot
    in_window = np.where(window < 0, rows.ns.size // 2 - window, window)
    q = lsp.take(in_window, mode="clip")
    total = sum((L * R * (1.0 - q)).tolist(), 0.0j)
    if total == 0.0:
        raise ConvergenceError(
            "vanishing biorthonormal norm (exceptional point); not regularized")
    N_d = 1.0 / total
    return ResonanceState(
        params=params, z_d=z_root, R=R, L=L, N_d=N_d,
        K_d=N_d / TWO_PI * sum(R.tolist()), window=N,
        second_sheet=second_sheet(params, window, z_root, at_z=True),
        residual=residual, iterations=iterations,
        cf_depth_used=max(d_up, d_dn))


def shift_mode(state: ResonanceState, m: int) -> ResonanceState:
    """Floquet copy of the pole: z -> z + m*omega and R_n -> R_{n - m}.

    Mode shifting is exact: the ladder arrays stay as they are while their
    channel indices ``ns`` move by m, the normalization constant is mode
    independent, and the sheets are selected anew at the shifted pole.
    """
    m = int(m)
    if m == 0:
        return state
    z_new = state.z_d + m * state.params.omega
    return replace(state, z_d=z_new, mode=state.mode + m,
                   second_sheet=second_sheet(state.params, state.ns + m,
                                             z_new, at_z=True))


def floquet_c_product(state: ResonanceState, m: int, mprime: int) -> complex:
    """Bilinear c-product between Floquet copies m and m' of the pole state.

    The ladder parts pair slot by slot; the continuum part of each slot is
    a partial-fraction combination of channel self-energies, collapsing to
    -Sigma' on the diagonal.  Equals delta_{m,m'} for a normalized state.
    """
    return state.N_d * _slot_sum(state, delta=m - mprime)
