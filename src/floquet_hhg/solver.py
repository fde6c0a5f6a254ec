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
it converged.  A solve's channel rows (a ``ChannelRows`` table plus the
bare diagonals), sized from the Bessel bound |J_n(x)| <= (x/2)^n/n! at
x = A/omega, give Sigma(0, z) and the wing diagonals of an evaluation in
one call.  Newton iteration (Muller fallback) from the perturbative
eigenvalue, with every channel's Riemann sheet frozen and re-checked
after convergence, folds the wings only as deep as D needs, except at an
iterate whose landing the Newton step predicts: its ladder fold, keeping
each wing's levels until its ladder entry falls below LADDER_TOL, gives
the D that checks it, so a root is folded once.  The partial denominators
give the right ladder R; the left ladder (the transposed recurrence) is
L_n = (-1)^n R_n.  The norm takes each channel's continuum part,
-lambda^2 * Sigma'(n, z_d), from that same evaluation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import TWO_PI, ModelParams, second_sheet
from .perturbation import LADDER_TOL, bessel_support, perturbative_eigenvalue
from .self_energy import ChannelRows

#: Levels the first ladder fold keeps past the Bessel bound's support,
#: and the table's levels past those before a Lentz pass asks for more;
#: _LENTZ_TINY stands in for a vanishing partial value, and a Newton step
#: below _LANDING_STEP |z| is predicted to land.
_LADDER_SLACK, _LEVEL_MARGIN, _LENTZ_TINY, _LANDING_STEP = 4, 8, 1e-300, 1e-7

#: Continued-fraction convergence: a wing is folded at the first level
#: where |Delta_j - 1| <= CF_TOL, and fails past CF_MAX_DEPTH levels.
CF_TOL, CF_MAX_DEPTH = 1e-13, 8192

#: The bar of a verified pole, |D(z_d)| < ROOT_TOL, and the Newton/Muller
#: steps allowed to reach it; both are read at call time.
ROOT_TOL, MAX_ITERATIONS = 1e-12, 60


class SolverOptions:  # no options: the bar, for callers checking residuals
    root_tol = ROOT_TOL


@dataclass(frozen=True, eq=False)
class ResonanceState:
    """Converged resonance pole, as ``solve_resonance`` measured it.

    Stored: the pole ``z_d``, the right ladder ``R`` (a read-only copy)
    on the channels ``ns`` = [-N, ..., N], N = R.size // 2, ``N_d`` (for a
    unit c-product) and the solve's ``residual`` |D(z_d)|, ``iterations``
    and root-fold depth ``cf_depth_used``.  Derived: ``L`` (L_n = (-1)^n
    R_n), ``K_d`` = N_d/(2*pi) * sum_n R_n and the mask ``second_sheet``.
    """

    params: ModelParams
    z_d: complex
    R: np.ndarray
    N_d: complex
    residual: float
    iterations: int
    cf_depth_used: int

    def __post_init__(self) -> None:
        R = np.array(self.R)  # owned: copied and frozen
        R.flags.writeable = False
        object.__setattr__(self, "R", R)

    @property
    def ns(self) -> np.ndarray:
        """Channel index n of each ladder entry."""
        half = self.R.size // 2
        return np.arange(-half, half + 1)

    @property
    def L(self) -> np.ndarray:
        return _left(self.R)

    @property
    def K_d(self) -> complex:
        return self.N_d / TWO_PI * sum(self.R.tolist())

    @property
    def second_sheet(self) -> np.ndarray:
        return second_sheet(self.params, self.ns, self.z_d, at_z=True)

    @property
    def emission_constant(self) -> complex:
        """Prefactor of the long-time photon amplitude, N_d * sum_n L_n;
        agrees with 2*pi*K_d in modulus to second order in the coupling."""
        return self.N_d * sum(self.L.tolist())


class _Rows(ChannelRows):
    """The channel rows of one solve, with the sheets that the rule
    ``second_sheet`` gives at ``sheet_ref`` = (z_ref, at_z): adds the bare
    diagonals eps_d + n*omega and the lambda^2 scaling."""

    def __init__(self, params: ModelParams, ns: np.ndarray,
                 sheet_ref: tuple[complex, bool], keep: int = 0) -> None:
        super().__init__(params, ns, second_sheet(params, ns, *sheet_ref),
                         params.lambda_ ** 2)
        self.sheet_ref, self.keep = sheet_ref, keep
        self.bare = params.epsilon_d + self.nw

    def diagonals(self, z: complex) -> list[list]:
        """Ladder diagonals d_n = eps_d + n*omega + lambda^2 * Sigma(n, z)
        over the rows and their z-derivatives, as two lists."""
        table = self.sigma(z)
        table[0] += self.bare
        return table.tolist()


def _rows(params: ModelParams, z_ref: complex, at_z: bool = False) -> _Rows:
    """Rows n = -M..M, M = keep + _LEVEL_MARGIN (0 undriven), with sheets
    frozen from Re z_ref, or selected at z_ref with ``at_z``; keep is the
    Bessel support of A/omega plus _LADDER_SLACK."""
    keep = _LADDER_SLACK + bessel_support(abs(params.a_over_omega))
    M = keep + _LEVEL_MARGIN if params.A != 0.0 else 0
    return _Rows(params, np.arange(-M, M + 1), (complex(z_ref), at_z), keep)


def _left(R: np.ndarray) -> np.ndarray:
    """The left ladder L_n = (-1)^n R_n of a ladder R on [-N, N]."""
    L, even = -R, R.size // 2 % 2  # index i holds n = i - N
    L[even::2] = R[even::2]
    return L


def _chain(params: ModelParams, z: complex, direction: int, depth: int,
           d: list, dp: list, keep_levels: int = 0):
    """One wing continued fraction evaluated bottom-up at fixed depth.

    ``d``/``dp`` hold the diagonals and their derivatives of levels
    m = 1, 2, ... of the wing (entry m - 1, at least ``depth`` of them).
    Returns (C, C', T), T[m - 1] for m = 1..keep_levels the partial
    denominators T_m = z - d_{direction*m} - (A^2/4)/T_{m+1}, and C' None
    if levels are kept (a ladder fold reads no slope).
    """
    a2, T, Tp, levels = 0.25 * params.A * params.A, math.inf, 0.0, []
    try:  # the zero tail: a2/T = 0
        if keep_levels:
            for dm in d[depth - 1::-1]:
                T = z - dm - a2 / T
                levels.append(T)
            return a2 / T, None, levels[:-keep_levels - 1:-1]
        for dm, dpm in zip(d[depth - 1::-1], dp[depth - 1::-1]):
            T, Tp = z - dm - a2 / T, 1 - dpm + a2 * Tp / (T * T)
        return a2 / T, -a2 * Tp / (T * T), []
    except ZeroDivisionError:  # some T_m vanished
        raise ConvergenceError("continued fraction hit a truncated-ladder "
                               f"resonance (direction {direction:+d})"
                               ) from None


def _chain_adaptive(params: ModelParams, z: complex, direction: int,
                    rows: _Rows, d: list, dp: list, keep_levels: int = 0):
    """(C, C', T, depth) of one wing, folded once at the first level j
    where a forward modified-Lentz pass (Thompson & Barnett, J. Comput.
    Phys. 64, 490, 1986) over the tail below the kept levels finds the
    ratio of successive convergents within |Delta_j - 1| <= CF_TOL.
    ``d``/``dp`` (wing levels 1, 2, ...) are extended in place if needed,
    with the sheet rule of ``rows``."""
    if params.A == 0.0:
        return 0.0j, 0.0j, [], 0
    a2, tol, tiny = 0.25 * params.A * params.A, CF_TOL, _LENTZ_TINY
    cap, C, D, depth = CF_MAX_DEPTH, tiny, 0.0j, keep_levels
    while depth < cap:
        if depth >= len(d):
            more, more_p = _Rows(params, direction * np.arange(
                len(d) + 1, min(2 * depth + 2, cap) + 1),
                rows.sheet_ref).diagonals(z)
            d += more
            dp += more_p
        for depth, dj in enumerate(d[depth:cap], depth + 1):
            b = z - dj
            D = 1.0 / ((b - a2 * D) or tiny)
            C = (b - a2 / C) or tiny
            if abs(C * D - 1.0) <= tol:
                return (*_chain(params, z, direction, depth, d, dp,
                                keep_levels), depth)
    raise ConvergenceError(
        f"continued fraction not converged at depth {cap} "
        f"(direction {direction:+d}, z={z})")


def _evaluate(z: complex, rows: _Rows):
    """lambda^2 Sigma(0, z), lambda^2 Sigma'(0, z) and the up and down
    wings' diagonals (d, d') from level 1 out, lists a Lentz pass extends."""
    M, table = rows.ns.size // 2, rows.sigma(z)
    ls0 = complex(table[0, M])
    table[0] += rows.bare
    d, dp = table.tolist()
    return ls0, dp[M], ((d[M + 1:], dp[M + 1:]),
                        (d[:M][::-1], dp[:M][::-1]))


def _dispersion(z: complex, rows: _Rows, evaluation):
    """D(z) and D'(z) over an evaluation (see ``_evaluate``), each wing
    folded only as deep as D needs."""
    params, (ls0, lsp, wings) = rows.params, evaluation
    (cu, cup, *_), (cd, cdp, *_) = [
        _chain_adaptive(params, z, direction, rows, *wing)
        for direction, wing in zip((1, -1), wings)]
    D = z - params.epsilon_d - ls0 - cu - cd
    return D, 1.0 - lsp - cup - cdp


def _fold_ladder(z: complex, rows: _Rows, evaluation):
    """D(z) with the folded values, the right ladder R on [-N, N] (R_0 = 1,
    R_{+-m} = R_{+-(m-1)} (+-A/2i)/T_{+-m}) and the depth, both wings
    folded over an evaluation (see ``_evaluate``) keeping ``rows.keep``
    levels, twice as many while a wing has no entry below LADDER_TOL (to
    CF_MAX_DEPTH // 2 levels): level N + 1 is the first below it on both
    wings."""
    params, keep, cap = rows.params, rows.keep, CF_MAX_DEPTH // 2
    D = z - params.epsilon_d - evaluation[0]
    if params.A == 0.0:
        return D, np.ones(1, dtype=complex), 0
    half, tol = complex(0.0, -0.5 * params.A), LADDER_TOL  # A/2i
    while True:
        folds = [_chain_adaptive(params, z, direction, rows, *wing, keep)
                 for direction, wing in zip((1, -1), evaluation[2])]
        ladder, ends = [], []
        for num, (_, _, T, _) in zip((half, -half), folds):
            r, wing, end = 1.0 + 0.0j, [1.0 + 0.0j], 0
            for t in T:
                r = r * num / t
                wing.append(r)
                end = end or (abs(r) < tol and len(wing) - 1)
            ladder.append(wing)
            ends.append(end)
        if all(ends):
            N, (up, dn) = max(ends) - 1, ladder
            R = np.array(dn[N:0:-1] + up[:N + 1])
            return D - (folds[0][0] + folds[1][0]), R, max(folds[0][3],
                                                            folds[1][3])
        if keep >= cap:
            raise ConvergenceError(
                f"ladder not below {LADDER_TOL:.0e} within {keep} levels "
                f"at z={z}")
        keep = min(2 * keep, cap)


def _newton_muller(seed: complex, rows: _Rows):
    """Newton iteration on D over the row table ``rows`` (Muller fallback
    on stagnation): the root, |D|, the iterations, the root's evaluation
    and its ladder R and depth (see ``_fold_ladder``).  An iterate whose
    landing a Newton step predicts (a step below _LANDING_STEP |z|, or a
    next |D| ~ |D|^3/|D_prev|^2 below ROOT_TOL) is checked by its ladder
    fold's D; a miss folds it again for the slope, over its diagonals."""
    z, history, increases, land = complex(seed), [], 0, False
    for it in range(MAX_ITERATIONS + 1):
        evaluation = _evaluate(z, rows)
        fold = _fold_ladder(z, rows, evaluation) if land else None
        D, Dp = (fold[0], None) if fold and abs(fold[0]) < ROOT_TOL \
            else _dispersion(z, rows, evaluation)
        if abs(D) < ROOT_TOL:
            _, R, depth = fold or _fold_ladder(z, rows, evaluation)
            return z, abs(D), it, evaluation, R, depth
        if history:
            increases = increases + 1 if abs(D) >= abs(history[-1][1]) else 0
        history.append((z, D))
        if it == MAX_ITERATIONS:
            break
        bad_slope, land = Dp == 0.0 or not cmath.isfinite(Dp), False
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
            step, size = D / Dp, abs(D)  # products overflow to inf
            prev = abs(history[-2][1]) if len(history) > 1 else 0.0
            z_new = z - step
            land = abs(step) < _LANDING_STEP * abs(z) \
                or size * size * size < ROOT_TOL * prev * prev
        if not cmath.isfinite(z_new):
            raise ConvergenceError("root iteration produced a non-finite "
                                   f"step at iteration {it + 1}")
        z = z_new
    best_z, best_D = min(history, key=lambda zD: abs(zD[1]))
    raise ConvergenceError(
        f"dispersion root not converged after {MAX_ITERATIONS} "
        f"iterations; best residual {abs(best_D):.3e} at z={best_z}")


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
    both = np.concatenate([i, i + delta]) if delta else i
    s, sp = ChannelRows(params, state.ns[both], state.second_sheet[both],
                        params.lambda_ ** 2).sigma(state.z_d)
    q = -sp if delta == 0 else (s[:i.size] - s[i.size:]) \
        / (-delta * params.omega)
    return sum((w * (1.0 + q)).tolist(), 0.0j)


def solve_resonance(params: ModelParams) -> ResonanceState:
    """Locate the principal resonance pole and build its normalized state.

    Newton iteration on D(z) from the perturbative seed (a level on a
    channel branch point has none: ConvergenceError) with per-channel
    sheets frozen from the seed; if the converged root reclassifies any
    channel of the row table, the solve is repeated once from the new
    freeze, and ``iterations`` counts both passes.  The root must satisfy
    Im z_d <= 0 (up to roundoff), otherwise the sheet selection is faulty.
    The ladder ends where both wings fall below LADDER_TOL (see
    ``_fold_ladder``).  The ladders are rescaled jointly to a bilinear
    ladder product of 1 with Re R_0 > 0; N_d then holds the continuum
    dressing alone (1 with no coupling), and the full-space c-product is 1.
    """
    try:
        z_seed = perturbative_eigenvalue(params)
    except ValueError as exc:  # the level sits on a branch point
        raise ConvergenceError(f"no perturbative seed: {exc}") from None

    iterations = 0
    for attempt in range(2):
        rows = _rows(params, z_seed)
        z_root, residual, iters, evaluation, R, depth = \
            _newton_muller(z_seed, rows)
        iterations += iters
        if attempt == 1 or rows.second.tolist() == second_sheet(
                params, rows.ns, z_root).tolist():
            break
        z_seed = z_root  # channel classification changed: refreeze once

    if z_root.imag > 1e-12:
        raise ConvergenceError(
            f"root {z_root} has positive imaginary part: sheet selection "
            "fault")
    if z_root.imag > 0.0:  # roundoff: the root is the real point below
        z_root = complex(z_root.real, 0.0)
        evaluation = _evaluate(z_root, rows)
        D, R, depth = _fold_ladder(z_root, rows, evaluation)
        residual = abs(D)
    _, lsp, wings = evaluation
    N = R.size // 2
    # the left ladder solves the transposed recurrence: L_n = (-1)^n R_n
    ladder_product = sum((_left(R) * R).tolist())
    if ladder_product == 0.0:
        raise ConvergenceError(
            "vanishing ladder c-product (exceptional point); not regularized")
    R = R / cmath.sqrt(ladder_product)
    R = -R if R[N].real < 0.0 else R
    # lambda^2 Sigma' of the ladder's channels, the wings as extended
    q = np.array(wings[1][1][:N][::-1] + [lsp] + wings[0][1][:N])
    total = sum((_left(R) * R * (1.0 - q)).tolist(), 0.0j)
    if total == 0.0:
        raise ConvergenceError(
            "vanishing biorthonormal norm (exceptional point); not regularized")
    return ResonanceState(
        params=params, z_d=z_root, R=R, N_d=1.0 / total, residual=residual,
        iterations=iterations, cf_depth_used=depth)


def floquet_c_product(state: ResonanceState, m: int, mprime: int) -> complex:
    """Bilinear c-product between Floquet copies m and m' of the pole state.

    The ladder parts pair slot by slot; the continuum part of each slot is
    a partial-fraction combination of channel self-energies, collapsing to
    -Sigma' on the diagonal.  Equals delta_{m,m'} for a normalized state.
    """
    return state.N_d * _slot_sum(state, delta=m - mprime)
