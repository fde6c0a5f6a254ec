"""Scalar views of the folded solver that only the tests read.

``continued_fraction`` folds one wing of the ladder at a fixed or
Lentz-chosen depth, ``dispersion_core`` gives D(z), D'(z) and the
evaluation behind them over a row table, and ``dispersion`` evaluates
D(z); all run the solver's own private kernels, so the tests probe
exactly what ``solve_resonance`` computes.  ``resolvent_column`` is
column 0 of the Floquet resolvent, folded as a root's ladder over a row
table (``first_sheet_rows`` puts every channel on the first sheet).
``deep_fold`` rebuilds a solved pole's state with its ladder folded to a
half-width the caller forces, past the solver's own sizing, and
``wide_solve`` solves with every truncation pushed past the solver's own.
``shift_mode`` is the Floquet copy of a solved pole, a ``FloquetCopy``.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np

from floquet_hhg import ModelParams, solve_resonance
from floquet_hhg import perturbation, solver
from floquet_hhg.solver import ResonanceState

#: Sheets selected at a point above the real axis: every channel on the
#: first sheet.
FIRST_SHEET = (1j, True)


def continued_fraction(params: ModelParams, z: complex, direction: str,
                       depth: int | None = None) -> complex:
    """Folded influence C_+(z) or C_-(z) of one wing of the ladder.

    ``direction`` is "up" (n >= 1 rows) or "down" (n <= -1).  With a
    ``depth`` the fraction is truncated there exactly; otherwise the depth
    is chosen by the modified-Lentz pass to the solver tolerance.  Sheets
    are frozen from Re z.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    sgn = 1 if direction == "up" else -1
    z = complex(z)
    if params.A == 0.0:
        return 0.0j
    rows = solver._Rows(params, sgn * np.arange(1, (depth or 40) + 1),
                        (z, False))
    d, dp = rows.diagonals(z)
    if depth is not None:
        return solver._chain(params, z, sgn, depth, d, dp)[0]
    return solver._chain_adaptive(params, z, sgn, rows, d, dp)[0]


def dispersion_core(z: complex, rows):
    """D(z), D'(z) and the evaluation behind them over the row table
    ``rows``, each wing folded as deep as D needs (a Newton iterate's)."""
    evaluation = solver._evaluate(z, rows)
    return (*solver._dispersion(z, rows, evaluation), evaluation)


def dispersion(params: ModelParams, z: complex) -> complex:
    """Scalar dispersion function D(z); zero exactly at quasi-energy poles.

    Sheets are selected at z itself (``second_sheet`` with ``at_z``).
    """
    z = complex(z)
    return dispersion_core(z, solver._rows(params, z, at_z=True))[0]


def first_sheet_rows(params: ModelParams):
    """The row table of a solve with every channel on the first sheet."""
    return solver._rows(params, *FIRST_SHEET)


def resolvent_column(params: ModelParams, z: complex,
                     rows=None) -> np.ndarray:
    """Column 0 of the Floquet resolvent, G_n0(z) = R_n(z)/D(z), for n on
    [-N, N] in order, sized and folded as a root's ladder (``_fold_ladder``)
    over ``rows``, by default with sheets selected at z itself."""
    z = complex(z)
    if rows is None:
        rows = solver._rows(params, z, at_z=True)
    D, R, _ = solver._fold_ladder(z, rows, solver._evaluate(z, rows))
    return R / D


def deep_fold(state: ResonanceState, half_width: int):
    """The state of a solved (mode-0, driven) pole rebuilt with its ladder
    on [-half_width, half_width], and that ladder before normalization
    (1 at n = 0).

    The root is folded again over the sheets of the solve's own row
    table, keeping ``half_width`` levels a wing with no bar on its
    entries, and the ladder and the norm are formed as in
    ``solve_resonance``: jointly rescaled to a unit ladder product with
    Re R_0 > 0, -lambda^2 Sigma'(n, z_d) as each channel's continuum part.
    """
    params, z, N = state.params, state.z_d, half_width
    rows = solver._rows(params, z)
    _, lsp, wings = solver._evaluate(z, rows)
    half = complex(0.0, -0.5 * params.A)  # A/2i
    raw = [1.0 + 0.0j]
    for direction, wing in zip((1, -1), wings):
        T = solver._chain_adaptive(params, z, direction, rows, *wing, N)[2]
        entries = np.cumprod(direction * half / np.array(T))
        raw = raw + entries.tolist() if direction > 0 \
            else entries[::-1].tolist() + raw
    raw = np.array(raw)
    sign = np.where(np.arange(-N, N + 1) % 2, -1.0, 1.0)
    R = raw / cmath.sqrt(np.sum(sign * raw * raw))
    R = -R if R[N].real < 0.0 else R
    q = np.array(wings[1][1][:N][::-1] + [lsp] + wings[0][1][:N])
    N_d = 1.0 / np.sum(sign * R * R * (1.0 - q))
    return replace(state, R=R, N_d=N_d), raw


def wide_solve(params: ModelParams) -> ResonanceState:
    """``solve_resonance`` with every truncation pushed past the solver's
    own: the ladder's bar squared (the seed's Bessel sum, the row table
    and the root fold) and CF_TOL = 1e-15 for each continued fraction."""
    saved = perturbation.LADDER_TOL, solver.LADDER_TOL, solver.CF_TOL
    perturbation.LADDER_TOL = solver.LADDER_TOL = saved[1] ** 2
    solver.CF_TOL = 1e-15
    try:
        return solve_resonance(params)
    finally:
        perturbation.LADDER_TOL, solver.LADDER_TOL, solver.CF_TOL = saved


@dataclass(frozen=True, eq=False)
class FloquetCopy(ResonanceState):
    """A solved pole's Floquet copy ``mode``: its channels ``ns`` move by
    ``mode``; every other derived field follows from them and ``z_d``."""

    mode: int

    @property
    def ns(self) -> np.ndarray:
        return super().ns + self.mode


def shift_mode(state: ResonanceState, m: int) -> ResonanceState:
    """Floquet copy of the pole: z -> z + m*omega and R_n -> R_{n - m}.

    Mode shifting is exact: the ladder arrays stay as they are while their
    channel indices ``ns`` move by m, the normalization constant is mode
    independent, and the state selects the sheets anew at the shifted pole.
    """
    m = int(m)
    if m == 0:
        return state
    fields = {**vars(state), "z_d": state.z_d + m * state.params.omega,
              "mode": getattr(state, "mode", 0) + m}
    return FloquetCopy(**fields)
