"""Scalar views of the folded solver that only the tests read.

``continued_fraction`` folds one wing of the ladder at a fixed or
Lentz-chosen depth, and ``dispersion`` evaluates D(z); both run the
solver's own private kernels, so the tests probe exactly what
``solve_resonance`` computes.  ``first_sheet_rows`` is a solve's row
table with every channel on the first sheet, and ``first_sheet_column``
the resolvent column folded over it.  ``shift_mode`` is the Floquet copy
of a solved pole.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from floquet_hhg import ModelParams, SolverOptions, second_sheet
from floquet_hhg import solver
from floquet_hhg.solver import ResonanceState

#: Sheets selected at a point above the real axis: every channel on the
#: first sheet.
FIRST_SHEET = (1j, True)


def continued_fraction(params: ModelParams, z: complex, direction: str,
                       depth: int | None = None,
                       options: SolverOptions | None = None) -> complex:
    """Folded influence C_+(z) or C_-(z) of one wing of the ladder.

    ``direction`` is "up" (n >= 1 rows) or "down" (n <= -1).  With a
    ``depth`` the fraction is truncated there exactly; otherwise the depth
    is chosen by the modified-Lentz pass to the solver tolerance.  Sheets
    are frozen from Re z.
    """
    if direction not in ("up", "down"):
        raise ValueError("direction must be 'up' or 'down'")
    sgn = 1 if direction == "up" else -1
    opts = options or SolverOptions()
    z = complex(z)
    if params.A == 0.0:
        return 0.0j
    rows = solver._Rows(params, sgn * np.arange(
        1, (depth or opts.window + solver._LEVEL_MARGIN) + 1), (z, False))
    d, dp = rows.diagonals(z)
    if depth is not None:
        return solver._chain(params, z, sgn, depth, d, dp)[0]
    return solver._chain_adaptive(params, z, sgn, rows, d, dp)[0]


def dispersion(params: ModelParams, z: complex,
               options: SolverOptions | None = None) -> complex:
    """Scalar dispersion function D(z); zero exactly at quasi-energy poles.

    Sheets are selected at z itself (``second_sheet`` with ``at_z``).
    """
    opts = options or SolverOptions()
    z = complex(z)
    return solver._dispersion_core(z, solver._rows(
        params, opts, z, at_z=True))[0]


def first_sheet_rows(params: ModelParams,
                     options: SolverOptions | None = None):
    """The row table of a solve with every channel on the first sheet."""
    return solver._rows(params, options or SolverOptions(), *FIRST_SHEET)


def first_sheet_column(params: ModelParams, z: complex,
                       options: SolverOptions | None = None) -> np.ndarray:
    """``resolvent_column`` at z with every channel on the first sheet."""
    opts = options or SolverOptions()
    D, _, _, (t_up, t_dn), _ = solver._dispersion_core(
        complex(z), first_sheet_rows(params, opts), opts.window)
    return solver._ladder_from_levels(params, t_up, t_dn, opts.window) / D


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
