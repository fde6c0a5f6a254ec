"""Scalar views of the folded solver that only the tests read.

``continued_fraction`` folds one wing of the ladder at a fixed or
Lentz-chosen depth, and ``dispersion`` evaluates D(z); both run the
solver's own private kernels, so the tests probe exactly what
``solve_resonance`` computes.
"""
from __future__ import annotations

import numpy as np

from floquet_hhg import ModelParams, SolverOptions
from floquet_hhg import solver


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
    sheet_ref = solver._sheet_ref(opts, z)
    if params.A == 0.0:
        return 0.0j
    d, dp = solver._diagonals(params, z, sgn * np.arange(
        1, (depth or opts.window + solver._LEVEL_MARGIN) + 1), sheet_ref)
    if depth is not None:
        return solver._chain(params, z, sgn, depth, d, dp)[0]
    return solver._chain_adaptive(params, z, sgn, opts, sheet_ref, d, dp)[0]


def dispersion(params: ModelParams, z: complex,
               options: SolverOptions | None = None) -> complex:
    """Scalar dispersion function D(z); zero exactly at quasi-energy poles.

    Sheets are selected at z itself (``select_sheet``).
    """
    opts = options or SolverOptions()
    z = complex(z)
    D, _, _, _ = solver._dispersion_core(z, opts, solver._rows(
        params, opts, solver._sheet_ref(opts, z, at_z=True)))
    return D
