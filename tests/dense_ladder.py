"""Dense truncated ladder: the linear-algebra check of the folded solver.

The helpers build the (2*n_tr+1)^2 ladder matrix with every self-energy
frozen at one argument, one channel at a time, and fold it with
their own scalar continued fraction, so the checks stay independent of the
solver's array-valued chain.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from floquet_hhg import second_sheet

from sigma_reference import channel_sigma

#: Sheet of channel n: True for the second sheet.
SheetFn = Callable[[int], bool]


def frozen_diagonal(params, z_sigma: complex, n_tr: int,
                    sheets: SheetFn | None = None) -> dict[int, complex]:
    """Ladder diagonal d_n = eps_d + n*omega + lambda^2 * Sigma(n, z_sigma)
    on [-n_tr, n_tr]; sheets default to ``second_sheet`` selected at
    z_sigma."""
    z_sigma = complex(z_sigma)
    sheet_of = sheets or (
        lambda n: bool(second_sheet(params, n, z_sigma, at_z=True)))
    diag = {}
    for n in range(-n_tr, n_tr + 1):
        term = 0.0 + 0.0j
        if params.lambda_ != 0.0:
            term = params.lambda_ ** 2 * channel_sigma(params, n, z_sigma,
                                                       sheet_of(n))[0]
        diag[n] = params.epsilon_d + n * params.omega + term
    return diag


def dense_effective_matrix(params, z: complex, n_tr: int,
                           sheets: SheetFn | None = None,
                           gauge: str = "ladder") -> np.ndarray:
    """Dense (2*n_tr+1)^2 ladder matrix at frozen self-energy argument z.

    ``gauge`` chooses the drive off-diagonals: "ladder" uses -A/2i above
    and +A/2i below the diagonal; "symmetric" uses A/2 on both, related by
    the diagonal similarity d_n -> i^n d_n (identical spectrum).
    """
    if gauge not in ("ladder", "symmetric"):
        raise ValueError(f"unknown gauge {gauge!r}")
    diag = frozen_diagonal(params, z, n_tr, sheets)
    dim = 2 * n_tr + 1
    H = np.diag(np.array([diag[n] for n in range(-n_tr, n_tr + 1)]))
    if gauge == "ladder":
        above, below = complex(0.0, 0.5 * params.A), complex(0.0, -0.5 * params.A)
    else:
        above = below = complex(0.5 * params.A, 0.0)
    for i in range(dim - 1):
        H[i, i + 1] = above
        H[i + 1, i] = below
    return H


def frozen_chain(params, z: complex, direction: int, depth: int,
                 diag: dict[int, complex]):
    """Scalar wing continued fraction at fixed depth with frozen diagonals.

    Returns (C, C', T) with T[m] = z - d_{direction*m} - (A^2/4)/T_{m+1}
    for m = 1..depth; C' is the z-derivative at frozen self-energies.
    """
    a2 = 0.25 * params.A * params.A
    T = Tp = None
    levels = {}
    for m in range(depth, 0, -1):
        d_n = diag[direction * m]
        if T is None:
            T, Tp = z - d_n, 1.0
        else:
            T, Tp = z - d_n - a2 / T, 1.0 + a2 * Tp / (T * T)
        levels[m] = T
    return a2 / T, -a2 * Tp / (T * T), levels


@dataclass(frozen=True)
class DenseCheck:
    """Agreement report between the dense truncated ladder and the folded
    continued-fraction form at a frozen self-energy argument."""

    z_dense: complex
    z_folded: complex
    eigvec_cos_distance: float

    @property
    def eigenvalue_gap(self) -> float:
        return abs(self.z_dense - self.z_folded)


def dense_truncated_check(params, z_fixed: complex, n_tr: int) -> DenseCheck:
    """Compare the dense truncated eigenpair nearest eps_d against the
    continued-fraction fold with self-energies frozen at z_fixed."""
    if n_tr < 4:
        raise ValueError("n_tr must be at least 4")
    z_fixed = complex(z_fixed)
    diag = frozen_diagonal(params, z_fixed, n_tr)
    H = dense_effective_matrix(params, z_fixed, n_tr)
    vals, vecs = np.linalg.eig(H)
    idx = int(np.argmin(np.abs(vals - params.epsilon_d)))
    z_dense = complex(vals[idx])
    v_dense = vecs[:, idx]

    # fold the frozen matrix onto the center row and Newton the scalar
    def folded(zp: complex):
        cu, cup, _ = frozen_chain(params, zp, +1, n_tr, diag)
        cd, cdp, _ = frozen_chain(params, zp, -1, n_tr, diag)
        return zp - diag[0] - cu - cd, 1.0 - cup - cdp

    zp = z_dense  # seed at the dense answer; Newton polishes the fold
    for _ in range(80):
        Dv, Dpv = folded(zp)
        step = Dv / Dpv
        zp = zp - step
        if abs(step) < 1e-15 * max(1.0, abs(zp)):
            break

    # eigenvector from the frozen wing ratios at the folded eigenvalue
    _, _, t_up = frozen_chain(params, zp, +1, n_tr, diag)
    _, _, t_dn = frozen_chain(params, zp, -1, n_tr, diag)
    coeffs = {0: 1.0 + 0.0j}
    up_num = complex(0.0, -0.5 * params.A)
    for mm in range(1, n_tr + 1):
        coeffs[mm] = coeffs[mm - 1] * up_num / t_up[mm]
        coeffs[-mm] = coeffs[-(mm - 1)] * (-up_num) / t_dn[mm]
    v_cf = np.array([coeffs[n] for n in range(-n_tr, n_tr + 1)])
    overlap = abs(np.vdot(v_dense, v_cf))
    denom = float(np.linalg.norm(v_dense) * np.linalg.norm(v_cf))
    cos_dist = 1.0 - overlap / denom
    return DenseCheck(z_dense=z_dense, z_folded=complex(zp),
                      eigvec_cos_distance=float(cos_dist))


def dense_gauge_gap(params, z_fixed: complex, n_tr: int) -> float:
    """Largest eigenvalue discrepancy between the two drive gauges of the
    dense truncated ladder (zero up to roundoff by similarity)."""
    H_ladder = dense_effective_matrix(params, z_fixed, n_tr, gauge="ladder")
    H_symm = dense_effective_matrix(params, z_fixed, n_tr, gauge="symmetric")
    ev_a = np.sort_complex(np.linalg.eigvals(H_ladder))
    ev_b = np.sort_complex(np.linalg.eigvals(H_symm))
    return float(np.max(np.abs(ev_a - ev_b)))
