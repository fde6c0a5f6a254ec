"""Physical parameters and the sheet rule of the Floquet channels.

Units: hbar = c = 1.  The photon dispersion is eps_k = |k| with a sharp
coupling cutoff at |k| = k_c, and the drive enters only through the
instantaneous level energy eps_d + A*sin(omega*t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelParams:
    """Driven-emitter parameter bundle.

    ``epsilon_d`` is the bare excited-level energy, ``A`` and ``omega`` the
    drive amplitude and frequency, ``lambda_`` the emitter-continuum
    coupling, and ``k_c`` the momentum cutoff of the coupling.
    """

    epsilon_d: float
    A: float
    omega: float
    lambda_: float
    k_c: float = TWO_PI

    def __post_init__(self) -> None:
        for name in ("epsilon_d", "A", "omega", "lambda_", "k_c"):
            value = getattr(self, name)
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the largest float
                raise ValueError(
                    f"{name} must be finite, got {value!r}") from None
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.k_c <= 0.0:
            raise ValueError("k_c must be positive")
        if self.lambda_ < 0.0:
            raise ValueError("lambda must be nonnegative")

    @property
    def a_over_omega(self) -> float:
        return self.A / self.omega


def make_model(epsilon_d: float, A: float, omega: float, lambda_: float,
               k_c: float = TWO_PI) -> ModelParams:
    """Validate and bundle the five physical numbers of the model."""
    return ModelParams(epsilon_d=epsilon_d, A=A, omega=omega,
                       lambda_=lambda_, k_c=k_c)


def second_sheet(params: ModelParams, n, z: complex,
                 at_z: bool = False) -> np.ndarray:
    """The sheet rule: mask of the channels n evaluated on the second sheet.

    Channel n is open when Re(z) - n*omega lies inside the continuum
    (0, k_c); a resonance pole sought below the real axis sees an open
    channel through its cut.  With ``at_z`` the sheets are selected at z
    itself: the mask also requires Im(z) < 0, so the real axis and the
    upper half-plane use the first sheet (limit from above).
    """
    z = complex(z)
    zeta_re = z.real - np.asarray(n) * params.omega
    mask = (0.0 < zeta_re) & (zeta_re < params.k_c)
    return mask if z.imag < 0.0 or not at_z else np.zeros_like(mask)
