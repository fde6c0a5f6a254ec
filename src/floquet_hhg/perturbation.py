"""Weak-coupling eigenvalue estimate with Bessel-function channel weights.

To second order in the coupling, the drive dresses the emitter level into
a ladder of sidebands weighted by J_n(A/omega)^2, and the complex level
shift is the weight-averaged self-energy evaluated at the bare energy
(upper-boundary values).  This serves both as an independent cross-check
of the full solver and as its starting guess.

Bessel functions come from ``scipy.special.jv``.
"""
from __future__ import annotations

import numpy as np
from scipy.special import jv

from .model import DEFAULT_WINDOW, ModelParams
from .self_energy import sigma_ladder


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer n and x >= 0."""
    if x < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    return float(jv(int(n), x))


def perturbative_eigenvalue(params: ModelParams,
                            window: int = DEFAULT_WINDOW) -> complex:
    """Second-order complex level shift: eps_d + lambda^2 * sum_n
    Sigma(n, eps_d + i0+) * J_n(A/omega)^2.

    Open channels contribute -i*pi*rho(eps_d - n*omega) imaginary parts
    through the upper-boundary self-energy values, so the imaginary part
    is strictly negative whenever any channel is open and lambda > 0.
    """
    if window < 0:
        raise ValueError("window must be nonnegative")
    for n in range(-window, window + 1):
        shifted = params.epsilon_d - n * params.omega
        if shifted == 0.0 or shifted == params.k_c:
            raise ValueError(
                f"epsilon_d sits on the channel-{n} branch point; the "
                "perturbative eigenvalue is undefined there")
    if params.lambda_ == 0.0:
        return complex(params.epsilon_d)
    x = abs(params.a_over_omega)  # J_n(-x)^2 == J_n(x)^2
    ns = np.arange(-window, window + 1)
    s, _ = sigma_ladder(params, ns, complex(params.epsilon_d, 0.0),
                        np.zeros(ns.shape, dtype=bool))
    shift = complex(np.sum(s * jv(ns, x) ** 2))
    return params.epsilon_d + params.lambda_ ** 2 * shift
