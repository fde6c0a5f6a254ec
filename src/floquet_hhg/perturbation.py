"""Weak-coupling eigenvalue estimate with Bessel-function channel weights.

To second order in the coupling, the drive dresses the emitter level into
a ladder of sidebands weighted by J_n(A/omega)^2, and the complex level
shift is the weight-averaged self-energy evaluated at the bare energy
(upper-boundary values).  This serves both as an independent cross-check
of the full solver and as its starting guess.

The Bessel weights are the Fourier coefficients of exp(i x sin t)
(Jacobi-Anger): J_n(x) = (1/2pi) * integral_0^{2pi} exp(i(x sin t - n t)) dt.
The trapezoid rule on M equispaced points is exponentially accurate for
this periodic integrand (Trefethen & Weideman, SIAM Rev. 56, 385, 2014),
so one FFT gives the whole n >= 0 half of the ladder (``bessel_half``);
the n < 0 half is its exact reflection J_{-n} = (-1)^n J_n.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError
from .model import ModelParams
from .self_energy import ChannelRows

#: Rounding-level bar of a ladder entry (the center's being 1).
LADDER_TOL = 1e-17


def bessel_half(n_max: int, x: float) -> np.ndarray:
    """J_n(x) for n = 0..n_max (x >= 0), from one FFT on M points.

    M is the smallest power of two >= max(64, n_max + x + 10 x^(1/3) + 25),
    which leaves the aliased J_{M-n}(x) below 1e-17.
    """
    m = 64
    while m < n_max + x + 10.0 * x ** (1.0 / 3.0) + 25.0:
        m *= 2
    return np.fft.fft(np.exp(1j * x * _sines(m)))[:n_max + 1].real / m


@functools.lru_cache(maxsize=None)
def _sines(m: int) -> np.ndarray:
    """sin(2*pi*k/M), k = 0..M-1, read-only: the FFT's nodes."""
    out = np.sin(np.arange(m) * (2.0 * np.pi / m))
    out.flags.writeable = False
    return out


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x) for integer n and x >= 0;
    J_{-n} = (-1)^n J_n holds exactly."""
    if x < 0.0:
        raise ValueError("bessel_j requires x >= 0")
    n = int(n)
    j = float(bessel_half(abs(n), x)[abs(n)])
    return -j if n < 0 and n % 2 else j


def bessel_support(x: float) -> int:
    """Smallest n >= 0 with |J_m(x)| < LADDER_TOL for all |m| > n (x >= 0),
    by |J_m(x)| <= (x/2)^m / m!, a bound falling with m past m = x/2.
    ConvergenceError where the bound overflows (x past about 1400)."""
    m, bound = 1, 0.5 * x
    while bound >= LADDER_TOL or m <= 0.5 * x:
        if bound == math.inf:
            raise ConvergenceError(
                f"Bessel bound (x/2)^n/n! overflows at x = A/omega = {x}")
        m += 1
        bound *= 0.5 * x / m
    return m - 1


def perturbative_eigenvalue(params: ModelParams) -> complex:
    """Second-order complex level shift: eps_d + lambda^2 * sum_n
    Sigma(n, eps_d + i0+) * J_n(A/omega)^2 over |n| <= bessel_support(A/omega).

    Open channels contribute -i*pi*rho(eps_d - n*omega) imaginary parts
    through the upper-boundary self-energy values, so the imaginary part
    is strictly negative whenever any channel is open and lambda > 0.
    On a branch point ``ChannelRows.sigma``'s ValueError names the channel.
    """
    if params.lambda_ == 0.0:  # no shift, whatever Sigma is
        return complex(params.epsilon_d)
    x = abs(params.a_over_omega)  # J_n(-x)^2 == J_n(x)^2
    support = bessel_support(x)
    ns = np.arange(-support, support + 1)
    rows = ChannelRows(params, ns)  # every channel on the first sheet
    s, _ = rows.sigma(complex(params.epsilon_d, 0.0))
    w2 = bessel_half(support, x) ** 2  # J_{-n}^2 == J_n^2 exactly
    shift = complex(np.add.reduce(s * np.concatenate([w2[:0:-1], w2])))
    return params.epsilon_d + params.lambda_ ** 2 * shift
