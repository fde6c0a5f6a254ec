"""Reference for the complete survival amplitude: the driven emitter's
memory equation over the photon continuum, solved on a time grid.

Eliminating the photons (density rho(eps) = 4 eps on (0, k_c)) leaves, for
u(t) = exp(i phi(t)) c(t) with phi(t) = eps_d t - (A/omega)(cos(omega t)
- 1),

    u'(t) = -integral_0^t K(t - s) exp(i (phi(t) - phi(s))) u(s) ds,
    K(tau) = lambda^2 integral_0^{k_c} rho(eps) exp(-i eps tau) d eps
           = 4 lambda^2 [e^{-i k_c tau} (i k_c/tau + 1/tau^2) - 1/tau^2].

The memory integral is a trapezoidal sum on the grid and u is stepped by
the trapezoidal rule, which gives an error expansion in h^2; one
Richardson step over h and h/2 removes its leading term.  Nothing here
shares code with the contour expansion of the package.
"""
from __future__ import annotations

import numpy as np


def memory_kernel(params, tau) -> np.ndarray:
    """K(tau) on an array of tau >= 0, as 4 lambda^2 k_c^2 times
    integral_0^1 s exp(-i y s) ds, y = k_c tau: by its series below y = 1,
    where the closed form cancels, and in closed form above."""
    y = params.k_c * np.asarray(tau, dtype=float)
    out = np.empty(y.shape, dtype=complex)
    small = y < 1.0
    term = np.ones(np.count_nonzero(small), dtype=complex)
    out[small] = 0.5
    for n in range(1, 25):  # sum_n (-i y)^n / (n! (n + 2))
        term = term * (-1j * y[small]) / n
        out[small] += term / (n + 2)
    big = y[~small]
    out[~small] = (np.exp(-1j * big) * (1j * big + 1.0) - 1.0) / big ** 2
    return 4.0 * params.lambda_ ** 2 * params.k_c ** 2 * out


def trapezoid_amplitude(params, t_end: float, h: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Grid times j*h up to t_end and c there, from c(0) = 1."""
    n_steps = int(round(t_end / h))
    t = h * np.arange(n_steps + 1)
    rotor = np.exp(1j * (params.epsilon_d * t - params.a_over_omega
                         * (np.cos(params.omega * t) - 1.0)))
    back = memory_kernel(params, t)[::-1].copy()  # back[i] = K(t_end - t_i)
    k0 = back[-1]
    c = np.zeros(n_steps + 1, dtype=complex)
    c[0] = u = 1.0
    slope = 0.0
    for n in range(1, n_steps + 1):
        # u'(t_n) less its own end term -h/2 K(0) u_n, which the implicit
        # trapezoidal step solves for
        memory = -h * rotor[n] * (0.5 * back[n_steps - n] * c[0] + np.dot(
            back[n_steps - n + 1:n_steps], c[1:n]))
        u = (u + 0.5 * h * (slope + memory)) / (1.0 + 0.25 * h * h * k0)
        slope = memory - 0.5 * h * k0 * u
        c[n] = u / rotor[n]
    return t, c


def continuum_amplitude(params, t_end: float, h: float = 1e-2
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Grid times j*h up to t_end and the complete amplitude c there,
    Richardson-extrapolated from the steps h and h/2."""
    t, coarse = trapezoid_amplitude(params, t_end, h)
    fine = trapezoid_amplitude(params, t_end, 0.5 * h)[1][::2]
    return t, (4.0 * fine - coarse) / 3.0
