from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import jv

from floquet_hhg import ConvergenceError, bessel_j, make_model, \
    perturbative_eigenvalue, second_sheet
from floquet_hhg.perturbation import LADDER_TOL, bessel_half, \
    bessel_support

from quadrature import spectral_density
from sigma_reference import channel_sigma

NS = np.arange(-32, 33)


def bessel_series_exact(n: int, x: Fraction) -> float:
    """Defining power series summed in exact rational arithmetic.

    Immune to the catastrophic cancellation that breaks a float series at
    large argument, so it certifies absolute errors down to 1e-15.
    """
    half = x / 2
    term = half ** n / math.factorial(n)
    total = term
    m = 1
    while True:
        term *= -(half * half)
        term /= m * (n + m)
        total += term
        if abs(term) < Fraction(1, 10 ** 40):
            return float(total)
        m += 1


class TestBesselJ:
    def test_origin(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    def test_reference_value(self):
        assert bessel_j(0, 2.0) == pytest.approx(0.22389077914123567, abs=1e-14)

    def test_parity(self):
        assert bessel_j(-1, 2.0) == -bessel_j(1, 2.0)
        assert bessel_j(-2, 2.0) == bessel_j(2, 2.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 17, 33, 64])
    @pytest.mark.parametrize("x", ["1/2", "2", "73/10", "13", "20"])
    def test_against_exact_series(self, n, x):
        xf = Fraction(x)
        assert abs(bessel_j(n, float(xf)) - bessel_series_exact(n, xf)) < 1e-12

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)


class TestBesselLadderAgainstJv:
    """The FFT ladder's n >= 0 half, and ``bessel_j`` over both halves,
    against ``scipy.special.jv``, over the orders and arguments the solver
    and the compare report can ask for."""

    NS = np.arange(-80, 81)
    XS = np.concatenate([np.linspace(0.0, 60.0, 601), [math.pi, math.e,
                                                      2 ** 0.5, 59.99]])

    def test_within_5e_15_up_to_x_60(self):
        worst = max(np.max(np.abs(bessel_half(80, x) - jv(self.NS[80:], x)))
                    for x in self.XS)
        assert worst <= 5e-15

    def test_within_1e_15_up_to_x_6(self):
        worst = max(np.max(np.abs(bessel_half(80, x) - jv(self.NS[80:], x)))
                    for x in self.XS[self.XS <= 6.0])
        assert worst <= 1e-15

    def test_bessel_j_reads_the_ladder(self):
        for x in self.XS[::20]:
            got = np.array([bessel_j(n, x) for n in self.NS.tolist()])
            assert np.max(np.abs(got - jv(self.NS, x))) <= 5e-15

    @pytest.mark.parametrize("x", [0.0, 0.5, 2.0, 13.0, 60.0])
    def test_exact_reflection(self, x):
        ns = np.arange(-40, 41)
        ladder = np.array([bessel_j(n, x) for n in ns.tolist()])
        assert np.array_equal(ladder[::-1], ladder * (-1.0) ** ns)

    def test_origin_exact(self):
        assert np.array_equal(bessel_half(40, 0.0),
                              (np.arange(41) == 0) * 1.0)
        assert [bessel_j(n, 0.0) for n in range(-40, 0)] == [0.0] * 40


def sideband_weights(x: float, window: int) -> dict[int, float]:
    """Squared Bessel weights J_n(x)^2 on [-window, window]."""
    return {n: bessel_j(n, x) ** 2 for n in range(-window, window + 1)}


class TestWeightTable:
    def test_closure(self):
        # sum of squared weights reaches 1 once the window clears x + 40
        assert abs(math.fsum(sideband_weights(2.0, 42).values()) - 1.0) \
            < 1e-12
        assert abs(math.fsum(sideband_weights(13.0, 53).values()) - 1.0) \
            < 1e-12

    def test_symmetric_in_order(self):
        weights = sideband_weights(2.0, 8)
        for n in range(1, 9):
            assert weights[-n] == weights[n]


class TestPerturbativeEigenvalue:
    def test_zero_coupling(self):
        p = make_model(1.0, 2.4, 1.2, 0.0)
        assert perturbative_eigenvalue(p) == complex(1.0)

    def test_no_drive_reduces_to_single_channel(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        expect = p.epsilon_d \
            + p.lambda_ ** 2 * channel_sigma(p, 0, complex(1.0, 0.0))[0]
        got = perturbative_eigenvalue(p)
        assert got == pytest.approx(expect, rel=1e-10)

    def test_reference_imaginary_part_from_channel_sum(self):
        # decay rate must equal the open-channel density sum assembled
        # independently from the density and the squared Bessel weights
        p = make_model(1.0, 2.4, 1.2, 0.1)
        z = perturbative_eigenvalue(p)
        expect = -p.lambda_ ** 2 * math.pi * sum(
            spectral_density(p.epsilon_d - n * p.omega, p.k_c)
            * bessel_j(n, 2.0) ** 2
            for n in NS[second_sheet(p, NS, p.epsilon_d)].tolist())
        assert z.imag == pytest.approx(expect, rel=1e-10)
        assert z.imag == pytest.approx(-0.16189620450782505, abs=1e-12)
        assert z.real == pytest.approx(0.7572299899736703, abs=1e-12)

    def test_window_doubling_converged(self):
        # the sum over the Bessel bound's support against one over
        # [-64, 64], the weights from scipy
        p = make_model(1.0, 2.4, 1.2, 0.1)
        terms = [channel_sigma(p, n, complex(1.0, 0.0))[0] * jv(n, 2.0) ** 2
                 for n in range(-64, 65)]
        wide = p.epsilon_d + p.lambda_ ** 2 * sum(terms)
        assert bessel_support(2.0) < 20
        assert abs(perturbative_eigenvalue(p) - wide) < 1e-15

    def test_decay_sign(self, rng):
        for _ in range(20):
            p = make_model(rng.uniform(-2, 7), rng.uniform(0, 4),
                           rng.uniform(0.5, 3), rng.uniform(0, 0.2))
            z = perturbative_eigenvalue(p)
            assert z.imag <= 1e-15
            if second_sheet(p, NS, p.epsilon_d).any() and p.lambda_ > 0:
                assert z.imag < 0.0

    def test_branch_point_collision_rejected(self):
        # the channel n = 2 shift lands exactly on the continuum edge
        p = make_model(2.4, 2.4, 1.2, 0.1)
        with pytest.raises(ValueError, match="channel-2 branch point"):
            perturbative_eigenvalue(p)

    def test_branch_point_names_first_channel(self):
        # eps_d - n*omega hits k_c at n = -2 and 0 at n = 0; the message
        # names the first hit counting up from n = -window
        p = make_model(0.0, 1.0, math.pi, 0.1)
        with pytest.raises(ValueError, match="channel--2 branch point"):
            perturbative_eigenvalue(p)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(omega=st.floats(0.1, 3.0), n0=st.integers(-24, 24),
           edge=st.booleans(), a_over_omega=st.floats(0.0, 3.0))
    def test_branch_point_channel_matches_loop(self, omega, n0, edge,
                                               a_over_omega):
        # eps_d placed on channel n0's lower edge or (to rounding) its
        # upper edge; the array check names the first channel that the
        # scalar loop, counting up from -support, finds on a branch point
        eps_d = n0 * omega + (2.0 * math.pi if edge else 0.0)
        p = make_model(eps_d, a_over_omega * omega, omega, 0.1)
        support = bessel_support(p.a_over_omega)
        first = next((n for n in range(-support, support + 1)
                      if eps_d - n * omega in (0.0, p.k_c)), None)
        if first is None:
            assert perturbative_eigenvalue(p) is not None
        else:
            with pytest.raises(ValueError,
                               match=f"channel-{first} branch point"):
                perturbative_eigenvalue(p)


class TestBesselSupport:
    @pytest.mark.parametrize("x", [0.0, 1e-9, 0.5, 2.0, 3.0, 8.0, 30.0])
    def test_bound_against_jv(self, x):
        # |J_n(x)| is below the bar past the support, and the bound is
        # not far off: |J| at the support itself is above 1e-4 of the bar
        # (for x > 0.1)
        n = bessel_support(x)
        tail = np.abs(jv(np.arange(n + 1, n + 60), x))
        assert np.all(tail < LADDER_TOL)
        if x > 0.1:
            assert abs(jv(n, x)) > 1e-4 * LADDER_TOL
        if x == 0.0:
            assert n == 0

    @pytest.mark.parametrize("x", [1e4, math.inf])
    def test_overflowing_bound_is_typed(self, x):
        # (x/2)^n/n! passes the float range before it falls below the bar
        with pytest.raises(ConvergenceError, match="overflows"):
            bessel_support(x)
