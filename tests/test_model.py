from __future__ import annotations

import math

import numpy as np
import pytest

from floquet_hhg import ModelParams, second_sheet

from quadrature import spectral_density


def brute_channels(epsilon_d, omega, k_c, window):
    """Direct enumeration of the open-channel inequality."""
    lo, hi = window
    return tuple(n for n in range(lo, hi + 1)
                 if 0.0 < epsilon_d - n * omega < k_c)


def open_channels(p, window=(-32, 32)):
    """Channels of the window on the second sheet at z = eps_d."""
    ns = np.arange(window[0], window[1] + 1)
    return tuple(ns[second_sheet(p, ns, p.epsilon_d)].tolist())


class TestMakeModel:
    def test_reference_bundle(self):
        p = ModelParams(1.0, 2.4, 1.2, 0.1, 2 * math.pi)
        assert p.a_over_omega == pytest.approx(2.0)

    def test_free_atom_limit(self):
        p = ModelParams(1.0, 0.0, 1.2, 0.0)
        assert p.A == 0.0 and p.lambda_ == 0.0

    def test_zero_omega_rejected(self):
        with pytest.raises(ValueError, match="omega must be positive"):
            ModelParams(1.0, 1.0, 0.0, 0.1)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError, match="^lambda must be nonnegative$"):
            ModelParams(1.0, 1.0, 1.2, -0.1)

    def test_zero_cutoff_rejected(self):
        with pytest.raises(ValueError, match="k_c"):
            ModelParams(1.0, 1.0, 1.2, 0.1, 0.0)

    @pytest.mark.parametrize("field,args", [
        ("epsilon_d", (math.nan, 1.0, 1.2, 0.1)),
        ("A", (1.0, math.inf, 1.2, 0.1)),
        ("omega", (1.0, 1.0, math.nan, 0.1)),
        ("lambda_", (1.0, 1.0, 1.2, 10 ** 400)),  # too large for a float
    ])
    def test_non_finite_rejected_naming_field(self, field, args):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelParams(*args)

    def test_non_number_rejected_naming_field(self):
        with pytest.raises(ValueError, match="^epsilon_d must be a real "
                                             "number, got 'x'$"):
            ModelParams(epsilon_d="x", A=1.0, omega=1.2, lambda_=0.1)

    def test_params_frozen(self):
        p = ModelParams(1.0, 2.4, 1.2, 0.1)
        with pytest.raises(AttributeError):
            p.omega = 2.0


class TestOpenChannels:
    def test_reference_parameters(self):
        p = ModelParams(1.0, 2.4, 1.2, 0.1)
        got = open_channels(p, (-8, 8))
        assert got == brute_channels(1.0, 1.2, p.k_c, (-8, 8))
        assert set(got) == {0, -1, -2, -3, -4}

    def test_negative_level(self):
        # n = -1 shifts -1.0 up to 0.2, inside the continuum
        p = ModelParams(-1.0, 2.4, 1.2, 0.1)
        got = open_channels(p, (-8, 8))
        assert got == brute_channels(-1.0, 1.2, p.k_c, (-8, 8))
        assert set(got) == {-1, -2, -3, -4, -5, -6}

    def test_independent_of_coupling_and_drive(self):
        for lam in (0.0, 0.1):
            for A in (0.0, 2.4):
                p = ModelParams(1.0, A, 1.2, lam)
                assert set(open_channels(p)) == {0, -1, -2, -3, -4}

    def test_open_channels_have_positive_density(self):
        p = ModelParams(1.0, 2.4, 1.2, 0.1)
        window = (-8, 8)
        chans = set(open_channels(p, window))
        for n in range(window[0], window[1] + 1):
            point = p.epsilon_d - n * p.omega
            if n in chans:
                assert spectral_density(point, p.k_c) > 0.0
            else:
                assert not (0.0 < point < p.k_c)

