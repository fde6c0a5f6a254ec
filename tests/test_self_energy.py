from __future__ import annotations

import math

import numpy as np
import pytest

from floquet_hhg import ConvergenceError, ModelParams, second_sheet
from floquet_hhg.self_energy import ChannelRows

from quadrature import quadrature_reference, spectral_density
from sigma_reference import channel_sigma

TWO_PI = 2 * math.pi
TOTAL_WEIGHT = 8 * math.pi ** 2  # integral of the density over (0, k_c)


@pytest.fixture(scope="module")
def params():
    return ModelParams(1.0, 2.4, 1.2, 0.1)


class TestSpectralDensity:
    def test_inside(self):
        assert spectral_density(1.0) == 4.0

    def test_beyond_cutoff(self):
        assert spectral_density(TWO_PI + 0.1) == 0.0

    def test_below_edge(self):
        assert spectral_density(-0.5) == 0.0

    def test_endpoints_zero(self):
        assert spectral_density(0.0) == 0.0
        assert spectral_density(TWO_PI) == 0.0

    def test_total_weight(self):
        eps = np.linspace(0, TWO_PI, 200001)
        total = np.trapezoid([spectral_density(e) for e in eps], eps)
        assert total == pytest.approx(TOTAL_WEIGHT, rel=1e-5)


class TestSigmaFirstSheet:
    def test_matches_quadrature(self, params, rng):
        for _ in range(40):
            z = complex(rng.uniform(-8, 10),
                        rng.choice([-1, 1]) * 10 ** rng.uniform(-3, 0.7))
            ref = quadrature_reference(params, 0, z)
            val = channel_sigma(params, 0, z)[0]
            assert abs(val - ref) <= 1e-8 * abs(ref)

    def test_large_z_sum_rule(self, params):
        z = 100j
        assert abs(channel_sigma(params, 0, z)[0] - TOTAL_WEIGHT / z) \
            <= 0.05 * abs(TOTAL_WEIGHT / z)

    def test_plemelj_limit(self, params):
        target = -4 * math.pi * 1.0
        gaps = [abs(channel_sigma(params, 0, complex(1.0, d))[0].imag - target)
                for d in (1e-3, 1e-5, 1e-7)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4

    def test_real_argument_is_upper_boundary_value(self, params):
        # exactly real arguments inside the cut take the limit from above
        val = channel_sigma(params, 0, complex(1.0, 0.0))[0]
        assert val.imag == pytest.approx(-4 * math.pi, rel=1e-12)

    def test_reflection(self, params, rng):
        for _ in range(20):
            z = complex(rng.uniform(-8, 10), 10 ** rng.uniform(-2, 0.7))
            assert channel_sigma(params, 0, z.conjugate())[0] == \
                pytest.approx(channel_sigma(params, 0, z)[0].conjugate(),
                              rel=1e-14)

    def test_half_plane_mapping(self, params, rng):
        for _ in range(20):
            z = complex(rng.uniform(-8, 10),
                        rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 0.7))
            assert math.copysign(1, channel_sigma(params, 0, z)[0].imag) == \
                -math.copysign(1, z.imag)

    def test_shift_identity_exact(self, params):
        z = 1.3 - 0.4j
        for n in (-5, -1, 0, 2, 7):
            assert channel_sigma(params, n, z) == \
                channel_sigma(params, 0, z - n * params.omega)


class TestSecondSheet:
    def test_continuity_across_cut(self, params):
        gaps = []
        for d in (1e-3, 1e-5, 1e-7):
            above = channel_sigma(params, 0, complex(1.0, d))[0]
            below = channel_sigma(params, 0, complex(1.0, -d), True)[0]
            gaps.append(abs(above - below))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-4

    def test_continuation_region_enforced(self, params):
        with pytest.raises(ConvergenceError, match="second sheet"):
            channel_sigma(params, 0, -1.0 - 0.1j, True)
        with pytest.raises(ConvergenceError, match="second sheet"):
            channel_sigma(params, 0, TWO_PI + 1.0 - 0.1j, True)

    def test_branch_points_hard_error(self, params):
        for z in (0.0 + 0.0j, complex(params.k_c, 0.0)):
            with pytest.raises(ValueError, match="branch point"):
                channel_sigma(params, 0, z)

    def test_sheet_difference_is_density_term(self, params):
        # continuation subtracts 2*pi*i times the continued density 4*zeta
        z = 2.0 - 0.3j
        diff = channel_sigma(params, 0, z, True)[0] \
            - channel_sigma(params, 0, z)[0]
        assert diff == pytest.approx(-1j * TWO_PI * 4.0 * z, rel=1e-14)


class TestSigmaPrime:
    # the ids keep the names these cases have always had
    @pytest.mark.parametrize("second,z", [
        pytest.param(False, 1.0 + 0.5j, id="Sheet.FIRST-(1+0.5j)"),
        pytest.param(False, -2.0 + 0.2j, id="Sheet.FIRST-(-2+0.2j)"),
        pytest.param(True, 1.5 - 0.3j, id="Sheet.SECOND-(1.5-0.3j)"),
    ])
    def test_matches_finite_differences(self, params, second, z):
        h = 1e-5
        fd = (channel_sigma(params, 0, z + h, second)[0]
              - channel_sigma(params, 0, z - h, second)[0]) / (2 * h)
        val = channel_sigma(params, 0, z, second)[1]
        assert abs(val - fd) <= 1e-6 * abs(fd)

    def test_large_z_asymptote(self, params):
        z = 200j
        expect = -TOTAL_WEIGHT / z ** 2
        assert abs(channel_sigma(params, 0, z)[1] - expect) \
            <= 0.05 * abs(expect)

    def test_sheet_relation_exact(self, params):
        z = 3.0 - 0.2j
        diff = channel_sigma(params, 0, z, True)[1] \
            - channel_sigma(params, 0, z)[1]
        assert diff == -8j * math.pi


class TestSelectSheet:
    """The sheet rule selected at z itself, one channel at a time."""

    def test_inside_continuation_window(self, params):
        assert second_sheet(params, 0, 1.0 - 0.05j, at_z=True)

    def test_closed_channel(self, params):
        # shifted energy 1.0 - 2*1.2 = -1.4 sits below the continuum
        assert not second_sheet(params, 2, 1.0 - 0.05j, at_z=True)

    def test_real_axis_uses_first_sheet(self, params):
        assert not second_sheet(params, 0, complex(1.0, 0.0), at_z=True)


class TestSigmaLadder:
    """A row table over many channels against one-row tables, element by
    element."""

    NS = np.arange(-40, 41)

    @staticmethod
    def assert_matches_scalar(params, ns, z, second):
        s, sp = ChannelRows(params, ns, second).sigma(z)
        for n, is_second, val, der in zip(ns.tolist(), second.tolist(), s, sp):
            ref, ref_p = channel_sigma(params, n, z, is_second)
            assert abs(val - ref) <= 1e-14 * abs(ref)
            assert abs(der - ref_p) <= 1e-14 * abs(ref_p)
            # real arguments keep the upper-boundary sign of Im Sigma
            assert math.copysign(1.0, val.imag) == math.copysign(1.0, ref.imag)

    @pytest.mark.parametrize("z", [1.0 - 0.05j, 7.3 - 0.4j, -2.5 + 0.3j,
                                   complex(1.0, 0.0), complex(1.0, -0.0),
                                   complex(-3.7, -0.0)])
    def test_selected_sheets_match_scalar(self, params, z):
        second = second_sheet(params, self.NS, z, at_z=True)
        self.assert_matches_scalar(params, self.NS, z, second)

    @pytest.mark.parametrize("z", [1.0 - 0.05j, complex(1.0, -0.0),
                                   0.4 + 0.2j])
    def test_frozen_sheets_match_scalar(self, params, z):
        # frozen from Re z alone: second-sheet channels at and above the
        # real axis as well, on both wings of the ladder
        second = second_sheet(params, self.NS, z)
        assert second[self.NS < 0].any() and second[self.NS == 0].all()
        self.assert_matches_scalar(params, self.NS, z, second)

    def test_second_sheet_rule_matches_select_sheet(self, params):
        # the array mask against the rule applied one channel at a time
        for z in (1.0 - 0.05j, complex(1.0, 0.0), 5.5 + 0.1j, 5.5 - 0.1j):
            mask = second_sheet(params, self.NS, z, at_z=True)
            assert mask.tolist() == [
                bool(second_sheet(params, n, z, at_z=True))
                for n in self.NS.tolist()]

    def test_branch_point_raises(self, params):
        for z in (complex(2 * params.omega, 0.0),
                  complex(params.k_c - 3 * params.omega, -0.0)):
            with pytest.raises(ValueError, match="branch point"):
                ChannelRows(params, self.NS, np.zeros(self.NS.shape,
                                                      dtype=bool)).sigma(z)

    @pytest.mark.parametrize("order, channel", [(1, -2), (-1, 0)],
                             ids=["ascending", "descending"])
    def test_branch_point_names_the_first_row_channel(self, order,
                                                      channel):
        # at a real z = eps_d = 0, zeta = -n*pi hits k_c at n = -2 and 0
        # at n = 0: the message names the first of them in row order
        p = ModelParams(0.0, 1.0, math.pi, 0.1)
        rows = ChannelRows(p, np.arange(-2, 3)[::order])
        with pytest.raises(ValueError, match=rf"^self-energy argument \S+ "
                           rf"sits on the channel-{channel} branch point$"):
            rows.sigma(complex(p.epsilon_d, 0.0))

    def test_second_sheet_outside_region_raises(self, params):
        second = self.NS == 3  # Re(zeta) = 1.0 - 3.6 < 0
        with pytest.raises(ConvergenceError, match="second sheet undefined"):
            ChannelRows(params, self.NS, second).sigma(1.0 - 0.05j)


class TestQuadratureReference:
    def test_near_real_plemelj_path(self, params):
        # below the principal-value floor the reference switches branches
        val = quadrature_reference(params, 0, complex(1.0, 1e-8))
        closed = channel_sigma(params, 0, complex(1.0, 0.0))[0]
        assert abs(val - closed) <= 1e-7 * abs(closed)

    def test_outside_continuum_real(self, params):
        val = quadrature_reference(params, 0, complex(-2.0, 0.0))
        closed = channel_sigma(params, 0, complex(-2.0, 0.0))[0]
        assert val.imag == 0.0
        assert abs(val - closed) <= 1e-9 * abs(closed)
