from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from floquet_hhg import ConvergenceError, compare, \
    discretize, evolve, hhg_spectrum, make_model, \
    resonance_spatial_field, solve_resonance, spatial_field, \
    survival_amplitude_complete, survival_amplitude_floquet, \
    survival_probability
from floquet_hhg import observables, solver

from solver_views import shift_mode, wide_solve


def diagonal_sum(field) -> np.ndarray:
    """Sum of a spatial field's diagonal mode terms, in mode order."""
    out = np.zeros(field.grid.shape)
    for term in field.diagonal:
        out = out + term
    return out


def assert_intensities_follow_amplitudes(result):
    """Every intensity of a result is derived from its amplitudes: a copy
    with doubled amplitudes reports four times each, and its interference
    is its total less its diagonal terms in ascending channel order."""
    doubled = dataclasses.replace(result, amps=2 * result.amps)
    np.testing.assert_allclose(doubled.total, 4 * result.total,
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(doubled.diagonal, 4 * result.diagonal,
                               rtol=1e-15, atol=0.0)
    expect = doubled.total
    for term in doubled.diagonal[::-1]:
        expect = expect - term
    assert np.array_equal(doubled.interference, expect)


def term_by_term_survival(state, t):
    """Reference pole survival amplitude: the channel sum
    sum_n R_n exp(i n omega t) added term by term."""
    times = np.atleast_1d(np.asarray(t, dtype=float))
    phases = sum(r * np.exp(1j * n * state.params.omega * times)
                 for n, r in zip(state.ns.tolist(), state.R.tolist()))
    return state.emission_constant * phases * np.exp(-1j * state.z_d * times)


@pytest.fixture(scope="module")
def weak_state():
    return solve_resonance(make_model(1.0, 2.4, 1.2, 0.05))


class TestSpectrum:
    def test_even_in_k(self, ref_state):
        half = np.linspace(0.1, 6.0, 240)
        k = np.concatenate([-half[::-1], half])  # exactly mirrored grid
        spec = hhg_spectrum(ref_state, k)
        assert np.array_equal(spec.total, spec.total[::-1])

    def test_nonnegative_and_lorentzian_form(self, ref_state, weak_state):
        k = np.linspace(-6.0, 6.0, 481)
        spec = hhg_spectrum(ref_state, k)
        assert np.all(spec.total >= 0.0)
        assert np.all(spec.diagonal.sum(axis=0) >= 0.0)
        # the incoherent line sum drops cross terms between overlapping
        # tails; at weak coupling the lines separate and the forms agree
        k = np.linspace(0.05, 6.2, 2401)
        spec = hhg_spectrum(weak_state, k)
        for m in range(4):
            j = int(np.argmin(np.abs(
                k - (weak_state.z_d.real + m * weak_state.params.omega))))
            assert spec.diagonal.sum(axis=0)[j] == pytest.approx(
                spec.total[j], rel=0.25)

    def test_no_drive_single_lorentzian(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        state = solve_resonance(p)
        k = np.linspace(0.05, 6.2, 4096)
        spec = hhg_spectrum(state, k)
        assert spec.modes.tolist() == [0]
        # density-normalized line peaks at the pole with half-width |Im z|
        norm = spec.total / (2 * k)
        i = int(np.argmax(norm))
        assert abs(k[i] - state.z_d.real) < 0.01
        half = norm[i] / 2
        above = k[norm >= half]
        fwhm = above.max() - above.min()
        assert fwhm == pytest.approx(2 * abs(state.z_d.imag), rel=0.15)

    def test_zero_coupling_spectrum_vanishes(self):
        # the default k grid meets channel poles |k| = z_d - n omega at 8
        # points; with no coupling no channel emits, on its pole neither
        state = solve_resonance(make_model(1.0, 2.4, 1.2, 0.0))
        k = np.linspace(-6.2, 6.2, 1241)
        zeta = state.z_d - state.ns * state.params.omega
        assert np.count_nonzero(zeta[:, None] == np.abs(k)) == 8
        spec = hhg_spectrum(state, k)
        assert np.all(spec.total == 0.0)
        assert spec.modes.size == 0 and spec.diagonal.shape == (0, k.size)

    def test_grid_must_stay_inside_cutoff(self, ref_state):
        with pytest.raises(ValueError, match="k_c"):
            hhg_spectrum(ref_state, np.linspace(-7.0, 7.0, 64))

    def test_nan_momentum_rejected(self, ref_state):
        # NaN compares false both ways: the guard asks for |k| < k_c
        with pytest.raises(ValueError, match="k_c"):
            hhg_spectrum(ref_state, np.array([0.5, np.nan, 1.5]))

    @pytest.mark.parametrize("m", [25, -25])
    def test_shifted_ladder_is_floquet_covariant(self, ref_state, m):
        # the copy's ladder holds n in [m - 32, m + 32]: the same channel
        # sum with every label moved by m, so the spectrum repeats and each
        # line moves to emission mode m' = m_old - m
        k = np.linspace(-6, 6, 241)
        spec = hhg_spectrum(ref_state, k)
        shifted = hhg_spectrum(shift_mode(ref_state, m), k)
        peak = spec.total.max()
        assert np.max(np.abs(shifted.total - spec.total)) < 1e-13 * peak
        assert np.array_equal(shifted.modes, spec.modes - m)
        assert np.max(np.abs(shifted.diagonal - spec.diagonal)) < 1e-13 * peak

    def test_intensities_follow_the_amplitudes(self, ref_state):
        assert_intensities_follow_amplitudes(
            hhg_spectrum(ref_state, np.linspace(-6, 6, 241)))

    def test_peak_centers_pinned_by_poles_at_weak_coupling(self, weak_state):
        # density-normalized peak centers sit within a tenth of the width
        p = weak_state.params
        k = np.linspace(0.05, 6.2, 24601)
        norm = hhg_spectrum(weak_state, k).total / (2 * k)
        gamma = abs(weak_state.z_d.imag)
        for m in range(4):
            target = weak_state.z_d.real + m * p.omega
            sel = (k >= target - 0.5) & (k <= target + 0.5)
            i = int(np.argmax(np.where(sel, norm, -np.inf)))
            assert abs(k[i] - target) < gamma / 10


class TestSpatialField:
    def test_zero_coupling_field_vanishes(self):
        state = solve_resonance(make_model(1.0, 2.4, 1.2, 0.0))
        field = resonance_spatial_field(state, np.linspace(-25, 25, 501), 20.0)
        assert np.all(field.total == 0.0)

    def test_no_drive_pure_exponential_profile(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        state = solve_resonance(p)
        x = np.linspace(0.5, 18.0, 351)
        field = resonance_spatial_field(state, x, 20.0)
        expect = np.exp(2 * state.z_d.imag * (20.0 - x))
        ratio = field.total / expect
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12
        assert np.max(np.abs(field.interference)) == 0.0

    def test_decomposition_identity(self, ref_state):
        x = np.linspace(-25, 25, 501)
        field = resonance_spatial_field(ref_state, x, 20.0)
        resid = diagonal_sum(field) + field.interference - field.total
        assert np.max(np.abs(resid)) < 1e-12 * field.total.max()

    def test_intensities_follow_the_amplitudes(self, ref_state):
        assert_intensities_follow_amplitudes(resonance_spatial_field(
            ref_state, np.linspace(-25, 25, 501), 20.0))

    def test_diagonal_envelope_rate(self, ref_state):
        x = np.linspace(2.0, 18.0, 321)
        field = resonance_spatial_field(ref_state, x, 20.0)
        target = 2 * abs(ref_state.z_d.imag)
        for vals in field.diagonal:
            slope = np.polyfit(x, np.log(vals), 1)[0]
            assert slope == pytest.approx(target, rel=1e-6)

    def test_interference_beats_at_drive_frequency(self, ref_state):
        x = np.linspace(2.0, 18.0, 512)
        field = resonance_spatial_field(ref_state, x, 20.0)
        beat = compare(ref_state,
                       interference=(x, field.interference)).checks
        # within one frequency bin of omega
        assert [(c.name, c.passed) for c in beat] == [
            ("beat_frequency_dev", True)]

    def test_open_modes_only(self, ref_state):
        x = np.linspace(-10, 10, 101)
        field = resonance_spatial_field(ref_state, x, 20.0)
        assert field.modes.tolist() == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("m", [25, -25])
    def test_shifted_ladder_is_floquet_covariant(self, ref_state, m):
        # the shifted copy keeps the same open channels under labels moved
        # by m: the field repeats and each mode term moves to m_old - m
        x = np.linspace(-10, 10, 101)
        field = resonance_spatial_field(ref_state, x, 5.0)
        shifted = resonance_spatial_field(shift_mode(ref_state, m), x, 5.0)
        peak = field.total.max()
        assert np.max(np.abs(shifted.total - field.total)) < 1e-13 * peak
        assert np.array_equal(shifted.modes, field.modes - m)
        assert np.max(np.abs(shifted.diagonal - field.diagonal)) \
            < 1e-13 * peak

    def test_integrator_arbitrates_outgoing_pairing(self, ref_state):
        # the shipped default pairs each mode's time and space exponents on
        # the same pole (outgoing traveling waves); the mirrored variant
        # must fit the true field strictly worse
        p = ref_state.params
        system = discretize(p, box_length=200.0, n_modes=4096)
        t = 20.0
        traj = evolve(system, t_end=t, dt=1e-3)
        xg = np.linspace(-28.0, 28.0, 1121)
        x, _, f_true = spatial_field(system, traj.final, xg)
        # printed pairing: the time pole of mode l against the space pole
        # of mode -l, over the open channels
        keep = ref_state.second_sheet
        n, R = ref_state.ns[keep], ref_state.R[keep]
        zeta = ref_state.z_d - n * p.omega
        pref = -1j * np.sqrt(2 * math.pi) * p.lambda_ \
            * ref_state.emission_constant
        printed = ((pref * R * np.sqrt(2.0 * zeta))[:, None]
                   * np.exp(-1j * zeta[:, None] * t)
                   * np.exp(1j * (ref_state.z_d + n * p.omega)[:, None]
                            * np.abs(xg))).sum(axis=0)
        # compare's calibrated pulse-maxima check, over |x| <= 0.9 t
        devs = {pairing: compare(
            ref_state, field=(xg, t, res, f_true)).check("field_max_rel_dev")
            for pairing, res in (
                ("outgoing", resonance_spatial_field(ref_state, xg, t)
                 .total),
                ("printed", np.abs(printed) ** 2))}
        assert devs["outgoing"].value < devs["printed"].value
        assert devs["outgoing"].passed
        assert devs["outgoing"].tolerance == 0.10

    def test_time_must_be_positive(self, ref_state):
        with pytest.raises(ValueError, match="t must be positive"):
            resonance_spatial_field(ref_state, np.linspace(-1, 1, 16), 0.0)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_non_finite_position_rejected(self, ref_state, x):
        # a NaN position would come back as a NaN intensity
        with pytest.raises(ValueError, match="xgrid"):
            resonance_spatial_field(ref_state, np.array([-1.0, x, 1.0]), 2.0)

    def test_infinite_time_rejected(self, ref_state):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            resonance_spatial_field(ref_state, np.linspace(-1, 1, 16),
                                    math.inf)


class TestWholeLadder:
    """The observables sum the state's whole ladder, so the solver's
    ladder bar is their one truncation check: a ladder widened past it
    moves neither of them."""

    @pytest.fixture(scope="class")
    def wide_state(self, ref_params):
        return wide_solve(ref_params)

    @pytest.mark.parametrize("observable", [
        lambda state: hhg_spectrum(state, np.linspace(-6, 6, 241)).total,
        lambda state: resonance_spatial_field(
            state, np.linspace(-25, 25, 251), 20.0).total,
    ], ids=["spectrum", "spatial-field"])
    def test_wider_ladder_moves_nothing(self, ref_state, wide_state,
                                        observable):
        narrow, wide = observable(ref_state), observable(wide_state)
        assert np.max(np.abs(wide - narrow)) < 1e-13 * narrow.max()

    def test_narrow_ladder_window_fails_the_solve(self, ref_params,
                                                 monkeypatch):
        # a ladder still above its bar at half of CF_MAX_DEPTH levels is
        # never cut there: the solve fails, so no observable reads it
        monkeypatch.setattr(solver, "LADDER_TOL", 1e-200)
        monkeypatch.setattr(solver, "CF_MAX_DEPTH", 100)
        with pytest.raises(ConvergenceError,
                           match="ladder not below 1e-200 within 50 levels"):
            solve_resonance(ref_params)

    def test_spectrum_reads_every_channel(self, ref_state):
        spec = hhg_spectrum(ref_state, np.linspace(-6, 6, 241))
        assert spec.modes.tolist() == sorted((-ref_state.ns).tolist())
        assert spec.modes.size == ref_state.ns.size == 39


class TestSurvivalAmplitude:
    def test_zero_coupling_exact_driven_phase(self):
        p = make_model(1.0, 2.4, 1.2, 0.0)
        state = solve_resonance(p)
        t = np.linspace(0.0, 20.0, 81)
        got = survival_amplitude_floquet(state, t)
        x = p.a_over_omega
        exact = np.exp(-1j * p.epsilon_d * t) \
            * np.exp(1j * x * (np.cos(p.omega * t) - 1.0))
        assert np.max(np.abs(got - exact)) < 1e-12
        assert np.max(np.abs(np.abs(got) - 1.0)) < 1e-13

    @pytest.mark.parametrize("case", ["reference", "shifted", "uncoupled",
                                      "scalar"])
    def test_horner_sum_matches_term_by_term(self, ref_state, case):
        state, t = ref_state, np.linspace(0.0, 25.0, 501)
        if case == "shifted":  # ns[0] = 2 - window
            state = shift_mode(ref_state, 2)
        elif case == "uncoupled":
            state = solve_resonance(make_model(1.0, 2.4, 1.2, 0.0))
        elif case == "scalar":
            t = 7.3
        got = np.atleast_1d(survival_amplitude_floquet(state, t))
        ref = term_by_term_survival(state, t)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_initial_overlap_bounds(self, ref_state):
        lam = ref_state.params.lambda_
        c0 = survival_amplitude_floquet(ref_state, 0.0)
        assert 1.0 - 10 * lam ** 2 <= abs(c0) <= 1.0

    @pytest.mark.parametrize("t", [np.nan, [0.0, np.inf]],
                             ids=["nan", "inf-in-array"])
    def test_non_finite_time_rejected(self, ref_state, t):
        # not a NaN amplitude
        with pytest.raises(ValueError, match="t must be finite"):
            survival_amplitude_floquet(ref_state, t)

    def test_scalar_and_array_forms(self, ref_state):
        single = survival_amplitude_floquet(ref_state, 2.5)
        array = survival_amplitude_floquet(ref_state, np.array([2.5]))
        assert isinstance(single, complex)
        assert single == array[0]

    def test_matches_integrator_beyond_transient(self, ref_state):
        # period-averaged decay with drive-phase ripples; the continuum
        # background contributes at the percent scale here
        p = ref_state.params
        system = discretize(p, box_length=100.0, n_modes=2048)
        traj = evolve(system, t_end=10.0, dt=1e-3)
        t, P_o = (series[::50] for series in survival_probability(traj))
        P_f = np.abs(survival_amplitude_floquet(ref_state, t)) ** 2
        mask = (t >= 2.0)
        assert np.max(np.abs(P_f[mask] - P_o[mask]) / P_o[mask]) < 0.05


class TestCompleteSurvivalAmplitude:
    def test_full_state_at_time_zero(self, ref_state):
        # the pole subspace alone carries |c(0)|^2 ~ 0.914 at this coupling
        c0 = survival_amplitude_complete(ref_state, 0.0)
        assert isinstance(c0, complex)
        assert abs(abs(c0) - 1.0) < 1e-6

    def test_zero_coupling_exact_driven_phase(self):
        p = make_model(1.0, 2.4, 1.2, 0.0)
        state = solve_resonance(p)
        t = np.linspace(0.0, 20.0, 81)
        got = survival_amplitude_complete(state, t)
        exact = np.exp(-1j * p.epsilon_d * t) \
            * np.exp(1j * p.a_over_omega * (np.cos(p.omega * t) - 1.0))
        assert np.max(np.abs(got - exact)) < 1e-5

    def test_strong_drive_reaches_t_5(self):
        # A/omega = 8: the resolvent's ladder at some energies of the
        # contour is wider than a 65-channel window
        state = solve_resonance(make_model(1.0, 9.6, 1.2, 0.05))
        c = survival_amplitude_complete(state, np.linspace(0.0, 5.0, 11))
        assert abs(abs(c[0]) - 1.0) < 1e-5
        assert np.all(np.abs(c) <= 1.0 + 1e-5)

    def test_short_energy_range_rejected(self, ref_state, monkeypatch):
        monkeypatch.setattr(observables, "RESOLVENT_RANGE", 10.0)
        with pytest.raises(ConvergenceError, match="not converged"):
            survival_amplitude_complete(ref_state, [0.0, 10.0, 20.0])

    def test_negative_time_rejected(self, ref_state):
        with pytest.raises(ValueError, match="nonnegative"):
            survival_amplitude_complete(ref_state, -1.0)

    def test_no_times_give_no_amplitudes(self, ref_state):
        # as the pole part: no times leave no drift to bound
        got = survival_amplitude_complete(ref_state, np.array([]))
        assert got.shape == (0,) and got.dtype == complex
        assert survival_amplitude_floquet(ref_state, np.array([])).shape \
            == (0,)

    @pytest.mark.parametrize("t", [[np.nan, 1.0], np.inf],
                             ids=["nan-in-array", "inf"])
    def test_non_finite_time_rejected(self, ref_state, t):
        # not a resolvent integral that fails to converge on NaN
        with pytest.raises(ValueError, match="t must be finite"):
            survival_amplitude_complete(ref_state, t)
