from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from floquet_hhg import TWO_PI, ConvergenceError, compare, \
    discretize, evolve, hhg_spectrum, make_model, \
    resonance_spatial_field, solve_resonance, spatial_field, \
    survival_amplitude_complete, survival_amplitude_floquet, \
    survival_probability
from floquet_hhg import observables, solver
from floquet_hhg.config import RunConfig

from continuum import continuum_amplitude
from solver_views import shift_mode, wide_solve


def diagonal_sum(field) -> np.ndarray:
    """Sum of a spatial field's diagonal mode terms, in mode order."""
    out = np.zeros(field.amps.shape[1:])
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


def pole_floquet_state(state):
    """The quasi-energy z on the principal branch and the harmonic ladder
    C[n], n from -N//2, of the Floquet state whose multiplier is nearest
    exp(-i z_d T): the expansion shares no closed form, sheet rule or
    continued fraction with the solver."""
    period = 2.0 * math.pi / state.params.omega
    mu, ladders = observables._floquet_states(state.params)
    j = np.argmin(np.abs(mu - np.exp(-1j * state.z_d * period)))
    return 1j * np.log(mu[j]) / period, ladders[:, j]


def complete_emission_weight(params, mu, ladders) -> float:
    """Photon weight the Floquet states (multipliers mu, ladder columns C)
    emit by t -> inf: twice (for the mirror k < 0) the trapezoid sum on
    8001 points over (0, k_c) of 2 lambda^2 k |A(k)|^2, with
    A(k) = sum_{n,j} C[n, j] / (z_j - n omega - k), z_j = i log(mu_j)/T.
    Ladder entries below 1e-13 of the largest are dropped (a 4.4e-14
    effect at the reference point)."""
    period = 2.0 * math.pi / params.omega
    n = np.arange(len(ladders)) - len(ladders) // 2
    w = 1j * np.log(mu) / period - n[:, None] * params.omega
    keep = np.abs(ladders) >= 1e-13 * np.max(np.abs(ladders))
    C, w = ladders[keep], w[keep]
    k = np.linspace(0.0, params.k_c, 8001)
    A = np.concatenate([C @ (1.0 / (w[:, None] - part))
                        for part in np.array_split(k, 16)])
    return 2.0 * np.trapezoid(2.0 * params.lambda_ ** 2 * k * np.abs(A) ** 2,
                              k)


def pole_state_gap(state) -> float:
    """Largest gap between the pole's Floquet ladder, shifted onto z_d's
    branch, and the solver's pole term K_em R_n."""
    z, ladder = pole_floquet_state(state)
    omega = state.params.omega
    shift = round((state.z_d - z).real / omega)  # z_d = z + shift*omega
    expected = np.zeros(len(ladder), dtype=complex)
    expected[state.ns - shift + len(ladder) // 2] = \
        state.emission_constant * state.R
    return float(np.max(np.abs(ladder - expected)))


def pole_spectrum_gap(state, k) -> float:
    """Largest gap, relative to its peak, between ``hhg_spectrum``'s total
    on ``k`` and the pole's Floquet state radiated into each mode,
    2 lambda^2 |k| |sum_n C[n] / (z - n omega - |k|)|^2: its absolute
    scale, which no ratio of the solver's own outputs fixes."""
    z, ladder = pole_floquet_state(state)
    p = state.params
    n = np.arange(len(ladder)) - len(ladder) // 2
    eps = np.abs(k)
    expected = 2.0 * p.lambda_ ** 2 * eps * np.abs(np.sum(
        ladder[:, None] / (z - n[:, None] * p.omega - eps), axis=0)) ** 2
    got = hhg_spectrum(state, k).total
    return float(np.max(np.abs(got - expected)) / np.max(expected))


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
        # every ladder mode stays, as a row of exact zeros
        assert spec.modes.tolist() == sorted((-state.ns).tolist())
        assert not spec.amps.any()

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
        f = resonance_spatial_field(ref_state, x, 20.0).total
        beat = compare(ref_state, field=(x, 20.0, f, f)).check(
            "beat_frequency_dev")
        # within one frequency bin of omega
        assert beat.passed

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
        f_true = np.abs(spatial_field(system, traj.final, xg)) ** 2
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


@pytest.mark.parametrize("t", [2.5, [0.0, 2.5, 5.0],
                               [[0.0, 2.5, 5.0], [7.5, 10.0, 12.5]]],
                         ids=["scalar", "1-d", "2-d"])
@pytest.mark.parametrize("complete", [False, True],
                         ids=["floquet", "complete"])
def test_survival_readouts_keep_the_shape_of_t(ref_state, t, complete):
    # numpy's shape rule: t's shape out (a numpy scalar or a 0-d array for
    # a scalar t), each value the flat call's
    def readout(times):
        if complete:
            return survival_amplitude_complete(ref_state.params, times)
        return survival_amplitude_floquet(ref_state, times)
    got = readout(t)
    assert got.shape == np.shape(t) and got.dtype == complex
    assert np.array_equal(got.ravel(), readout(np.ravel(t)))


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

    # the rule of survival_amplitude_complete: before t = 0 the pole term
    # grows (|c| = 4.35 at t = -10) and overflows by t = -1e4
    @pytest.mark.parametrize("t", [-10.0, [0.0, -1e4]],
                             ids=["scalar", "in-array"])
    def test_negative_time_rejected(self, ref_state, t):
        with pytest.raises(ValueError,
                           match="^t must be finite and nonnegative$"):
            survival_amplitude_floquet(ref_state, t)

    def test_scalar_and_array_forms(self, ref_state):
        single = survival_amplitude_floquet(ref_state, 2.5)
        array = survival_amplitude_floquet(ref_state, np.array([2.5]))
        assert np.shape(single) == ()
        assert single == array[0]

    def test_matches_integrator_beyond_transient(self, ref_state):
        # period-averaged decay with drive-phase ripples; the continuum
        # background contributes at the percent scale here
        p = ref_state.params
        system = discretize(p, box_length=100.0, n_modes=2048)
        traj = evolve(system, t_end=10.0, dt=1e-3)
        t, P_o = traj.times[::50], survival_probability(traj)[::50]
        P_f = np.abs(survival_amplitude_floquet(ref_state, t)) ** 2
        mask = (t >= 2.0)
        assert np.max(np.abs(P_f[mask] - P_o[mask]) / P_o[mask]) < 0.05


class TestCompleteSurvivalAmplitude:
    def test_full_state_at_time_zero(self, ref_state):
        # the pole subspace alone carries |c(0)|^2 ~ 0.914 at this coupling
        c0 = survival_amplitude_complete(ref_state.params, 0.0)
        assert np.shape(c0) == ()
        assert abs(abs(c0) - 1.0) < 1e-6

    def test_zero_coupling_exact_driven_phase(self):
        p = make_model(1.0, 2.4, 1.2, 0.0)
        t = np.linspace(0.0, 20.0, 81)
        got = survival_amplitude_complete(p, t)
        exact = np.exp(-1j * p.epsilon_d * t) \
            * np.exp(1j * p.a_over_omega * (np.cos(p.omega * t) - 1.0))
        assert np.max(np.abs(got - exact)) < 1e-5

    def test_strong_drive_reaches_t_5(self):
        # A/omega = 8: the drive sweeps the level over [-8.6, 10.6], so
        # the emitter's rotor exp(i phi) turns fastest here
        c = survival_amplitude_complete(make_model(1.0, 9.6, 1.2, 0.05),
                                        np.linspace(0.0, 5.0, 11))
        assert abs(abs(c[0]) - 1.0) < 1e-5
        assert np.all(np.abs(c) <= 1.0 + 1e-5)

    def test_negative_time_rejected(self, ref_state):
        with pytest.raises(ValueError, match="nonnegative"):
            survival_amplitude_complete(ref_state.params, -1.0)

    def test_no_times_give_no_amplitudes(self, ref_state, monkeypatch):
        # as the pole part, and no propagator is stepped for them
        def unused(*args):
            raise AssertionError("propagator stepped for no times")
        monkeypatch.setattr(observables, "_floquet_states", unused)
        got = survival_amplitude_complete(ref_state.params, np.array([]))
        assert got.shape == (0,) and got.dtype == complex
        assert survival_amplitude_floquet(ref_state, np.array([])).shape \
            == (0,)

    @pytest.mark.parametrize("t", [[np.nan, 1.0], np.inf],
                             ids=["nan-in-array", "inf"])
    def test_non_finite_time_rejected(self, ref_state, t):
        # not a propagator stepped to a NaN offset
        with pytest.raises(ValueError, match="t must be finite"):
            survival_amplitude_complete(ref_state.params, t)

    @pytest.mark.parametrize("lambda_, A, k_c, h",
                             [(0.1, 2.4, TWO_PI, 1e-2),
                              (0.15, 6.0, TWO_PI, 1e-2),
                              (0.1, 2.4, 20.0, 2.5e-3),
                              (0.19, 2.4, TWO_PI, 1e-2)],
                             ids=["reference", "lambda-0.15-A-5omega",
                                  "k_c-20", "lambda-0.19-no-pole"])
    def test_matches_the_continuum_to_t_20(self, lambda_, A, k_c, h):
        # the times 0, 0.1, ..., 20 on every continuum grid; at
        # lambda = 0.19 the solver finds no pole (its zeta leaves the
        # channel-0 continuation region), and the expansion needs none
        p = make_model(1.0, A, 1.2, lambda_, k_c=k_c)
        t, reference = (a[::round(0.1 / h)]
                        for a in continuum_amplitude(p, 20.0, h))
        got = survival_amplitude_complete(p, t)
        assert np.max(np.abs(got - reference)) < 1e-7

    def test_matches_the_continuum_to_t_80(self, ref_state):
        # |c| falls to about 4e-4 by t = 80, where the background
        # outweighs the pole part 30-fold: a relative bound
        t, reference = (a[100::10] for a in continuum_amplitude(
            ref_state.params, 80.0))
        got = survival_amplitude_complete(ref_state.params, t)
        assert np.max(np.abs(got / reference - 1.0)) < 1e-5

    @pytest.mark.parametrize("lambda_, A, k_c",
                             [(0.1, 2.4, TWO_PI), (0.05, 2.4, TWO_PI),
                              (0.05, 9.6, TWO_PI), (0.15, 6.0, TWO_PI),
                              (0.1, 2.4, 20.0)],
                             ids=["0.1-2.4", "0.05-2.4", "0.05-9.6", "0.15-6.0",
                                  "k_c-20"])
    def test_a_multiplier_is_the_solver_pole(self, lambda_, A, k_c):
        # a witness that shares no closed form, sheet rule, continued
        # fraction or Newton step with the solver
        p = make_model(1.0, A, 1.2, lambda_, k_c=k_c)
        z_d = solve_resonance(p).z_d
        period = 2.0 * math.pi / p.omega
        mu, _ = observables._floquet_states(p)
        nearest = mu[np.argmin(np.abs(mu - np.exp(-1j * z_d * period)))]
        z = 1j * np.log(nearest) / period
        z += p.omega * round((z_d - z).real / p.omega)  # the branch n*omega
        assert abs(z - z_d) < 1e-7

    @pytest.mark.parametrize("lambda_, A", [(0.1, 2.4), (0.05, 9.6),
                                            (0.15, 6.0), (0.1, 0.6)],
                             ids=["0.1-2", "0.05-8", "0.15-5", "0.1-0.5"])
    def test_a_floquet_state_is_the_whole_pole_state(self, lambda_, A):
        # z_d, R and N_d together, not only the multiplier
        state = solve_resonance(make_model(1.0, A, 1.2, lambda_))
        assert pole_state_gap(state) < 1e-8

    @pytest.mark.parametrize("fault", ["N_d", "R-wing"])
    def test_a_faulty_pole_state_misses_the_floquet_state(self, ref_state,
                                                          fault):
        if fault == "N_d":
            faulty = dataclasses.replace(ref_state, N_d=1.01 * ref_state.N_d)
        else:
            R = ref_state.R.copy()
            R[R.size // 2 + 1] *= 1.01  # the entry of channel n = 1
            faulty = dataclasses.replace(ref_state, R=R)
        assert pole_state_gap(faulty) > 1e-8

    @pytest.mark.parametrize("lambda_, A", [(0.1, 2.4), (0.15, 6.0),
                                            (0.15, 2.4)],
                             ids=["0.1-2", "0.15-5", "0.15-2"])
    def test_the_floquet_states_emit_unit_weight(self, lambda_, A):
        # every Floquet state, background included, with no box: the pole
        # state alone emits 0.99521, 1.74666 and 1.00627 here
        p = make_model(1.0, A, 1.2, lambda_)
        weight = complete_emission_weight(p, *observables._floquet_states(p))
        assert abs(weight - 1.0) < 1e-3

    # (0.15, 2) is left out: there the 60 contour nodes miss by 1.5e-5
    @pytest.mark.parametrize("lambda_, A", [(0.1, 2.4), (0.15, 6.0),
                                            (0.05, 2.4)],
                             ids=["0.1-2", "0.15-5", "0.05-2"])
    def test_the_floquet_state_fixes_the_spectrum_scale(self, lambda_, A):
        state = solve_resonance(make_model(1.0, A, 1.2, lambda_))
        assert pole_spectrum_gap(state, RunConfig.k_grid.points()) < 1e-7


class TestContinuumReference:
    def test_richardson_pairs_agree(self, ref_params):
        # the reference is converged far below the 1e-7 it pins
        pairs = [continuum_amplitude(ref_params, 20.0, h)[1]
                 for h in (1e-2, 5e-3)]
        assert np.max(np.abs(pairs[1][::2] - pairs[0])) < 1e-8
