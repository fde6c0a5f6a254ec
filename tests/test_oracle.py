from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np
import pytest

from floquet_hhg import ConvergenceError, compare, discretize, evolve, \
    from_dict, make_model, observables, oracle, photon_spectrum, \
    resonance_spatial_field, solve_resonance, spatial_field, \
    survival_probability
from floquet_hhg.cli import run_command
from floquet_hhg.model import TWO_PI
from floquet_hhg.oracle import BLOCK, _CHUNK, DiscretizedSystem, \
    SectorState, _lawson


def mirror(system):
    """The full mirrored grid (k, V) of a box's k > 0 modes: -k_J..-k_1,
    then k_1..k_J.  The references integrate every mode of it, so a
    comparison reads their last ``system.n_retained`` photons."""
    k, V = system.k, system.V
    return np.concatenate([-k[::-1], k]), np.concatenate([V[::-1], V])


def classical_rk4(system, t_end, dt, sample_stride):
    """Reference integrator: classical RK4 on the Schroedinger-picture
    sector ODE of the mirrored box, the drive evaluated inside the
    right-hand side.  Returns the sample times, the sampled psi_d and the
    final (psi_d, psi_k)."""
    p = system.params
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    k, V = mirror(system)
    eps_k = np.abs(k)

    def rhs(t, yd, yk):
        drive = p.epsilon_d + p.A * math.sin(p.omega * t)
        return (-1j * (drive * yd + p.lambda_ * np.sum(V * yk)),
                -1j * (eps_k * yk + (p.lambda_ * yd) * V))

    pd, pk = 1.0 + 0.0j, np.zeros(eps_k.shape, dtype=complex)
    times, series = [0.0], [pd]
    for step in range(1, n_steps + 1):
        t = (step - 1) * h
        d1, k1 = rhs(t, pd, pk)
        d2, k2 = rhs(t + 0.5 * h, pd + 0.5 * h * d1, pk + 0.5 * h * k1)
        d3, k3 = rhs(t + 0.5 * h, pd + 0.5 * h * d2, pk + 0.5 * h * k2)
        d4, k4 = rhs(t + h, pd + h * d3, pk + h * k3)
        pd = pd + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        pk = pk + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % sample_stride == 0 or step == n_steps:
            times.append(step * h)
            series.append(pd)
    return np.array(times), np.array(series), pd, pk


def lawson_reference(system, t_end, dt, sample_stride, initial=None):
    """Reference Lawson RK4: the step loop of the first integrating-factor
    integrator, with per-step rotor and slope calls and full-length
    photon updates over the mirrored box, from the ``initial``
    (psi_d, psi_k), else psi_d = 1 and no photons.  Returns the sample
    times, the sampled psi_d and the final (psi_d, psi_k)."""
    p = system.params
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    k, V = mirror(system)
    pd, pk = initial or (1.0 + 0.0j, np.zeros(k.shape, dtype=complex))

    def rotor(t):
        # exp(i phi(t)): takes psi_d to the interaction picture
        return cmath.exp(1j * (p.epsilon_d * t - p.a_over_omega
                               * (math.cos(p.omega * t) - 1.0)))

    def slopes(c, s, d):
        # emitter slope from the photon sum s; photon slope per conj(row)
        return -1j * p.lambda_ * c * s, -1j * p.lambda_ * c.conjugate() * d

    free = np.exp(-1j * h * np.abs(k))
    W = np.stack([V, V * np.exp(-0.5j * h * np.abs(k)), V * free])
    S0, Sh = np.sum(V * W[:2], axis=1).tolist()
    ud, c0 = pd, 1.0 + 0.0j
    times, series = [0.0], [pd]
    for step in range(1, n_steps + 1):
        t = step * h
        ch, cf = rotor(t - 0.5 * h), rotor(t)
        q0, qh, qf = np.sum(W * pk, axis=1).tolist()
        k1, a1 = slopes(c0, q0, ud)
        k2, a2 = slopes(ch, qh + 0.5 * h * a1 * Sh, ud + 0.5 * h * k1)
        k3, a3 = slopes(ch, qh + 0.5 * h * a2 * S0, ud + 0.5 * h * k2)
        k4, a4 = slopes(cf, qf + h * a3 * Sh, ud + h * k3)
        ud = ud + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        pk = free * pk + (h / 6.0) * (
            a4 * W[0] + 2.0 * (a2 + a3) * W[1] + a1 * W[2])
        pd, c0 = cf.conjugate() * ud, cf
        if step % sample_stride == 0 or step == n_steps:
            times.append(t)
            series.append(pd)
    return np.array(times), np.array(series), pd, pk


def fresh_phase_lawson(system, t_end, dt, initial=None):
    """Reference Lawson RK4 with the photons held in the interaction
    picture, psi_k(t) = exp(-i|k|t) a_k: the slopes of lawson_reference,
    over the mirrored box from the same start, with every phase
    exp(-i|k|s) computed from s itself, so no product of step phases
    accumulates rounding.  Returns the final (psi_d, psi_k)."""
    p = system.params
    n_steps = max(1, int(round(t_end / dt)))
    h = t_end / n_steps
    k, V = mirror(system)
    eps_k = np.abs(k)

    def rotor(t):
        return cmath.exp(1j * (p.epsilon_d * t - p.a_over_omega
                               * (math.cos(p.omega * t) - 1.0)))

    def row(s):
        # coupling profile V exp(-i|k|s)
        return V * np.exp(-1j * eps_k * s)

    def slopes(c, s, d):
        return -1j * p.lambda_ * c * s, -1j * p.lambda_ * c.conjugate() * d

    S0, Sh = np.sum(V * V), np.sum(V * row(0.5 * h))
    ud, a = initial or (1.0 + 0.0j, np.zeros(k.shape, dtype=complex))
    c0 = 1.0 + 0.0j
    for step in range(1, n_steps + 1):
        t = step * h
        W0, Wh, Wf = row((step - 1) * h), row(t - 0.5 * h), row(t)
        ch, cf = rotor(t - 0.5 * h), rotor(t)
        q0, qh, qf = np.sum(W0 * a), np.sum(Wh * a), np.sum(Wf * a)
        k1, a1 = slopes(c0, q0, ud)
        k2, a2 = slopes(ch, qh + 0.5 * h * a1 * Sh, ud + 0.5 * h * k1)
        k3, a3 = slopes(ch, qh + 0.5 * h * a2 * S0, ud + 0.5 * h * k2)
        k4, a4 = slopes(cf, qf + h * a3 * Sh, ud + h * k3)
        ud = ud + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        a = a + (h / 6.0) * (a4 * Wf.conj() + 2.0 * (a2 + a3) * Wh.conj()
                             + a1 * W0.conj())
        c0 = cf
    return c0.conjugate() * ud, np.exp(-1j * eps_k * t_end) * a


def full_grid(params, box_length, n_modes):
    """Reference mode grid: every j in [-N/2, N/2] without 0, then the
    |k| <= k_c mask.  Returns (k, V)."""
    j = np.arange(-n_modes // 2, n_modes // 2 + 1)
    k = TWO_PI * j[j != 0] / box_length
    k = k[np.abs(k) <= params.k_c]
    return k, np.sqrt(4.0 * math.pi * np.abs(k) / box_length)


def dense_field(system, state, x):
    """Reference projection: the explicit sum over the mirrored box's
    modes of exp(i k_j x) psi_j / sqrt(L), psi_{-k} = psi_k."""
    psi = np.concatenate([state.psi_k[::-1], state.psi_k])
    phases = np.exp(1j * np.outer(x, mirror(system)[0]))
    return np.sum(phases * psi[None, :], axis=1) / math.sqrt(
        system.box_length)


@pytest.fixture(scope="module")
def small_system(ref_params):
    # reduced box for fast unit runs; acceptance uses production sizes
    return discretize(ref_params, box_length=100.0, n_modes=2048)


class TestDiscretize:
    def test_default_grid(self, ref_params):
        system = discretize(ref_params)
        assert system.delta_k == pytest.approx(2 * math.pi / 400.0)
        assert system.n_retained == 400
        assert np.all((system.k > 0.0) & (system.k <= ref_params.k_c))
        expect = np.sqrt(4 * math.pi * system.k / 400.0)
        assert np.array_equal(system.V, expect)

    def test_too_few_modes_rejected(self, ref_params):
        with pytest.raises(ValueError, match="too small"):
            discretize(ref_params, box_length=400.0, n_modes=128)

    def test_odd_mode_count_rejected(self, ref_params):
        with pytest.raises(ValueError, match="even"):
            discretize(ref_params, box_length=100.0, n_modes=2047)

    def test_box_keeping_no_mode_rejected(self, ref_params):
        # 2 pi / 0.9 > k_c = 2 pi: the first box mode is already cut off
        with pytest.raises(ValueError, match=r"box_length=0\.9.*k_c="):
            discretize(ref_params, box_length=0.9, n_modes=64)

    def test_replaced_box_rebuilds_its_grid(self, ref_params):
        # a copy cannot keep the grid of the box it was copied from
        fine = discretize(ref_params, box_length=800.0, n_modes=16384)
        copy = dataclasses.replace(fine, box_length=400.0)
        default = discretize(ref_params, box_length=400.0, n_modes=8192)
        assert copy.k.tobytes() == default.k.tobytes()
        assert copy.V.tobytes() == default.V.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            copy.k[0] = 0.0

    @pytest.mark.parametrize("box,message", [
        (0.0, "box_length must be positive"),
        (math.nan, "box_length must be positive"),
        (math.inf, "box_length must be positive and finite"),
        (0.9, r"box_length=0\.9 keeps no mode with \|k\| <= k_c=")],
        ids=["zero", "nan", "inf", "keeps-no-mode"])
    def test_system_rejects_a_bad_box(self, ref_params, box, message):
        with pytest.raises(ValueError, match=message):
            DiscretizedSystem(ref_params, box)

    @pytest.mark.parametrize("box", [
        (1.5, 64), (100.0, 2048), (200.0, 4096), (400.0, 8192),
        (800.0, 16384)])
    def test_used_boxes_are_mirror_symmetric(self, ref_params, box):
        # the box holds k_j = 2 pi j / L, j = 1..J, ascending, each mode
        # standing for its mirrored pair; its edge mode is the last at or
        # below k_c
        system = discretize(ref_params, *box)
        L, J = box[0], system.n_retained
        assert np.array_equal(system.k, TWO_PI * np.arange(1, J + 1) / L)
        assert system.k[0] > 0.0 and np.all(np.diff(system.k) > 0.0)
        assert system.k[-1] <= ref_params.k_c < TWO_PI * (J + 1) / L
        assert np.array_equal(system.V, np.sqrt(4 * math.pi * system.k / L))

    @pytest.mark.parametrize("k_c,box", [
        (TWO_PI, (1.5, 64)), (TWO_PI, (100.0, 2048)), (TWO_PI, (400.0, 8192)),
        (TWO_PI, (800.0, 16384)), (TWO_PI, (400.0, 800)),
        (1.0, (37.3, 128)), (3.3, (250.0, 1024))],
        ids=["two-modes", "small", "default", "fine", "cutoff-on-grid-edge",
             "narrow-cutoff", "odd-cutoff"])
    def test_retained_modes_match_full_grid(self, k_c, box):
        # only the j that can pass the cutoff are built: the mirrored grid
        # and couplings are byte for byte those of the full-grid
        # construction
        params = make_model(1.0, 2.4, 1.2, 0.1, k_c)
        k, V = mirror(discretize(params, *box))
        full_k, full_V = full_grid(params, *box)
        assert k.tobytes() == full_k.tobytes()
        assert V.tobytes() == full_V.tobytes()

    @pytest.mark.parametrize("k_c,box_length", [
        (TWO_PI, 1.5), (TWO_PI, 100.0), (TWO_PI, 400.0), (1.0, 37.3),
        (3.3, 250.0)])
    def test_mode_count_leaves_grid_unchanged(self, k_c, box_length):
        # past the smallest n_modes that covers the cutoff, n_modes adds
        # no retained mode: the grid and couplings stay byte for byte
        params = make_model(1.0, 2.4, 1.2, 0.1, k_c)
        smallest = max(64, 2 * math.ceil(k_c * box_length / TWO_PI))
        if smallest > 64:
            with pytest.raises(ValueError, match="too small"):
                discretize(params, box_length, smallest - 2)
        base = discretize(params, box_length, smallest)
        wide = discretize(params, box_length, 8 * smallest)
        assert base.k.tobytes() == wide.k.tobytes()
        assert base.V.tobytes() == wide.V.tobytes()


class TestEvolve:
    def test_decoupled_atom_exact_phase(self):
        p = make_model(1.0, 2.4, 1.2, 0.0)
        system = discretize(p, box_length=100.0, n_modes=2048)
        traj = evolve(system, t_end=10.0, dt=1e-3)
        times, psi_d = traj.times[::100], traj.psi_d[::100]
        assert np.max(np.abs(np.abs(psi_d) - 1.0)) < 1e-10
        x = p.a_over_omega
        phase = p.epsilon_d * times + x * (1 - np.cos(p.omega * times))
        assert np.max(np.abs(psi_d - np.exp(-1j * phase))) < 1e-7

    def test_norm_conserved(self, small_system):
        traj = evolve(small_system, t_end=10.0, dt=1e-3)
        assert traj.norm_drift < 1e-8
        assert traj.final.norm_sq == pytest.approx(1.0, abs=1e-8)

    def test_final_state_and_drift_follow_the_arrays(self, small_system):
        traj = evolve(small_system, t_end=5.0)
        copy = dataclasses.replace(traj, psi_d=0 * traj.psi_d)
        assert copy.final.psi_d == 0.0
        assert copy.final.t == traj.times[-1]
        assert copy.norm_drift == abs(
            2.0 * float(np.sum(np.abs(traj.psi_k) ** 2)) - 1.0)

    def test_fourth_order_accuracy(self, small_system):
        finals = [evolve(small_system, t_end=5.0, dt=dt).final.psi_d
                  for dt in (2e-2, 1e-2, 5e-3)]
        e1 = abs(finals[0] - finals[1])
        e2 = abs(finals[1] - finals[2])
        order = math.log2(e1 / e2)
        assert 3.7 <= order <= 4.3

    def test_coarse_step_trips_norm_gate(self, small_system, monkeypatch):
        # drift 7.9e-8 at dt = 4e-2; halving dt brings it to 2.5e-9, so
        # evolve returns the run at 2e-2, and with no halving it raises
        coarse = evolve(small_system, t_end=5.0, dt=4e-2)
        half = evolve(small_system, t_end=5.0, dt=2e-2)
        assert half.norm_drift < 1e-8
        for name in ("times", "psi_d", "psi_k"):
            assert getattr(coarse, name).tobytes() == \
                getattr(half, name).tobytes()
        monkeypatch.setattr(oracle, "DT_HALVINGS", 0)
        with pytest.raises(ConvergenceError, match=r"even at dt=0\.04, the "
                                                   "smallest step tried$"):
            evolve(small_system, t_end=5.0, dt=4e-2)

    def test_wide_cutoff_halves_the_default_step(self):
        # at k_c = 20 the default step drifts by 1.4e-7 over t_end = 5:
        # the library call returns the run at half the step, as the CLI
        system = discretize(make_model(1.0, 2.4, 1.2, 0.1, k_c=20.0))
        traj = evolve(system, t_end=5.0)
        half = evolve(system, t_end=5.0, dt=5e-3)
        assert traj.dt == 5e-3
        for name in ("times", "psi_d", "psi_k"):
            assert getattr(traj, name).tobytes() == \
                getattr(half, name).tobytes()

    def test_default_step_matches_classical_rk4(self, small_system):
        traj = evolve(small_system, t_end=10.0)
        times, series, pd, pk = classical_rk4(small_system, 10.0, 1e-3, 10)
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.psi_d - series)) < 1e-8
        assert abs(traj.final.psi_d - pd) < 1e-8
        assert np.max(np.abs(traj.final.psi_k
                             - pk[-small_system.n_retained:])) < 1e-8

    @pytest.mark.parametrize("box,t_end,dt", [
        ((100.0, 2048), 10.0, 1e-2), ((400.0, 8192), 5.0, 1e-3),
        ((800.0, 16384), 5.0, 1e-2)],
        ids=["small-box", "default-box", "fine-box"])
    def test_step_matches_lawson_reference(self, ref_params, box, t_end, dt):
        # the block maps reorder the same arithmetic: they move the
        # amplitudes by rounding only.  The photons are checked against the
        # fresh-phase reference, whose phases carry no accumulated rounding
        system = discretize(ref_params, *box)
        traj = evolve(system, t_end=t_end, dt=dt)
        times, series, pd, _ = lawson_reference(system, t_end, dt, 10)
        assert np.array_equal(traj.times[::10], times)
        assert np.max(np.abs(traj.psi_d[::10] - series)) <= 1e-13
        assert abs(traj.final.psi_d - pd) <= 1e-13
        fresh_pd, fresh_pk = fresh_phase_lawson(system, t_end, dt)
        fresh_pk = fresh_pk[-system.n_retained:]
        assert abs(traj.final.psi_d - fresh_pd) <= 1e-13
        assert np.max(np.abs(traj.final.psi_k - fresh_pk)) <= 1e-13 * np.max(
            np.abs(fresh_pk))

    def test_one_step_rule_runs_whole_blocks(self, ref_params):
        # the nearest whole number of steps, rounded up to whole blocks:
        # a horizon of whole blocks keeps its step, 5.01 shortens it to
        # 5.01 / 504, and the contour keeps its 524 steps at omega = 1.2
        system = discretize(ref_params)
        traj = evolve(system, 20.0)
        assert traj.times.size == 2001 and traj.dt == 1e-2
        odd = evolve(system, 5.01)
        assert odd.times.size == 505 and odd.times[-1] == 5.01
        assert odd.dt == 5.01 / 504
        assert len(observables._floquet_states(ref_params)[1]) == 524

    @pytest.mark.parametrize("n_steps,stride,A", [
        (n, 1, 2.4) for n in sorted(
            {1, BLOCK - 1, BLOCK, 2 * BLOCK, 3 * BLOCK, _CHUNK * BLOCK + 1}
            | {2 * BLOCK + r for r in range(1, BLOCK)})] + [
        (3 * BLOCK + 2, 1, 0.0)])
    def test_block_edges_match_lawson_reference(self, n_steps, stride, A):
        # horizons of n_steps default steps, on and off a whole number of
        # blocks: 1, 2, 3 and 4 blocks and a run past a chunk of block
        # maps, each at the step the block rule picks; the reference
        # samples every step (stride 1), as evolve does
        system = discretize(make_model(1.0, A, 1.2, 0.1), box_length=100.0,
                            n_modes=2048)
        t_end = n_steps * 1e-2
        traj = evolve(system, t_end=t_end, dt=1e-2)
        assert traj.times.size == BLOCK * -(-n_steps // BLOCK) + 1
        times, series, _, _ = lawson_reference(system, t_end, traj.dt,
                                               stride)
        assert np.array_equal(traj.times, times)
        assert np.max(np.abs(traj.psi_d - series)) <= 1e-13
        _, fresh_pk = fresh_phase_lawson(system, t_end, traj.dt)
        fresh_pk = fresh_pk[-system.n_retained:]
        assert np.max(np.abs(traj.final.psi_k - fresh_pk)) <= 1e-13 * np.max(
            np.abs(fresh_pk))

    @pytest.mark.parametrize("n_steps", [*range(1, BLOCK),
                                         *range(2 * BLOCK, 3 * BLOCK)])
    def test_photons_at_start_match_lawson_reference(self, n_steps):
        # evolve starts with no photons; here the stepper starts with some
        # and runs 1, 2 or 3 whole blocks, so photons turned wrongly
        # across a block would show
        system = discretize(make_model(1.0, 2.4, 1.2, 0.1), box_length=100.0,
                            n_modes=2048)
        n = system.n_retained
        rng = np.random.default_rng(5)
        photons = 0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        start = (0.6 + 0.3j, np.concatenate([photons[::-1], photons]))
        t_end = n_steps * 1e-2
        h, psi, pk = _lawson(system.params, system.k, system.V, t_end, 1e-2,
                             np.append(start[0], photons)[:, None])
        assert len(psi) == BLOCK * -(-n_steps // BLOCK) + 1
        _, series, _, _ = lawson_reference(system, t_end, h, 1, start)
        assert np.max(np.abs(psi[:, 0] - series)) <= 1e-13
        _, fresh_pk = fresh_phase_lawson(system, t_end, h, start)
        assert np.max(np.abs(pk[:, 0] - fresh_pk[-n:])) <= 1e-13 * np.max(
            np.abs(fresh_pk))

    @pytest.mark.parametrize("box", [(100.0, 2048), (400.0, 8192)],
                             ids=["small-box", "default-box"])
    def test_photons_mirror_exactly(self, ref_params, box):
        # V_k and |k| are even and the photons start empty: the full-grid
        # reference keeps psi_{-k} = psi_k, so the odd combinations the box
        # leaves out never couple
        _, _, _, pk = lawson_reference(discretize(ref_params, *box), 5.0,
                                       1e-2, 100)
        assert np.any(pk != 0.0)
        assert np.array_equal(pk, pk[::-1])

    def test_no_drive_matches_weighted_pole_decay(self):
        # the total probability tracks |N|^2 e^{2 Im z t} once the
        # band-edge transient has rung down
        p = make_model(1.0, 0.0, 1.2, 0.1)
        state = solve_resonance(p)
        system = discretize(p)
        traj = evolve(system, t_end=20.0, dt=1e-3)
        t, P = traj.times[::100], survival_probability(traj)[::100]
        pred = abs(state.N_d) ** 2 * np.exp(2 * state.z_d.imag * t)
        mask = t >= 2.0
        assert np.max(np.abs(P[mask] - pred[mask]) / pred[mask]) < 0.03

    def test_bad_arguments(self, small_system):
        with pytest.raises(ValueError):
            evolve(small_system, t_end=-1.0)
        with pytest.raises(ValueError):
            evolve(small_system, t_end=1.0, dt=-1e-3)

    # the box is periodic: the emitter meets its own photons at
    # t = box_length, and past it the survival comes back wrong (0.125 at
    # t = 25 on this L = 20 box, against 0.0033 at t = 20)
    @pytest.mark.parametrize("t_end", [20.0, 25.0])
    def test_refuses_t_end_past_the_box(self, t_end):
        system = discretize(make_model(1.0, 2.4, 1.2, 0.1), 20.0, 256)
        with pytest.raises(ValueError, match=(
                rf"^t_end={t_end} must lie in \(0, 20\.0\): photons "
                r"circling box_length=20\.0 return$")):
            evolve(system, t_end)

    def test_runs_just_inside_the_box(self):
        system = discretize(make_model(1.0, 2.4, 1.2, 0.1), 20.0, 256)
        traj = evolve(system, 19.99)
        assert traj.times[-1] == pytest.approx(19.99, rel=1e-12)


# NaN compares false both ways, so each positivity guard must reject it
# rather than let it through to the numerics; an infinite t_end or dt
# would count no steps or one step of length t_end
@pytest.mark.parametrize("call, message", [
    (lambda p, s, state: evolve(s, t_end=math.nan),
     "t_end and dt must be positive and finite"),
    (lambda p, s, state: evolve(s, t_end=1.0, dt=math.nan),
     "t_end and dt must be positive and finite"),
    (lambda p, s, state: evolve(s, t_end=math.inf),
     "t_end and dt must be positive and finite"),
    (lambda p, s, state: evolve(s, t_end=1.0, dt=math.inf),
     "t_end and dt must be positive and finite"),
    (lambda p, s, state: discretize(p, box_length=math.nan),
     "box_length must be positive"),
    (lambda p, s, state: resonance_spatial_field(
        state, np.linspace(-1.0, 1.0, 3), math.nan), "t must be positive"),
], ids=["evolve-t_end", "evolve-dt", "evolve-t_end-inf", "evolve-dt-inf",
        "discretize-box_length", "resonance_spatial_field-t"])
def test_nan_fails_positivity_guard(ref_params, small_system, ref_state,
                                    call, message):
    with pytest.raises(ValueError, match=message):
        call(ref_params, small_system, ref_state)


class TestExtraction:
    def test_survival_starts_at_one(self, small_system):
        traj = evolve(small_system, t_end=2.0, dt=1e-3)
        P = survival_probability(traj)
        assert traj.times[0] == 0.0 and P[0] == 1.0

    def test_photon_weight_complements_survival(self, small_system):
        traj = evolve(small_system, t_end=5.0, dt=1e-3)
        weight = 2.0 * float(np.sum(np.abs(traj.final.psi_k) ** 2))
        assert weight == pytest.approx(1.0 - abs(traj.final.psi_d) ** 2,
                                       abs=1e-8)

    def test_spectrum_warns_before_decay(self, small_system):
        traj = evolve(small_system, t_end=2.0, dt=1e-3)
        _, warning = photon_spectrum(small_system, traj.final)
        assert warning is not None and "survival" in warning

    def test_no_drive_single_line(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        state = solve_resonance(p)
        system = discretize(p, box_length=200.0, n_modes=4096)
        traj = evolve(system, t_end=45.0, dt=1e-3)
        spec, warning = photon_spectrum(system, traj.final)
        assert warning is None
        k = system.k
        pos = k[k > 0]
        line = spec[k > 0]
        assert abs(pos[np.argmax(line)] - state.z_d.real) < 0.05

    def test_spatial_field_empty_before_emission(self, small_system):
        state = SectorState(psi_d=1.0 + 0.0j,
                            psi_k=np.zeros(small_system.n_retained,
                                           dtype=complex), t=1.0)
        f = spatial_field(small_system, state, np.linspace(-20, 20, 41))
        assert np.all(f == 0.0)

    @pytest.mark.parametrize("box,x", [
        ((100.0, 2048), np.linspace(-45.0, 45.0, 181)),
        ((400.0, 8192), np.linspace(-30.0, 30.0, 1201)),
        ((800.0, 16384), np.linspace(-30.0, 30.0, 1201)),
        ((400.0, 8192), np.linspace(30.0, -30.0, 1201)),
        ((800.0, 16384), np.linspace(-399.0, 399.0, 8001)),
        ((100.0, 2048), np.linspace(-80.0, 80.0, 321))],
        ids=["uniform", "box400-uniform", "box800-uniform",
             "box400-descending", "box800-wide", "past-half-box"])
    def test_spatial_field_matches_dense_sum(self, ref_params, box, x):
        system = discretize(ref_params, *box)
        traj = evolve(system, t_end=10.0)
        f = spatial_field(system, traj.final, x)
        dense = dense_field(system, traj.final, x)
        assert np.max(np.abs(f - dense)) < 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("box,x", [
        ((100.0, 2048),
         np.sort(np.random.default_rng(7).uniform(-49.0, 49.0, 97))),
        ((400.0, 8192),
         np.sort(np.random.default_rng(8).uniform(-199.0, 199.0, 1201))),
        ((800.0, 16384),
         np.sort(np.random.default_rng(9).uniform(-399.0, 399.0, 1201)))],
        ids=["nonuniform", "box400-nonuniform", "box800-nonuniform"])
    def test_spatial_field_rejects_uneven_grid(self, ref_params, box, x):
        system = discretize(ref_params, *box)
        state = SectorState(psi_d=1.0 + 0.0j, t=0.0,
                            psi_k=np.ones(system.n_retained, dtype=complex))
        with pytest.raises(ValueError, match="evenly spaced"):
            spatial_field(system, state, x)

    def test_spatial_field_grid_tolerance(self, small_system):
        state = SectorState(psi_d=1.0 + 0.0j, t=1.0,
                            psi_k=np.ones(small_system.n_retained,
                                          dtype=complex))
        x = np.linspace(-10.0, 10.0, 101)
        x[37] += 4 * np.spacing(10.0)
        spatial_field(small_system, state, x)
        x[37] += 4 * np.spacing(10.0)
        with pytest.raises(ValueError, match="evenly spaced"):
            spatial_field(small_system, state, x)

    def test_spatial_field_two_modes(self, ref_params):
        # mode j = 1 and its mirror only: the smallest transform, three
        # coefficients
        system = discretize(ref_params, box_length=1.5, n_modes=64)
        assert system.n_retained == 1
        state = SectorState(psi_d=0.0j, psi_k=np.array([0.6 + 0.8j]), t=0.5)
        x = np.linspace(-0.7, 0.7, 15)
        f = spatial_field(system, state, x)
        dense = dense_field(system, state, x)
        assert np.max(np.abs(f - dense)) < 1e-12 * np.max(np.abs(dense))

    # a photon circling the L = 20 box re-enters the +-9 grid at t = 11;
    # at t = 15 the box's intensity there is off the L = 400 box's by up
    # to 4.2 times that intensity's peak
    def test_field_past_the_horizon_rejected(self, ref_params):
        system = discretize(ref_params, box_length=20.0, n_modes=256)
        traj = evolve(system, t_end=15.0)
        with pytest.raises(ValueError, match=r"^t=.* must lie in \(0, "
                           r"11\.0\): photons circling box_length=20\.0"):
            spatial_field(system, traj.final, np.linspace(-9.0, 9.0, 181))

    @pytest.mark.parametrize("t", [0.0, -1.0, 80.0, math.nan])
    def test_field_outside_the_horizon_rejected(self, small_system, t):
        # the horizon of L = 100 on the +-20 grid is (0, 80)
        state = SectorState(psi_d=1.0 + 0.0j, t=t,
                            psi_k=np.ones(small_system.n_retained,
                                          dtype=complex))
        with pytest.raises(ValueError, match=f"^t={t} must lie in "
                           r"\(0, 80\.0\)"):
            spatial_field(small_system, state, np.linspace(-20, 20, 41))

    def test_empty_grid_rejected(self, small_system):
        traj = evolve(small_system, t_end=1.0, dt=1e-3)
        with pytest.raises(ValueError):
            spatial_field(small_system, traj.final, np.array([]))

    def test_nan_position_rejected(self, small_system):
        traj = evolve(small_system, t_end=1.0, dt=1e-3)
        x = np.linspace(-10.0, 10.0, 5)
        x[2] = np.nan
        with pytest.raises(ValueError, match="evenly spaced"):
            spatial_field(small_system, traj.final, x)


class TestCompare:
    def test_identical_series_pass_with_zero_error(self, ref_state):
        t = np.linspace(1.0, 10.0, 91)
        P = np.exp(-0.3 * t)
        report = compare(ref_state, survival=(t, P, P.copy()))
        check = report.check("survival_max_rel_dev")
        assert check.passed and check.value == 0.0

    def test_pass_flag_follows_the_value(self, ref_state):
        t = np.linspace(1.0, 10.0, 91)
        P = np.exp(-0.3 * t)
        check = compare(ref_state, survival=(t, P, P)).check(
            "survival_max_rel_dev")
        assert check.passed
        assert dataclasses.replace(check, value=math.inf).passed is False

    def test_nothing_to_compare_rejected(self, ref_state):
        with pytest.raises(ValueError, match="no comparable"):
            compare(ref_state)

    def test_unknown_check_name_rejected(self, ref_state):
        t = np.linspace(1.0, 10.0, 91)
        report = compare(ref_state, survival=(t, np.exp(-t), np.exp(-t)))
        with pytest.raises(KeyError, match="field_max_rel_dev"):
            report.check("field_max_rel_dev")

    def test_survival_tolerance_enforced(self, ref_state):
        t = np.linspace(1.0, 10.0, 91)
        P = np.exp(-0.3 * t)
        report = compare(ref_state, survival=(t, 1.2 * P, P))
        assert not report.passed

    def test_zero_spectrum_has_no_peak(self, ref_state):
        # an all-zero window holds no line: each peak row fails with inf
        # and a cause instead of reading the window's first point
        k = np.linspace(0.1, 6.0, 119)
        s = np.maximum(0.0, 1.0 - np.abs(k - ref_state.z_d.real) / 0.2)
        report = compare(ref_state, spectrum=(k, s, np.zeros_like(k)))
        for m in range(4):
            oracle = report.check(f"spectrum_peak_position_oracle_m{m}")
            assert math.isinf(oracle.value) and not oracle.passed
            assert oracle.cause.startswith("no oracle line within")
        line = report.check("spectrum_peak_position_floquet_m0")
        assert line.value < 0.05 and line.cause is None
        assert report.check("spectrum_ratio_oracle_m1").cause == \
            "no oracle line at m = 0"
        assert report.check("spectrum_ratio_floquet_m1").cause == \
            "no floquet line at m = 1"
        assert set(report.causes) == {
            c.name for c in report.checks if math.isinf(c.value)}

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_spectrum_peak_on_window_edge_is_read(self, ref_state, side):
        # the peak window is closed: a line exactly on center +- halfwidth
        # is read there, not reported missing
        center = ref_state.z_d.real + 0 * ref_state.params.omega
        edge = center + side * (0.45 * ref_state.params.omega)
        k = np.sort(np.append(np.linspace(0.05, 6.0, 120), edge))
        s = np.where(k == edge, 1.0, 0.0)
        report = compare(ref_state, spectrum=(k, s, s.copy()))
        for label in ("floquet", "oracle"):
            check = report.check(f"spectrum_peak_position_{label}_m0")
            assert check.cause is None
            assert check.value == abs(edge - center)

    def test_field_maximum_on_window_edge_calibrates(self, ref_state):
        # at t = 20 the window is |x| <= 18, closed: the Floquet maximum
        # at |x| = 18 itself is the calibration point
        x = np.arange(-300, 301) / 10.0
        f_floquet = np.minimum(np.abs(x), 18.0) + 1.0
        f_oracle = np.where(np.abs(x) == 18.0, 3.0, 1.0) * f_floquet
        report = compare(ref_state, field=(x, 20.0, f_floquet, f_oracle))
        assert report.calibration == 3.0

    @pytest.mark.parametrize("floquet_scale,oracle_scale,cause", [
        (0.0, 1.0, None), (1.0, 0.0, "the oracle field is zero everywhere")])
    def test_causality_row_always_reported(self, ref_state, floquet_scale,
                                           oracle_scale, cause):
        # a zero Floquet field leaves the maxima check nothing to read, but
        # the causality leak reads the oracle field alone
        x = np.linspace(-30.0, 30.0, 601)
        f = np.exp(-np.abs(x))
        report = compare(ref_state, field=(x, 20.0, floquet_scale * f,
                                           oracle_scale * f))
        leak = report.check("causality_leak")
        assert leak.cause == cause
        if cause is None:
            assert leak.value == pytest.approx(math.exp(-22.0))
            assert report.check("field_max_rel_dev").cause.startswith(
                "no Floquet field within")
        else:
            assert math.isinf(leak.value) and not leak.passed

    def test_field_maxima_inside_light_front(self, ref_state):
        # at t = 5 the resonance field keeps its stationary profile beyond
        # the front |x| = t, where the integrator's field is ~0: only the
        # maxima inside the calibration window |x| <= t - 2 are compared
        x = np.linspace(-20.0, 20.0, 801)
        inner = 1.0 + np.cos(2.0 * x) ** 2
        f_floquet = np.where(np.abs(x) <= 5.0, inner, 3.0 + np.cos(x))
        f_oracle = np.where(np.abs(x) <= 5.0, inner, 1e-6)
        report = compare(ref_state, field=(x, 5.0, f_floquet, f_oracle))
        check = report.check("field_max_rel_dev")
        assert check.passed and check.value == 0.0

    @pytest.mark.parametrize("t,edge", [(5.0, 3.0), (20.0, 18.0),
                                        (30.0, 18.0)])
    def test_calibration_window(self, ref_state, t, edge):
        # the reference point is the resonance maximum in |x| <= min(18,
        # t - 2); an integrator field of |x| * (1 + |x|) reveals it
        x = np.linspace(-30.0, 30.0, 601)
        report = compare(ref_state, field=(x, t, np.abs(x),
                                           np.abs(x) * (1.0 + np.abs(x))))
        assert edge - 0.1 < report.calibration - 1.0 <= edge

    @pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf])
    def test_field_time_must_be_positive_and_finite(self, ref_state, t):
        # every field-side window is read from the light front |x| = t:
        # at t = 0 the front is at x = 0, and no window fits a negative or
        # non-finite time
        x = np.linspace(-30.0, 30.0, 601)
        f = np.abs(x)
        with pytest.raises(ValueError, match="the field time t must be "
                                             "positive and finite"):
            compare(ref_state, field=(x, t, f, f))

    @pytest.mark.parametrize("key", ["survival", "spectrum", "field"])
    def test_each_observable_runs_its_own_checks(self, ref_state, key):
        # one observable alone yields exactly its group's check names, in
        # the report's order
        x = np.linspace(-30.0, 30.0, 601)
        f = np.exp(-np.abs(x))
        k = np.linspace(0.1, 6.0, 119)
        groups = {"survival": (x, f, f), "spectrum": (k, k, k),
                  "field": (x, 20.0, f, f)}
        spectrum = [f"spectrum_{kind}_{label}_m{m}"
                    for kind, ms in (("peak_position", range(4)),
                                     ("ratio", range(1, 4)))
                    for m in ms for label in ("floquet", "oracle")]
        names = {"survival": ["survival_max_rel_dev"], "spectrum": spectrum,
                 "field": ["field_max_rel_dev", "causality_leak",
                           "beat_frequency_dev",
                           "diagonal_log_slope_rel_dev"]}
        report = compare(ref_state, **{key: groups[key]})
        assert [c.name for c in report.checks] == names[key]

    @pytest.mark.parametrize("key", ["interference", "diagonal"])
    def test_pole_side_alone_is_no_observable(self, ref_state, key):
        # the beat and slope rows come with the field group: a keyword
        # holding only the pole side is a misnamed observable
        x = np.linspace(-30.0, 30.0, 601)
        with pytest.raises(TypeError, match=key):
            compare(ref_state, **{key: (x, 20.0, np.exp(-np.abs(x)))})

    def test_beat_and_slope_read_the_state_field(self, ref_state):
        # whatever series the field group holds, its beat and slope rows
        # are the reference compare's: both read the state's own pole
        # field, whose diagonal terms grow at exactly 2 |Im z_d|
        x = np.linspace(-30.0, 30.0, 1201)
        zeros = np.zeros_like(x)
        report = compare(ref_state, field=(x, 20.0, zeros, zeros))
        (ds,) = run_command("compare", from_dict(
            {"epsilon_d": 1.0, "omega": 1.2, "A_over_omega": 2.0,
             "lambda": 0.1}))
        rows = dict(zip(ds.metadata["check_names"], ds.column("value")))
        for name in ("beat_frequency_dev", "diagonal_log_slope_rel_dev"):
            assert report.check(name).value == rows[name]
        slope = report.check("diagonal_log_slope_rel_dev")
        assert slope.passed and slope.value < 1e-12

    def test_causality_reads_beyond_the_light_front(self, ref_state):
        # at t = 30 the front has reached |x| = 30: the leak reads
        # |x| >= t + 2, which the +-30 grid does not hold, and fails with
        # that cause instead of reading the field inside the front
        x = np.linspace(-30.0, 30.0, 601)
        f = np.exp(-np.abs(x))
        leak = compare(ref_state, field=(x, 30.0, f, f)).check(
            "causality_leak")
        assert leak.cause == "no grid point at |x| >= 32"
        assert math.isinf(leak.value) and not leak.passed

    def test_beat_span_under_a_drive_period_fails(self, ref_state):
        # at t = 5 the beat span inside the front is [2, 3], a fifth of a
        # drive period: one FFT bin, the tolerance, exceeds omega there, so
        # no beat can be told from none and the check fails with that cause
        x = np.linspace(-30.0, 30.0, 1201)
        f = resonance_spatial_field(ref_state, x, 5.0).total
        beat = compare(ref_state, field=(x, 5.0, f, f)
                       ).check("beat_frequency_dev")
        assert beat.cause == ("FFT bin 5.98399 exceeds omega: [2, 3] is "
                              "shorter than a drive period")
        assert math.isinf(beat.value) and not beat.passed

    @pytest.mark.parametrize("window", ["calibration", "maxima", "beat",
                                        "slope", "causality"])
    def test_light_front_windows_at_t_20(self, ref_state, monkeypatch,
                                         window):
        # at t = 20 the light-front rule reads the fixed windows it
        # replaced: the calibration point and the maxima on |x| <= 18, the
        # beat and slope fits on [2, 18] and the causality leak on
        # |x| >= 22
        x = np.arange(-300, 301) / 10.0
        ax = np.abs(x)
        inner = (x >= 2.0) & (x <= 18.0)
        seen = []

        def spy(module, name):  # record the first argument of each call
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, *rest: seen.append(a)
                                or real(a, *rest))

        if window == "calibration":
            # the integrator's |x| (1 + |x|) over |x| at the edge |x| = 18
            report = compare(ref_state, field=(x, 20.0, ax, ax * (1 + ax)))
            assert report.calibration == 19.0
        elif window == "maxima":
            # a maximum every 0.2, each off by |x| / 1000: the worst read
            # is the one at |x| = 18
            f = (2.0 + np.cos(10.0 * np.pi * x)) * np.exp(-ax / 100.0)
            check = compare(ref_state, field=(x, 20.0, f, f * (1 + ax / 1e3))
                            ).check("field_max_rel_dev")
            assert check.value == pytest.approx(0.018 / 1.018, rel=1e-9)
        elif window == "beat":
            # the FFT sees every point of the span, and no other
            spy(np.fft, "rfft")
            compare(ref_state, field=(x, 20.0, ax, ax))
            (ys,) = seen
            assert ys.size == np.sum(inner) and np.all(np.isfinite(ys))
        elif window == "slope":
            # one fit per open mode, each on the span
            spy(np, "polyfit")
            compare(ref_state, field=(x, 20.0, ax, ax))
            assert len(seen) == np.sum(ref_state.second_sheet)
            assert all(np.array_equal(xs, x[inner]) for xs in seen)
        else:
            f = np.exp(-ax)
            leak = compare(ref_state, field=(x, 20.0, f, f)).check(
                "causality_leak")
            assert leak.value == f[x == 22.0][0]


class TestFiniteSizeSafety:
    def test_box_doubling_leaves_observables(self, ref_params):
        t_end = 10.0
        vals = []
        for L, N in ((100.0, 2048), (200.0, 4096)):
            system = discretize(ref_params, box_length=L, n_modes=N)
            traj = evolve(system, t_end=t_end, dt=2e-3)
            vals.append(abs(traj.final.psi_d) ** 2)
        assert abs(vals[0] - vals[1]) / vals[1] < 0.005
