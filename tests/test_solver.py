from __future__ import annotations

import dataclasses
import inspect
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from floquet_hhg import ConvergenceError, SolverOptions, \
    ResonanceState, floquet_c_product, make_model, \
    perturbative_eigenvalue, second_sheet, solve_resonance
from floquet_hhg import bessel_j, discretize
from floquet_hhg.perturbation import bessel_support
from floquet_hhg import self_energy, solver
from floquet_hhg.cli import main

from dense_ladder import dense_effective_matrix, dense_gauge_gap, \
    dense_truncated_check
from sigma_reference import channel_sigma
from sigma_reference import sigma_ladder as reference_sigma_ladder
from solver_views import FIRST_SHEET, continued_fraction, deep_fold, \
    dispersion, dispersion_core, first_sheet_rows, resolvent_column, \
    shift_mode, wide_solve

Z_PROBE = complex(1.0, -0.05)

#: Solver outputs recorded with the scalar ladder (one ``sigma`` call per
#: level): the reference config and three pole-scatter benchmark points.
PINNED = json.loads((Path(__file__).parent / "data" / "pinned_solves.json")
                    .read_text(encoding="utf-8"))


def dense_schur_fold(params, z, n_tr):
    """Eliminate everything but the center row of the dense frozen ladder;
    the independent linear-algebra oracle for the continued fractions."""
    H = dense_effective_matrix(params, z, n_tr)
    dim = 2 * n_tr + 1
    c = n_tr
    rest = [i for i in range(dim) if i != c]
    B = H[np.ix_(rest, rest)]
    u = H[c, rest]
    w = H[rest, c]
    return u @ np.linalg.solve(z * np.eye(dim - 1) - B, w)


def ladder_row_residuals(params, state):
    """Residuals of the three-term ladder recurrence in the interior rows
    of the state's ladder, aligned with ``state.ns[1:-1]``."""
    z, R = state.z_d, state.R
    ns = state.ns[1:-1]
    d = params.epsilon_d + ns * params.omega
    if params.lambda_:
        d = d + params.lambda_ ** 2 * np.array([
            channel_sigma(params, n, z, second)[0]
            for n, second in zip(ns.tolist(), state.second_sheet[1:-1])])
    half = complex(0.0, -0.5 * params.A)  # A/2i
    return half * R[:-2] + d * R[1:-1] - half * R[2:] - z * R[1:-1]


class TestContinuedFraction:
    def test_zero_drive(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        for z in (Z_PROBE, 2.0 - 0.3j):
            assert continued_fraction(p, z, "up", depth=32) == 0.0
            assert continued_fraction(p, z, "down", depth=32) == 0.0

    def test_matches_dense_schur_complement(self, ref_params):
        cf = continued_fraction(ref_params, Z_PROBE, "up", depth=40) \
            + continued_fraction(ref_params, Z_PROBE, "down", depth=40)
        schur = dense_schur_fold(ref_params, Z_PROBE, 40)
        assert abs(cf - schur) < 1e-10

    def test_depth_doubling_stable(self, ref_params):
        for direction in ("up", "down"):
            a = continued_fraction(ref_params, Z_PROBE, direction, depth=64)
            b = continued_fraction(ref_params, Z_PROBE, direction, depth=128)
            assert abs(a - b) < 1e-13

    @pytest.mark.parametrize("keep", [0, 1])
    def test_vanishing_partial_denominator_is_typed(self, ref_params, keep):
        # T_2 = z - d_2 = 0 exactly: a resonance of the truncated ladder
        with pytest.raises(ConvergenceError, match="truncated-ladder"):
            solver._chain(ref_params, Z_PROBE, -1, 2, [0.5, Z_PROBE],
                          [0j, 0j], keep)

    def test_direction_validated(self, ref_params):
        with pytest.raises(ValueError, match="direction"):
            continued_fraction(ref_params, Z_PROBE, "sideways")


class TestLentzDepth:
    """The wing folds of one dispersion evaluation, at the depth the
    modified-Lentz pass picks, against a fixed deep fold."""

    @pytest.mark.parametrize("keep", [0, 32])
    @pytest.mark.parametrize("args,z,min_depth,rtol,cp_rtol", [
        ((1.0, 2.4, 1.2, 0.1), None, 0, 1e-14, 1e-14),
        ((1.0, 2.4, 1.2, 0.1), complex(1.3, 0.0), 0, 1e-14, 1e-14),
        ((1.0, 7.2, 1.2, 0.1), Z_PROBE, 0, 1e-14, 1e-14),
        ((1.0, 2.4, 1.2, 0.0), Z_PROBE, 0, 1e-14, 1e-14),
        # omega = 0.05: the pass runs past the levels evaluated up front.
        # On a tail this slow one more level still moves the fold by more
        # than 1e-14 and only CF_TOL = 1e-13 bounds it; the pass tests C
        # alone, and C' (the Newton slope) lags it by the tail's log-slope
        ((1.0, 3.0, 0.05, 0.1), Z_PROBE, 65, 1e-13, 1e-11),
    ], ids=["reference-pole", "real-axis", "A-over-omega-6", "lambda-0",
            "slow-tail"])
    def test_matches_depth_512_fold(self, args, z, min_depth, rtol,
                                    cp_rtol, keep, monkeypatch):
        # keep = 0 is the fold of D (a Newton iterate); keep = 32 keeps
        # partial denominators, as a ladder fold does, over the same
        # evaluation, and returns no slope
        p = make_model(*args)
        if z is None:
            z = solve_resonance(p).z_d
        rows = solver._rows(p, z, at_z=True)
        folds = []
        inner = solver._chain_adaptive

        def recording(*a, **k):
            out = inner(*a, **k)
            folds.append((a[2], out))
            return out

        monkeypatch.setattr(solver, "_chain_adaptive", recording)
        wings = dispersion_core(z, rows)[2][2]
        if keep:
            folds.clear()
            for direction, wing in zip((1, -1), wings):
                solver._chain_adaptive(p, z, direction, rows, *wing, keep)
        assert [direction for direction, _ in folds] == [+1, -1]
        for direction, (C, Cp, T, depth) in folds:
            assert min_depth <= depth < 512
            d, dp = solver._Rows(p, direction * np.arange(1, 513),
                                 rows.sheet_ref).diagonals(z)
            C_ref, Cp_ref, T_ref = solver._chain(p, z, direction, 512, d, dp,
                                                 keep)
            assert abs(C - C_ref) <= rtol * abs(C_ref)
            if keep:
                assert Cp is None and Cp_ref is None
            else:
                assert abs(Cp - Cp_ref) <= cp_rtol * abs(Cp_ref)
            assert len(T) == keep
            for t, t_ref in zip(T, T_ref):
                assert abs(t - t_ref) <= rtol * abs(t_ref)

    def test_depth_stops_short_of_64(self, ref_state):
        # the root fold runs its Lentz pass below the levels it keeps
        assert ref_state.ns.max() < ref_state.cf_depth_used < 64

    def test_one_self_energy_call_per_evaluation(self, ref_params,
                                                 monkeypatch):
        # the row table's closed form runs once per evaluation, off the
        # real axis and on it
        calls = []
        inner = self_energy.ChannelRows.sigma

        def counting(rows, z):
            calls.append(z)
            return inner(rows, z)

        monkeypatch.setattr(self_energy.ChannelRows, "sigma", counting)
        for z in (Z_PROBE, complex(1.3, 0.0), 0.7 + 0.25j):
            dispersion_core(z, solver._rows(ref_params, z, True))
            resolvent_column(ref_params, z)
        assert len(calls) == 6

    def test_unconverged_tail_is_typed(self, monkeypatch):
        # the slow tail above needs 87 levels
        p = make_model(1.0, 3.0, 0.05, 0.1)
        monkeypatch.setattr(solver, "CF_MAX_DEPTH", 80)
        with pytest.raises(ConvergenceError,
                           match="not converged at depth 80"):
            dispersion_core(Z_PROBE, solver._rows(p, Z_PROBE, True))

    def test_option_fields(self):
        # the solve takes no options; SolverOptions only carries the bar
        # of a verified pole
        assert list(inspect.signature(solve_resonance).parameters) == \
            ["params"]
        assert vars(SolverOptions()) == {}
        assert SolverOptions().root_tol == solver.ROOT_TOL


def scaled_outcome(evaluate):
    """Rows (lambda^2 Sigma, lambda^2 Sigma'), or the type and text of the
    exception the evaluation raised."""
    try:
        return evaluate()
    except (ValueError, ConvergenceError) as exc:
        return type(exc), str(exc)


#: Rounding allowance of the row table against the reference, in units of
#: the closed form's terms: the table adds the second-sheet shift to the
#: logarithms before multiplying by zeta, the reference subtracts it after.
ROW_ULPS = 2


def table_matches_ladder(p, ns, z, sheet_ref):
    """Outcome of the solver's row table at z, asserted to match that of
    the elementwise reference ``sigma_ladder`` on the same channels and
    sheet mask: the same exception type and text, or rows within
    ``ROW_ULPS`` ulps of the terms of the closed form (NaN where the
    reference is NaN)."""
    rows = solver._Rows(p, ns, sheet_ref)
    lam2 = p.lambda_ ** 2

    def ladder():
        s, sp = reference_sigma_ladder(p, ns, z, rows.second)
        return lam2 * s, lam2 * sp

    table = scaled_outcome(lambda: rows.sigma(z))
    ref = scaled_outcome(ladder)
    if isinstance(ref[0], type) or isinstance(table[0], type):
        assert table == ref
        return table
    zeta = z - rows.nw
    logs = np.abs(np.log(zeta)) + np.abs(np.log(zeta - p.k_c)) + 2 * math.pi
    for got, want, terms in zip(table, ref, (
            np.abs(zeta) * logs + p.k_c,
            logs + p.k_c / np.abs(zeta - p.k_c))):
        bound = ROW_ULPS * np.finfo(float).eps * 4.0 * lam2 * terms
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.all(np.abs(got - want)[~nan] <= bound[~nan])
    return table


def wing_rows(m):
    """Channels -m..m, the layout of ``solver._rows``."""
    return np.arange(-m, m + 1)


class TestRowTable:
    """The per-solve row table against the elementwise reference: the same
    exception where it raises, the same values to rounding elsewhere."""

    sheet_refs = st.one_of(st.just(FIRST_SHEET), st.tuples(
        st.complex_numbers(max_magnitude=15.0), st.booleans()))

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(eps_d=st.floats(-2.0, 7.0), omega=st.floats(0.3, 3.0),
           lam=st.floats(0.01, 0.3), m=st.integers(0, 16),
           sheet_ref=sheet_refs,
           z_re=st.floats(-15.0, 15.0),
           z_im=st.one_of(st.sampled_from([0.0, -0.0]),
                          st.floats(-2.0, 2.0)))
    def test_matches_sigma_ladder(self, eps_d, omega, lam, m, sheet_ref,
                                  z_re, z_im):
        p = make_model(eps_d, 2.0 * omega, omega, lam)
        table_matches_ladder(p, wing_rows(m), complex(z_re, z_im), sheet_ref)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(omega=st.floats(0.3, 3.0), m=st.integers(1, 16),
           ref_re=st.floats(-10.0, 10.0), upper=st.booleans(),
           z_im=st.sampled_from([-0.05, 0.3]), steps=st.integers(-3, 3))
    def test_continuation_edges(self, omega, m, ref_re, upper, z_im, steps):
        # Re z within a few ulps of either edge of the region where every
        # second-sheet row continues: z.real - nw_max > 0 and
        # z.real - nw_min < k_c decide, as the reference's mask does
        p = make_model(1.0, 2.0 * omega, omega, 0.1)
        ns = wing_rows(m)
        sheet_ref = (complex(ref_re, -0.1), False)
        rows = solver._Rows(p, ns, sheet_ref)
        assume(rows.second_rows.size)
        x = rows.nw_min + p.k_c if upper else rows.nw_max
        for _ in range(abs(steps)):
            x = np.nextafter(x, math.copysign(math.inf, steps))
        table_matches_ladder(p, ns, complex(x, z_im), sheet_ref)

    @pytest.mark.parametrize("at", [0.0, -0.0])
    def test_real_branch_point(self, ref_params, at):
        # zeta = 0 exactly on channel 2 of a real z
        ns = wing_rows(8)
        z = complex(2 * ref_params.omega, at)
        table = table_matches_ladder(ref_params, ns, z, (Z_PROBE, False))
        assert table[0] is ValueError and "branch point" in table[1]

    @pytest.mark.parametrize("sheet_ref", [FIRST_SHEET, (Z_PROBE, False)],
                             ids=["first-sheet", "frozen"])
    def test_nan_energy(self, ref_params, sheet_ref):
        # no second-sheet row: NaN rows; some: the continuation exit
        with np.errstate(invalid="ignore"):
            table_matches_ladder(ref_params, wing_rows(8),
                                 complex(math.nan, -0.1), sheet_ref)

    def test_continuation_exit_keeps_message(self, ref_params):
        table = table_matches_ladder(ref_params, wing_rows(8), -0.5 - 0.1j,
                                     (Z_PROBE, False))
        assert table[0] is ConvergenceError
        assert "second sheet undefined" in table[1]

    @pytest.mark.parametrize("z", [-0.5 - 0.1j, 12.0 - 0.1j])
    def test_continuation_exit_names_the_row_nearest_channel_0(
            self, ref_params, z):
        # whatever the order of the rows: ascending, descending, or zero
        # first and then each wing outward
        levels = np.arange(1, 9)
        messages = set()
        for ns in (wing_rows(8), wing_rows(8)[::-1],
                   np.concatenate([[0], levels, -levels])):
            with pytest.raises(ConvergenceError) as info:
                solver._Rows(ref_params, ns, (Z_PROBE, False)).sigma(z)
            messages.add(str(info.value))
        rows = solver._Rows(ref_params, wing_rows(8), (Z_PROBE, False))
        zeta = z.real - rows.nw
        outside = rows.second & ~((0.0 < zeta) & (zeta < ref_params.k_c))
        n = min(rows.ns[outside].tolist(), key=abs)
        assert messages == {"second sheet undefined for Re(zeta)="
                            f"{z.real - n * ref_params.omega}; continuation "
                            f"region is (0, {ref_params.k_c})"}


def kept_folds(p, z, at_z, keep):
    """Both wings of one evaluation of a solve's row table at z, each
    folded keeping ``keep`` levels: the (C, C', T, depth) of each wing and
    the table's levels a wing, M."""
    rows = solver._rows(p, z, at_z)
    wings = solver._evaluate(z, rows)[2]
    return [solver._chain_adaptive(p, z, direction, rows, *wing, keep)
            for direction, wing in zip((1, -1), wings)], rows.ns.size // 2


class TestLevelMargin:
    """Rows past the table's M = keep + _LEVEL_MARGIN levels come from the
    tail extension of the Lentz pass, with the same values as rows
    evaluated up front."""

    # at the reference point the table holds M = 30 levels a wing (the
    # Bessel bound's 18, _LADDER_SLACK and _LEVEL_MARGIN), so keeping 32
    # or 48 levels reads rows that only the tail extension evaluates
    @pytest.mark.parametrize("keep", [0, 32, 48])
    @pytest.mark.parametrize("args,at_z", [
        ((1.0, 2.4, 1.2, 0.1), True),     # D's depth 12, inside M = 30
        ((1.0, 36.0, 1.2, 0.1), True),    # A/omega = 30: 51, inside 80
        ((1.0, 36.0, 1.2, 0.1), False),
    ], ids=["reference", "deep-selected", "deep-frozen"])
    def test_bit_identical_to_margin_32(self, args, at_z, keep, monkeypatch):
        p = make_model(*args)
        new, M = kept_folds(p, Z_PROBE, at_z, keep)
        monkeypatch.setattr(solver, "_LEVEL_MARGIN", 32)
        old, _ = kept_folds(p, Z_PROBE, at_z, keep)
        depth = max(fold[3] for fold in new)
        assert depth < 64
        if keep == 0:  # the table sized from the Bessel bound covers D
            assert depth <= M
        elif args[1] == 2.4:
            assert depth > M
        assert new == old and [len(fold[2]) for fold in new] == [keep] * 2


class TestLadderDiagonal:
    """The array-valued wing diagonal against the scalar closed form."""

    @pytest.mark.parametrize("direction", [+1, -1])
    @pytest.mark.parametrize("z,at_z", [(Z_PROBE, True), (Z_PROBE, False),
                                        (complex(1.0, -0.0), False),
                                        (complex(1.0, 0.0), True),
                                        (3.1 + 0.2j, True)])
    @pytest.mark.parametrize("lam", [0.1, 0.0])
    def test_matches_scalar_sigma(self, direction, z, at_z, lam):
        p = make_model(1.0, 2.4, 1.2, lam)
        ns = direction * np.arange(0, 129)
        d, dp = solver._Rows(p, ns, (z, at_z)).diagonals(z)
        for n, d_n, dp_n in zip(ns.tolist(), d, dp):
            # selected at z, or frozen from Re z
            second = bool(second_sheet(p, n, z if at_z
                                       else complex(z.real, -1.0), at_z=True))
            expect = p.epsilon_d + n * p.omega
            expect_p = 0.0
            if lam:
                s, sp = channel_sigma(p, n, z, second)
                expect += lam ** 2 * s
                expect_p = lam ** 2 * sp
            assert abs(d_n - expect) <= 1e-14 * abs(expect)
            assert abs(dp_n - expect_p) <= 1e-14 * abs(expect_p)
        if lam == 0.0:
            assert d == [complex(p.epsilon_d + n * p.omega) for n in ns.tolist()]
            assert not any(dp)

    def test_first_sheet_policy(self, ref_params):
        d, _ = solver._Rows(ref_params, np.arange(-5, 6),
                            FIRST_SHEET).diagonals(Z_PROBE)
        expect = [ref_params.epsilon_d + n * ref_params.omega
                  + ref_params.lambda_ ** 2
                  * channel_sigma(ref_params, n, Z_PROBE)[0]
                  for n in range(-5, 6)]
        assert np.allclose(d, expect, rtol=1e-14, atol=0.0)

    def test_branch_point_raises(self, ref_params):
        with pytest.raises(ValueError, match="branch point"):
            solver._Rows(ref_params, np.arange(0, 64),
                         FIRST_SHEET).diagonals(complex(2.4, 0.0))

    def test_second_sheet_exit_is_typed(self, ref_params):
        # frozen at Re z = 1.0, channel 0 leaves (0, k_c) at Re z = -0.5
        with pytest.raises(ConvergenceError, match="second sheet undefined"):
            solver._Rows(ref_params, np.arange(0, 64),
                         (Z_PROBE, False)).diagonals(-0.5 - 0.1j)


def pinned_point(case):
    pt = case["point"]
    return make_model(pt["epsilon_d"], pt["A_over_omega"] * pt["omega"],
                      pt["omega"], pt["lambda"])


PINNED_IDS = ["reference", "scatter1", "scatter2", "scatter3"]


class TestPinnedSolves:
    """The array ladder reproduces the scalar ladder's solves to roundoff.
    Those solves kept a fixed window [-32, 32]; the sized ladder shares
    its entries with it, and the first recorded entry it drops on each
    side is below the bar."""

    @pytest.mark.parametrize("case", PINNED, ids=PINNED_IDS)
    def test_matches_recorded(self, case):
        state = solve_resonance(pinned_point(case))
        for key in ("z_d", "N_d", "K_d"):
            expect = complex(*case[key])
            assert abs(getattr(state, key) - expect) <= 1e-13 * abs(expect)
        N = state.R.size // 2
        assert state.ns.tolist() == list(range(-N, N + 1))
        center = -case["n_min"]  # recorded index of n = 0
        assert 0 < N < center
        for key in ("R", "L"):
            recorded = np.array([complex(*pair) for pair in case[key]])
            shared = recorded[center - N:center + N + 1]
            got = getattr(state, key)
            assert np.all(np.abs(got - shared) <= 1e-13 * np.abs(shared))
            dropped = recorded[[center - N - 1, center + N + 1]]
            assert np.all(np.abs(dropped / recorded[center])
                          < solver.LADDER_TOL)


#: Strong drives, past the reach of a 65-channel window: A/omega = 12
#: and 30 at the reference point, and A/omega = 8 at lambda = 0.05.
STRONG = [(1.0, 14.4, 1.2, 0.1), (1.0, 36.0, 1.2, 0.1), (1.0, 9.6, 1.2, 0.05)]


class TestLadderSizing:
    """The ladder the solver sizes against the same root folded to twice
    its half-width: the truncation is below rounding."""

    @pytest.mark.parametrize("params", [pinned_point(case) for case in PINNED]
                             + [make_model(*args) for args in STRONG],
                             ids=PINNED_IDS + ["A-over-omega-12",
                                               "A-over-omega-30", "weak-8"])
    def test_deeper_fold_moves_nothing(self, params):
        state = solve_resonance(params)
        N = state.R.size // 2
        deep, raw = deep_fold(state, 2 * N)
        for key in ("N_d", "K_d"):
            expect = getattr(deep, key)
            assert abs(getattr(state, key) - expect) <= 1e-13 * abs(expect)
        for key in ("R", "L"):
            shared = getattr(deep, key)[N:3 * N + 1]
            assert np.all(np.abs(getattr(state, key) - shared)
                          <= 1e-13 * np.abs(shared))
        # the first entry dropped on each side, before normalization
        assert np.all(np.abs(raw[[N - 1, 3 * N + 1]]) < solver.LADDER_TOL)
        assert np.array_equal(deep.second_sheet[N:3 * N + 1],
                              state.second_sheet)

    def test_strong_drive_sweep_solves_everywhere(self):
        # 60 drives A/omega on [0.5, 30]; a 65-channel window failed every
        # one from 12 up
        widths = []
        for ratio in np.linspace(0.5, 30.0, 60):
            state = solve_resonance(make_model(1.0, ratio * 1.2, 1.2, 0.1))
            assert state.residual < solver.ROOT_TOL
            assert abs(floquet_c_product(state, 0, 0) - 1.0) < 1e-8
            widths.append(state.R.size // 2)
        assert widths[0] < 20 and widths[-1] > 60

    def test_half_width_follows_the_bessel_bound(self, ref_params,
                                                 ref_state):
        # the table holds the first fold's levels, the bound's support
        # plus _LADDER_SLACK, and the ladder ends inside them
        support = bessel_support(ref_params.a_over_omega)
        rows = solver._rows(ref_params, ref_state.z_d)
        assert rows.keep == support + solver._LADDER_SLACK
        assert rows.ns.size // 2 == rows.keep + solver._LEVEL_MARGIN
        assert ref_state.R.size // 2 <= rows.keep


class TestDispersion:
    def test_decoupled_atom(self):
        p = make_model(1.0, 0.0, 1.2, 0.0)
        assert dispersion(p, 1.3 - 0.2j) == pytest.approx(0.3 - 0.2j)

    def test_root_residual_at_pole(self, ref_params, ref_state):
        assert abs(dispersion(ref_params, ref_state.z_d)) < 1e-12

    def test_no_drive_matches_secant_oracle(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        state = solve_resonance(p)

        def g(z):
            return z - p.epsilon_d \
                - p.lambda_ ** 2 * channel_sigma(p, 0, z, True)[0]

        z0, z1 = 1.0 - 0.05j, 0.95 - 0.1j
        f0, f1 = g(z0), g(z1)
        for _ in range(100):
            z2 = z1 - f1 * (z1 - z0) / (f1 - f0)
            z0, f0, z1, f1 = z1, f1, z2, g(z2)
            if abs(f1) < 1e-15:
                break
        assert abs(state.z_d - z1) < 1e-12


class TestSolveResonance:
    def test_zero_coupling_any_drive(self):
        state = solve_resonance(make_model(1.0, 2.4, 1.2, 0.0))
        assert abs(state.z_d - 1.0) < 1e-14

    @pytest.mark.parametrize("omega", [0.5, 1.0])
    def test_uncoupled_level_on_channel_edge(self, omega):
        # eps_d = 1 on the branch point of channel 2 (omega = 0.5) or 1
        # (omega = 1.0): the self-energy is undefined there, but at
        # lambda = 0 the level is not shifted at all
        state = solve_resonance(make_model(1.0, 1.0, omega, 0.0))
        assert state.z_d == complex(1.0, 0.0)
        assert state.iterations == 0
        assert state.N_d == 1.0

    @pytest.mark.parametrize("args", [
        (1.0, 1.2e4, 1.2, 0.1),      # A/omega = 1e4
        (1.0, 1.2e4, 1.2, 0.0),      # no seed sum: the row table's bound
        (1.0, 1e300, 1e-10, 0.1),    # A/omega overflows to inf
    ], ids=["strong", "strong-uncoupled", "non-finite-ratio"])
    def test_drive_past_the_bessel_bound_is_typed(self, args):
        with pytest.raises(ConvergenceError, match="overflows"):
            solve_resonance(make_model(*args))

    @pytest.mark.parametrize("view", ["read-only", "writable"])
    def test_state_owns_its_arrays(self, ref_state, view):
        # a state built from a ladder it did not copy, a read-only view of
        # a writable array included, keeps its values when that is written
        base = ref_state.R.copy()
        given = base.view()
        if view == "read-only":
            given.flags.writeable = False
        state = dataclasses.replace(ref_state, R=given)
        base[0] = 99
        assert not state.R.flags.writeable
        assert np.array_equal(state.R, ref_state.R)

    def test_every_field_is_a_measurement_of_the_solve(self, ref_state):
        # the one producer sets each field: none falls back on a default
        fields = dataclasses.fields(ref_state)
        assert [f.name for f in fields] == ["params", "z_d", "R", "N_d",
                                            "residual", "iterations",
                                            "cf_depth_used"]
        assert all(f.default is f.default_factory is dataclasses.MISSING
                   for f in fields)
        assert 0.0 <= ref_state.residual < solver.ROOT_TOL

    @pytest.mark.parametrize("name", ["L", "K_d", "second_sheet"])
    def test_derived_values_are_not_fields(self, ref_state, name):
        # L, K_d and the sheet mask follow from R, N_d and z_d: a copy
        # cannot be handed values that contradict them
        with pytest.raises(TypeError, match=f"'{name}'"):
            dataclasses.replace(ref_state, **{name: getattr(ref_state, name)})

    def test_rescaled_ladder_derives_from_its_R(self, ref_state):
        state = dataclasses.replace(ref_state, R=2.0 * ref_state.R)
        assert np.array_equal(state.L, 2.0 * ref_state.L)
        assert state.K_d == 2.0 * ref_state.K_d

    def test_reference_pole_decays(self, ref_state):
        assert ref_state.z_d.imag < 0.0
        assert 0.5 < ref_state.z_d.real < 1.0
        assert ref_state.residual < 1e-12

    def test_perturbative_consistency_scaling(self):
        lams, gaps = [0.02, 0.04, 0.08], []
        for lam in lams:
            p = make_model(1.0, 2.4, 1.2, lam)
            gaps.append(abs(solve_resonance(p).z_d - perturbative_eigenvalue(p)))
        slope = np.polyfit(np.log(lams), np.log(gaps), 1)[0]
        assert 3.7 <= slope <= 4.3

    def test_stability_under_doubled_depth_and_window(self, ref_params,
                                                      ref_state):
        # the ladder's bar squared widens the seed sum, the table and the
        # ladder; CF_TOL = 1e-15 deepens every fold
        wide = wide_solve(ref_params)
        assert wide.R.size > ref_state.R.size + 10
        assert wide.cf_depth_used > ref_state.cf_depth_used
        assert abs(wide.z_d - ref_state.z_d) < 1e-10

    # Newton alone leaves both unconverged after MAX_ITERATIONS steps;
    # the Muller fallback reaches the pole
    @pytest.mark.parametrize("eps_d, A, omega, lam, z_d", [
        (0.05830209908709483, 1.193989482114335, 0.33217818940552846,
         0.27355350124586025, complex(-1.86885040814507, -4.86698486249e-4)),
        (0.24796842397286145, 0.270930622467367, 0.13019467382966762,
         0.26962170228621696, complex(-1.00299621016011, 0.0)),
    ], ids=["21-iterations", "10-iterations"])
    def test_muller_fallback_converges(self, eps_d, A, omega, lam, z_d):
        p = make_model(eps_d, A, omega, lam)
        state = solve_resonance(p)
        assert state.residual < solver.ROOT_TOL
        assert state.z_d.imag <= 0.0
        assert abs(dispersion(p, state.z_d)) < solver.ROOT_TOL
        assert abs(state.z_d - z_d) < 1e-10

    def test_forced_first_sheet_has_no_decaying_root(self, ref_params,
                                                     monkeypatch):
        # the first sheet carries no decaying pole: the root search from
        # the perturbative seed over first-sheet rows fails, typed
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 40)
        with pytest.raises(ConvergenceError):
            solver._newton_muller(perturbative_eigenvalue(ref_params),
                                  first_sheet_rows(ref_params))

    @pytest.mark.parametrize("lam", [0.19, 0.2, 0.3])
    def test_iterate_leaving_frozen_sheet_is_typed(self, lam):
        # Newton iterates leave the continuation region of a frozen
        # second-sheet channel: a typed failure, not a ValueError
        with pytest.raises(ConvergenceError, match="second sheet undefined"):
            solve_resonance(make_model(1.0, 2.4, 1.2, lam))

    def test_roundoff_real_root_refolded_on_the_axis(self, monkeypatch):
        # a bound state (no channel open: omega > k_c - eps_d) whose Newton
        # root carries a roundoff positive imaginary part: the state is
        # built at the real point, from that point's own evaluation, and
        # its residual is |D| there, not at the lifted root
        p = make_model(0.5, 3.5, 7.0, 0.2)
        roots = []
        inner = solver._newton_muller

        def recording(*args):
            out = inner(*args)
            roots.append((out[0], out[1], args[1]))
            return out

        monkeypatch.setattr(solver, "_newton_muller", recording)
        state = solve_resonance(p)
        ((root, lifted_residual, rows),) = roots
        assert 0.0 < root.imag <= 1e-12
        assert state.z_d == complex(root.real, 0.0)
        D, _, _ = solver._fold_ladder(state.z_d, rows,
                                      solver._evaluate(state.z_d, rows))
        assert state.residual == abs(D) != lifted_residual
        assert not state.second_sheet.any()
        assert abs(dispersion(p, state.z_d)) < 1e-12
        res = ladder_row_residuals(p, state)
        assert np.max(np.abs(res)) < 1e-12
        assert abs(floquet_c_product(state, 0, 0) - 1.0) < 1e-12

    @staticmethod
    def passes(monkeypatch):
        """Iterations of each Newton pass of the solves that follow."""
        out = []
        inner = solver._newton_muller

        def recording(*args):
            root = inner(*args)
            out.append(root[2])
            return root

        monkeypatch.setattr(solver, "_newton_muller", recording)
        return out

    def test_undriven_solve_takes_one_pass(self, monkeypatch):
        # only channel 0 enters D without a drive: a flip of any other
        # channel between seed and root is no reason to refreeze
        passes = self.passes(monkeypatch)
        rng = np.random.default_rng(7)
        solved = 0
        for eps_d, omega, lam in rng.uniform([-1.0, 0.3, 0.0],
                                             [3.0, 3.0, 0.3], size=(200, 3)):
            passes.clear()
            try:
                state = solve_resonance(make_model(eps_d, 0.0, omega, lam))
            except ConvergenceError:
                continue
            solved += 1
            assert len(passes) == 1
            assert state.iterations == passes[0]
        assert solved >= 150

    def test_refreeze_counts_both_passes(self, monkeypatch):
        # the root reclassifies a channel of the seed's table: Newton runs
        # once more from the root, and the state counts both passes
        passes = self.passes(monkeypatch)
        state = solve_resonance(make_model(1.49, 0.75, 1.07, 0.13))
        assert len(passes) == 2 and passes[1] > 0
        assert state.iterations == sum(passes)

    def test_open_channel_sheet_map(self, ref_state):
        assert ref_state.ns[ref_state.second_sheet].tolist() == \
            [-4, -3, -2, -1, 0]

    def test_sheet_mask_past_the_row_table(self, ref_params, monkeypatch):
        # a ladder wider than the row table (its bar far below the Bessel
        # bound's): the mask comes from the rule over the whole ladder
        monkeypatch.setattr(solver, "LADDER_TOL", 1e-40)
        state = solve_resonance(ref_params)
        rows = solver._rows(ref_params, state.z_d)
        assert state.R.size // 2 > rows.ns.size // 2
        assert np.array_equal(state.second_sheet, second_sheet(
            ref_params, state.ns, state.z_d, at_z=True))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(eps_d=st.floats(0.5, 2.0), omega=st.floats(0.3, 2.0),
           a_over_omega=st.floats(0.0, 6.0), lam=st.floats(0.0, 0.3))
    def test_verified_pole_or_typed_failure(self, eps_d, omega,
                                            a_over_omega, lam):
        try:
            state = solve_resonance(
                make_model(eps_d, a_over_omega * omega, omega, lam))
        except ConvergenceError:
            return
        assert state.residual < solver.ROOT_TOL
        assert state.z_d.imag <= 0.0


#: The drive box of the pole-scatter benchmark: eps_d, omega, A/omega and
#: lambda drawn uniformly from these ranges.
DRIVE_BOX = ((0.8, 1.5), (0.8, 1.6), (0.5, 3.0), (0.02, 0.15))


class TestTypedFailures:
    """The guards of the root search and of the normalization, each forced
    at the reference point through a patched solver kernel."""

    @staticmethod
    def patch_root(monkeypatch, change):
        """Pass each Newton outcome (z, |D|, iterations, evaluation, R,
        depth) through ``change`` before the solve goes on with it."""
        inner = solver._newton_muller
        monkeypatch.setattr(solver, "_newton_muller",
                            lambda *args: change(*inner(*args)))

    @staticmethod
    def lifted(z, *rest):
        return (complex(z.real, 1e-9), *rest)

    @pytest.mark.parametrize("slope", [0.0, math.nan, math.inf])
    def test_bad_first_slope_nudges_the_seed(self, ref_params, ref_state,
                                             monkeypatch, slope):
        # a zero or non-finite D' before three iterates exist for a Muller
        # step: the iterate is nudged off the seed, and Newton goes on
        inner, seen = solver._dispersion, []

        def bad_first(z, rows, evaluation):
            D, Dp = inner(z, rows, evaluation)
            seen.append(z)
            return D, slope if len(seen) == 1 else Dp

        monkeypatch.setattr(solver, "_dispersion", bad_first)
        state = solve_resonance(ref_params)
        assert seen[1] == seen[0] * (1.0 + 1e-9) + 1e-9j
        assert abs(state.z_d - ref_state.z_d) < 1e-12

    def test_non_finite_step_is_typed(self, ref_params, monkeypatch):
        # a slope so small that D/D' overflows
        inner = solver._dispersion
        monkeypatch.setattr(solver, "_dispersion",
                            lambda *args: (inner(*args)[0], 5e-324))
        with pytest.raises(ConvergenceError, match="^root iteration produced "
                           "a non-finite step at iteration 1$"):
            solve_resonance(ref_params)

    def test_root_above_the_axis_is_typed(self, ref_params, monkeypatch):
        self.patch_root(monkeypatch, self.lifted)
        with pytest.raises(ConvergenceError, match=r"^root \(.*\) has "
                           "positive imaginary part: sheet selection fault$"):
            solve_resonance(ref_params)

    def test_cli_exits_2_on_a_typed_failure(self, tmp_path, capsys,
                                            monkeypatch):
        self.patch_root(monkeypatch, self.lifted)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"epsilon_d": 1.0, "omega": 1.2,
                                        "A_over_omega": 2.0, "lambda": 0.1}))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("non-convergence: root (")
        assert "positive imaginary part" in err

    def test_vanishing_ladder_product_is_typed(self, ref_params,
                                               monkeypatch):
        self.patch_root(monkeypatch, lambda *out: (*out[:4], 0.0 * out[4],
                                                   out[5]))
        with pytest.raises(ConvergenceError, match=r"^vanishing ladder "
                           r"c-product \(exceptional point\); not "
                           "regularized$"):
            solve_resonance(ref_params)

    def test_vanishing_norm_is_typed(self, ref_params, monkeypatch):
        # every channel's continuum part -lambda^2 Sigma' set to -1 cancels
        # the ladder's own pairing slot by slot
        def unit_continuum(z, D, it, evaluation, R, depth):
            ls0, _, wings = evaluation
            ones = tuple((d, [1.0] * len(dp)) for d, dp in wings)
            return z, D, it, (ls0, 1.0, ones), R, depth

        self.patch_root(monkeypatch, unit_continuum)
        with pytest.raises(ConvergenceError, match=r"^vanishing biorthonormal "
                           r"norm \(exceptional point\); not regularized$"):
            solve_resonance(ref_params)


class TestDriveBox:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_verified_pole_or_typed_failure(self, seed):
        # 200 seeded points over the benchmark box: a verified,
        # normalized pole with L_n = (-1)^n R_n, or a ConvergenceError,
        # never another exception
        rng = np.random.default_rng(seed)
        solved = 0
        for eps_d, omega, a_over_omega, lam in rng.uniform(
                *np.array(DRIVE_BOX).T, size=(100, 4)):
            try:
                state = solve_resonance(make_model(
                    eps_d, a_over_omega * omega, omega, lam))
            except ConvergenceError:
                continue
            solved += 1
            assert state.residual < solver.ROOT_TOL
            assert state.z_d.imag <= 0.0
            assert abs(floquet_c_product(state, 0, 0) - 1.0) < 1e-8
            R = state.R
            assert np.array_equal(state.L, np.where(state.ns % 2, -R, R))
        assert solved >= 90


class TestLadderCoefficients:
    def test_no_drive_is_single_slot(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        state = solve_resonance(p)
        unit = (state.ns == 0).astype(complex)
        assert np.array_equal(state.R, unit)
        assert np.array_equal(state.L, unit)

    def test_ladder_folds_each_wing_once_per_evaluation(self, ref_params,
                                                        monkeypatch):
        # each evaluation of the root search folds both wings once: the
        # iterates as deep as D needs, the root (its landing predicted)
        # keeping its ladder's levels, and nothing is folded after it
        calls = {"_evaluate": 0, "_chain_adaptive": 0, "_fold_ladder": 0}

        def counting(name):
            inner = getattr(solver, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(solver, name, counting(name))
        solve_resonance(ref_params)
        assert calls["_evaluate"] > 1 and calls["_fold_ladder"] == 1
        assert calls["_chain_adaptive"] == 2 * calls["_evaluate"]

    def test_no_rows_built_after_the_root(self, ref_params, monkeypatch):
        # the root fold, the ladders and the norm read the root's own
        # evaluation: after it no channel-row table is built and no
        # self-energy is evaluated; before it, the seed's table and the
        # solve's table, each evaluated once per use
        events = []
        init, sigma = self_energy.ChannelRows.__init__, \
            self_energy.ChannelRows.sigma
        evaluate = solver._evaluate

        def recording(name, inner):
            def wrapper(*args, **kwargs):
                events.append(name)
                return inner(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(self_energy.ChannelRows, "__init__",
                            recording("rows", init))
        monkeypatch.setattr(self_energy.ChannelRows, "sigma",
                            recording("sigma", sigma))
        monkeypatch.setattr(solver, "_evaluate",
                            recording("evaluation", evaluate))
        state = solve_resonance(ref_params)
        root = len(events) - events[::-1].index("evaluation")
        assert events[root:] == ["sigma"]  # the root's own evaluation
        assert events.count("rows") == 2
        assert events.count("sigma") == events.count("evaluation") + 1
        assert abs(floquet_c_product(state, 0, 0) - 1.0) < 1e-8

    def test_recurrence_row_residuals(self, ref_params, ref_state):
        res = ladder_row_residuals(ref_params, ref_state)[1:-1]
        assert np.max(np.abs(res)) < 1e-10 * abs(ref_state.z_d)

    def test_left_is_alternating_right(self, ref_params, ref_state):
        R = ref_state.R
        assert np.array_equal(ref_state.L, np.where(ref_state.ns % 2, -R, R))

    def test_left_right_match_dense_eigenvectors(self, ref_params,
                                                 ref_state):
        # independent oracle: eigenvectors of the dense ladder with the
        # self-energies frozen at the converged pole
        z = ref_state.z_d
        n_tr = 20
        H = dense_effective_matrix(ref_params, z, n_tr)
        vals, vecs = np.linalg.eig(H)
        idx = int(np.argmin(np.abs(vals - z)))
        assert abs(vals[idx] - z) < 1e-12
        # the dense entries past the state's ladder are below its bar
        N = ref_state.R.size // 2
        rows = slice(n_tr - N, n_tr + N + 1)
        v = vecs[rows, idx]
        r = ref_state.R
        cos = abs(np.vdot(v, r)) / (np.linalg.norm(v) * np.linalg.norm(r))
        assert 1.0 - cos < 1e-12
        vals_t, vecs_t = np.linalg.eig(H.T)
        idx_t = int(np.argmin(np.abs(vals_t - z)))
        w = vecs_t[rows, idx_t]
        l = ref_state.L
        cos_l = abs(np.vdot(w, l)) / (np.linalg.norm(w) * np.linalg.norm(l))
        assert 1.0 - cos_l < 1e-12

    def test_weak_coupling_tracks_bessel_ordering(self):
        p = make_model(1.0, 2.4, 1.2, 0.02)
        state = solve_resonance(p)
        rows = np.abs(state.ns) <= 5
        got = state.ns[rows][np.argsort(-np.abs(state.R[rows]),
                                        kind="stable")]
        expect = sorted(range(-5, 6), key=lambda n: -abs(bessel_j(n, 2.0)))
        assert got.tolist() == expect

    def test_edge_decay_invariant(self, ref_state):
        # the ladder ends at rounding level: its longer wing's last entry
        # is at or above the bar, relative to the center
        R, center = ref_state.R, ref_state.R.size // 2  # ns[center] == 0
        edge = max(abs(R[0]), abs(R[-1])) / abs(R[center])
        assert solver.LADDER_TOL <= edge < 1e-15

    def test_window_too_small_rejected(self, ref_params, monkeypatch):
        # no window cuts a ladder: a column whose wing is still above the
        # bar at half of CF_MAX_DEPTH levels fails, typed
        monkeypatch.setattr(solver, "LADDER_TOL", 1e-200)
        monkeypatch.setattr(solver, "CF_MAX_DEPTH", 100)
        with pytest.raises(ConvergenceError,
                           match="ladder not below 1e-200 within 50 levels"):
            resolvent_column(ref_params, Z_PROBE)


def seeded_box_points(seed, n):
    """``n`` points of the pole-scatter box, drawn as its benchmark draws
    them (one uniform column per axis, in the box's order)."""
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(lo, hi, n) for lo, hi in DRIVE_BOX]
    return [make_model(eps_d, ratio * omega, omega, lam)
            for eps_d, omega, ratio, lam in zip(*cols)]


class TestFusedRootFold:
    """A Newton step predicted to land has its iterate checked by the
    root's ladder fold: that fold is the state's, bit for bit."""

    @staticmethod
    def same_state(a, b):
        return a.z_d == b.z_d and a.N_d == b.N_d and a.K_d == b.K_d \
            and a.cf_depth_used == b.cf_depth_used \
            and a.iterations == b.iterations \
            and np.array_equal(a.R, b.R) and np.array_equal(a.L, b.L) \
            and np.array_equal(a.second_sheet, b.second_sheet)

    def test_matches_a_fold_rerun_at_the_root(self, monkeypatch):
        # the state built from the fused fold against the state built from
        # _fold_ladder rerun over a fresh evaluation at the returned root
        inner, fused, rerun = solver._newton_muller, [], []

        def refolded(seed, rows):
            z, residual, it, _, R, depth = inner(seed, rows)
            evaluation = solver._evaluate(z, rows)
            _, R_again, depth_again = solver._fold_ladder(z, rows,
                                                          evaluation)
            assert np.array_equal(R, R_again) and depth == depth_again
            return z, residual, it, evaluation, R_again, depth_again

        points = [pinned_point(case) for case in PINNED] \
            + seeded_box_points(3, 200)
        for params in points:
            try:
                fused.append(solve_resonance(params))
            except ConvergenceError as exc:
                fused.append(str(exc))
        monkeypatch.setattr(solver, "_newton_muller", refolded)
        for params in points:
            try:
                rerun.append(solve_resonance(params))
            except ConvergenceError as exc:
                rerun.append(str(exc))
        solved = [(a, b) for a, b in zip(fused, rerun) if not isinstance(a, str)]
        assert len(solved) >= 190
        assert all(self.same_state(a, b) for a, b in solved)
        assert [a for a in fused if isinstance(a, str)] == \
            [b for b in rerun if isinstance(b, str)]

    def test_missed_landing_returns_the_same_pole(self, ref_params,
                                                  monkeypatch):
        # every Newton step predicted to land: the iterates before the
        # root miss, each reads its slope over the fold's diagonals, and
        # the root and its state are those of the default solve
        state = solve_resonance(ref_params)
        folds, inner = [], solver._fold_ladder

        def recording(*args):
            out = inner(*args)
            folds.append(abs(out[0]) < solver.ROOT_TOL)
            return out

        monkeypatch.setattr(solver, "_fold_ladder", recording)
        monkeypatch.setattr(solver, "_LANDING_STEP", math.inf)
        missed = solve_resonance(ref_params)
        assert folds[-1] and not any(folds[:-1]) and len(folds) >= 2
        assert self.same_state(missed, state)
        assert missed.residual == state.residual


class TestResolventColumn:
    @staticmethod
    def dense_column(params, z, window, sheets=None, n_tr=40):
        # independent oracle: column 0 of (z - H(z))^{-1} for the dense
        # ladder with the self-energies at z, on n in [-window, window]
        H = dense_effective_matrix(params, z, n_tr, sheets=sheets)
        unit = np.zeros(2 * n_tr + 1, dtype=complex)
        unit[n_tr] = 1.0
        g = np.linalg.solve(z * np.eye(2 * n_tr + 1) - H, unit)
        return g[n_tr - window:n_tr + window + 1]

    @pytest.mark.parametrize("z", [complex(0.7, 0.25), complex(-3.0, 0.25),
                                   Z_PROBE])
    def test_matches_dense_inverse(self, ref_params, z):
        G = resolvent_column(ref_params, z)
        N = G.size // 2
        g = self.dense_column(ref_params, z, N)
        assert 10 < N < 30
        assert np.max(np.abs(G - g)) < 1e-12 * abs(g[N])

    def test_first_sheet_policy(self, ref_params):
        G = resolvent_column(ref_params, Z_PROBE,
                             rows=first_sheet_rows(ref_params))
        N = G.size // 2
        g = self.dense_column(ref_params, Z_PROBE, N, sheets=lambda n: False)
        assert np.max(np.abs(G - g)) < 1e-12 * abs(g[N])
        # the lower half-plane sees the open channels on the second sheet
        auto = resolvent_column(ref_params, Z_PROBE)
        assert abs(G[N] - auto[auto.size // 2]) > 1e-3 * abs(g[N])


class TestNormalization:
    def test_zero_coupling_norm_is_unity(self):
        state = solve_resonance(make_model(1.0, 2.4, 1.2, 0.0))
        assert state.N_d == pytest.approx(1.0, abs=1e-12)

    def test_single_slot_emission_constant(self):
        state = solve_resonance(make_model(1.0, 0.0, 1.2, 0.0))
        assert state.K_d == pytest.approx(1.0 / (2 * math.pi), abs=1e-14)

    def test_no_drive_friedrichs_norm(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        state = solve_resonance(p)
        expect = 1.0 / (1.0 - p.lambda_ ** 2
                        * channel_sigma(p, 0, state.z_d, True)[1])
        assert state.N_d == pytest.approx(expect, rel=1e-12)

    def test_phase_tie_break(self, ref_state):
        assert ref_state.R[ref_state.ns == 0][0].real > 0.0

    def test_full_space_c_product_is_unity(self, ref_state):
        assert abs(floquet_c_product(ref_state, 0, 0) - 1.0) < 1e-8

    def test_mode_biorthonormality(self, ref_state):
        for m in range(-2, 3):
            for mp in range(-2, 3):
                val = floquet_c_product(ref_state, m, mp)
                expect = 1.0 if m == mp else 0.0
                assert abs(val - expect) < 1e-8

    def test_ladder_product_against_discretized_modes(self, ref_params,
                                                      ref_state):
        # channel-pairing validation: the straight mode sums of the
        # box-discretized system must reproduce the ladder norm assembled
        # from straight-contour (first-sheet) self-energy derivatives; each
        # of the box's k > 0 modes counts for its mirrored pair
        system = discretize(ref_params)
        lam2 = ref_params.lambda_ ** 2
        eps = system.k
        disc, ana = 0j, 0j
        for n, l, r in zip(ref_state.ns.tolist(), ref_state.L, ref_state.R):
            w = l * r
            if w == 0.0:
                continue
            zeta = ref_state.z_d - n * ref_params.omega
            disc += w * (1.0 + 2.0 * lam2 * np.sum(system.V ** 2
                                                   / (zeta - eps) ** 2))
            ana += w * (1.0 - lam2 * channel_sigma(ref_params, n,
                                                   ref_state.z_d)[1])
        assert abs(disc - ana) / abs(ana) < 1e-3


class TestShiftMode:
    def test_identity(self, ref_state):
        assert shift_mode(ref_state, 0) is ref_state

    def test_single_shift(self, ref_params, ref_state):
        shifted = shift_mode(ref_state, 1)
        assert shifted.z_d == ref_state.z_d + ref_params.omega
        assert np.array_equal(shifted.ns, ref_state.ns + 1)
        assert np.array_equal(shifted.R, ref_state.R)
        assert shifted.R[shifted.ns == 1] == ref_state.R[ref_state.ns == 0]
        assert shifted.N_d == ref_state.N_d

    @pytest.mark.parametrize("m", [1, -2])
    def test_shifted_pole_still_solves_dispersion(self, ref_params,
                                                  ref_state, m):
        z = ref_state.z_d + m * ref_params.omega
        assert abs(dispersion(ref_params, z)) < 1e-10

    def test_sheets_shift_with_ladder(self, ref_params, ref_state):
        shifted = shift_mode(ref_state, 1)
        assert np.array_equal(shifted.second_sheet, ref_state.second_sheet)
        assert shifted.ns[shifted.second_sheet].tolist() == [-3, -2, -1, 0, 1]

    @pytest.mark.parametrize("m", [1, -2])
    def test_sheets_are_the_rule_at_the_shifted_pole(self, ref_params,
                                                     ref_state, m):
        # the copy is handed its pole and mode only; the state selects
        # its sheets by the rule at the shifted pole
        shifted = shift_mode(ref_state, m)
        handed = [f.name for f in dataclasses.fields(shifted)
                  if not np.array_equal(getattr(shifted, f.name),
                                        getattr(ref_state, f.name, None))]
        assert handed == ["z_d", "mode"]
        assert type(shifted).second_sheet is ResonanceState.second_sheet
        assert np.array_equal(shifted.second_sheet, second_sheet(
            ref_params, ref_state.ns + m, ref_state.z_d + m * ref_params.omega,
            at_z=True))


class TestDenseTruncated:
    def test_no_drive_is_diagonal(self):
        p = make_model(1.0, 0.0, 1.2, 0.1)
        rep = dense_truncated_check(p, Z_PROBE, 8)
        expect = p.epsilon_d + p.lambda_ ** 2 * channel_sigma(
            p, 0, Z_PROBE, True)[0]
        assert abs(rep.z_dense - expect) < 1e-12

    def test_truncation_convergence(self, ref_params):
        a = dense_truncated_check(ref_params, Z_PROBE, 24)
        b = dense_truncated_check(ref_params, Z_PROBE, 48)
        assert abs(a.z_dense - b.z_dense) < 1e-10
        assert a.eigenvalue_gap < 1e-10
        assert a.eigvec_cos_distance < 1e-10

    def test_gauge_invariance(self, ref_params):
        assert dense_gauge_gap(ref_params, Z_PROBE, 16) < 1e-12

    def test_minimum_size_enforced(self, ref_params):
        with pytest.raises(ValueError, match="n_tr"):
            dense_truncated_check(ref_params, Z_PROBE, 2)
