"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line; where ``compare`` has the readout, it is read there.

Figure-reproduction runs use epsilon_d = 1.0, omega = 1.2, A/omega = 2.0,
k_c = 2*pi, t = 20, lambda = 0.1 (recorded in all output metadata).  At
this coupling the dimensionless coupling lambda^2 * |Sigma| ~ 0.3 puts the
continuum background and the ladder dressing at the several-percent scale,
so the figure-run criteria check the complete objects: the survival
amplitude with its branch-cut background (7), the dressed line weights
|R_{-m}/R_0|^2 (8b) and the retarded field of the emitter's own history
beyond the light front (9b).  The weak-coupling companions at
lambda = 0.05 carry the pole-only survival amplitude and the
squared-Bessel line-weight law, which are the lambda -> 0 limits of those
objects.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

import floquet_hhg
from floquet_hhg import compare, discretize, evolve, \
    hhg_spectrum, make_model, perturbative_eigenvalue, photon_spectrum, \
    resonance_spatial_field, solve_resonance, spatial_field, \
    survival_amplitude_complete, survival_amplitude_floquet, \
    survival_probability
from floquet_hhg.perturbation import bessel_j

from continuum import continuum_amplitude
from dense_ladder import dense_gauge_gap
from quadrature import quadrature_reference
from sigma_reference import channel_sigma
from solver_views import dispersion, wide_solve


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def verdict(result, prefix: str, tolerance: float | None = None):
    """(worst value, tolerance, all passed) of the ``compare`` report rows
    named ``prefix``*, whose one tolerance must equal ``tolerance``."""
    rows = [c for c in result.checks if c.name.startswith(prefix)]
    assert rows and len({c.tolerance for c in rows}) == 1
    assert tolerance in (None, rows[0].tolerance)
    return (max(c.value for c in rows), rows[0].tolerance,
            all(c.passed for c in rows))


@pytest.fixture(scope="module")
def system(ref_params):
    return discretize(ref_params)


@pytest.fixture(scope="module")
def traj20(system):
    # every 10th step: the sample times of the per-time readouts
    traj = evolve(system, t_end=20.0, dt=1e-3)
    return dataclasses.replace(traj, times=traj.times[::10],
                               psi_d=traj.psi_d[::10])


@pytest.fixture(scope="module")
def spectrum_run(ref_params, ref_state):
    # finer momentum grid and a longer run so the line spectrum is read
    # after decay (survival ~ 1e-4 at t = 30)
    fine = discretize(ref_params, box_length=800.0, n_modes=16384)
    traj = evolve(fine, t_end=30.0, dt=1e-3)
    s, warning = photon_spectrum(fine, traj.final)
    assert warning is None
    k = fine.k
    mask = np.abs(k) < ref_params.k_c
    # complex photon amplitude with the free phase exp(-i|k|t) removed
    amp = traj.final.psi_k * np.exp(1j * np.abs(k) * traj.final.t)
    analytic = hhg_spectrum(ref_state, k[mask])
    return (k[mask], amp[mask]), analytic, compare(
        ref_state, spectrum=(k[mask], analytic.total, s[mask]))


@pytest.fixture(scope="module")
def weak_report():
    """``compare``'s pole-only survival and spectrum checks at
    lambda = 0.05."""
    params = make_model(1.0, 2.4, 1.2, 0.05)
    state = solve_resonance(params)
    sys_w = discretize(params)
    traj = evolve(sys_w, t_end=100.0, dt=1e-3)
    times, p_oracle = traj.times[::10], survival_probability(traj)[::10]
    s, warning = photon_spectrum(sys_w, traj.final)
    assert warning is None
    k = sys_w.k
    mask = np.abs(k) < params.k_c
    analytic = hhg_spectrum(state, k[mask])
    p_floquet = np.abs(survival_amplitude_floquet(state, times)) ** 2
    return compare(state, survival=(times, p_floquet, p_oracle),
                   spectrum=(k[mask], analytic.total, s[mask]))


def projected_line_weights(state, k, amp, channels=range(-8, 9)):
    """Line weights |a_{-m}/a_0|^2 of a photon amplitude, read by least
    squares on the pole lines v_k/(zeta_n - |k|) of every channel n in
    the window, open and closed; returns (weights by m, relative
    residual of the fit)."""
    n = np.array(list(channels))
    eps_k = np.abs(k)
    zeta = state.z_d - n * state.params.omega
    basis = np.sqrt(2.0 * eps_k)[:, None] / (zeta[None, :] - eps_k[:, None])
    coeffs, *_ = np.linalg.lstsq(basis, amp, rcond=None)
    residual = float(np.linalg.norm(basis @ coeffs - amp)
                     / np.linalg.norm(amp))
    a = dict(zip(n.tolist(), coeffs))
    weights = {-c: abs(a[c]) ** 2 / abs(a[0]) ** 2 for c in a if c <= 0}
    return weights, residual


def test_criterion_1_self_energy_quadrature(ref_params):
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.uniform(-8.0, 10.0),
                    rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3.0, 0.7))
        ref = quadrature_reference(ref_params, 0, z)
        val = channel_sigma(ref_params, 0, z)[0]
        worst = max(worst, abs(val - ref) / abs(ref))
    gaps = []
    for d in (1e-3, 1e-5, 1e-7):
        above = channel_sigma(ref_params, 0, complex(1.0, d))[0]
        below = channel_sigma(ref_params, 0, complex(1.0, -d), True)[0]
        gaps.append(abs(above - below))
    shrinking = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1e-4
    ok = worst < 1e-8 and shrinking
    report("1 (self-energy)", ok,
           f"worst closed-form vs quadrature rel err {worst:.2e} over 100 z; "
           f"cut-continuity gaps {gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e}")
    assert worst < 1e-8
    assert shrinking


def test_criterion_2_plemelj_limit(ref_params):
    target = -4.0 * math.pi * 1.0
    vals = [channel_sigma(ref_params, 0, complex(1.0, d))[0].imag
            for d in (1e-3, 1e-5, 1e-7)]
    errs = [abs(v - target) for v in vals]
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 1e-4
    report("2 (Plemelj limit)", ok,
           f"Im Sigma(1+i*1e-7) = {vals[2]:.8f} vs -4*pi = {target:.8f} "
           f"(err {errs[2]:.2e})")
    assert ok


def test_criterion_3_dispersion_root_quality(ref_params, ref_state):
    residual = abs(dispersion(ref_params, ref_state.z_d))
    wide = wide_solve(ref_params)
    drift = abs(wide.z_d - ref_state.z_d)
    ok = residual < 1e-12 and drift < 1e-10
    report("3 (root quality)", ok,
           f"|D(z_d)| = {residual:.2e}; drift under deeper folds and ladder "
           f"{drift:.2e}")
    assert ok


def test_criterion_4_perturbative_scaling():
    lams = [0.02, 0.04, 0.08]
    gaps = []
    for lam in lams:
        p = make_model(1.0, 2.4, 1.2, lam)
        gaps.append(abs(solve_resonance(p).z_d - perturbative_eigenvalue(p)))
    slope = float(np.polyfit(np.log(lams), np.log(gaps), 1)[0])
    ok = 3.7 <= slope <= 4.3
    report("4 (lambda scaling)", ok, f"log-log slope {slope:.3f} (target 4±0.3)")
    assert ok


def test_criterion_5_gauge_invariance(ref_params):
    gap = max(dense_gauge_gap(ref_params, complex(1.0, -0.05), n)
              for n in (16, 24))
    ok = gap < 1e-12
    report("5 (gauge invariance)", ok, f"dense spectra gap {gap:.2e}")
    assert ok


def test_criterion_6_no_drive_reduction():
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
    gap = abs(state.z_d - z1)
    ok = gap < 1e-12
    report("6 (no-drive reduction)", ok,
           f"ladder solver vs scalar secant root gap {gap:.2e}")
    assert ok


def test_criterion_7_survival_oracle_equivalence(ref_state, traj20):
    times, p_oracle = traj20.times, survival_probability(traj20)
    complete = survival_amplitude_complete(ref_state.params, times)
    # the memory equation shares the continuum, not the box: what this
    # gap leaves of the residual is the box's
    reference = continuum_amplitude(ref_state.params, times[-1])[1]
    gap = np.max(np.abs(complete - reference))
    (worst, tol, ok), (pole_worst, _, _) = [verdict(compare(
        ref_state, survival=(times, np.abs(amp) ** 2, p_oracle)),
        "survival_max_rel_dev", 0.05)
        for amp in (complete, survival_amplitude_floquet(ref_state, times))]
    report("7 (survival vs integrator)", ok,
           f"complete amplitude: max rel dev {worst:.4f} on [1,20] "
           f"(tolerance {tol}), |c(0)|^2 = {abs(complete[0]) ** 2:.7f}, "
           f"max |c - c_continuum| {gap:.1e}; "
           f"pole-only amplitude: {pole_worst:.4f}, |c(0)|^2 = "
           f"{abs(survival_amplitude_floquet(ref_state, 0.0)) ** 2:.4f}")
    assert ok


def test_criterion_8_spectrum_peak_positions(spectrum_run):
    worst, tol, ok = verdict(spectrum_run[2], "spectrum_peak_position_",
                             0.05)
    report("8a (spectrum peak positions)", ok,
           f"worst |peak - (Re z_d + m*omega)| = {worst:.4f} for m=0..3 on "
           f"both spectra (tolerance {tol})")
    assert ok


def test_criterion_8_peak_height_ratios(ref_params, ref_state,
                                        spectrum_run):
    # the line weights at lambda = 0.1 are the dressed |R_{-m}/R_0|^2; the
    # squared-Bessel law is their lambda -> 0 limit (checked by the
    # lambda = 0.05 companion) and is reported here only
    (k_o, amp_o), analytic, _ = spectrum_run
    weights, residual = projected_line_weights(ref_state, k_o, amp_o)
    density = analytic.diagonal[np.searchsorted(analytic.modes, range(4))] \
        / (2.0 * np.abs(k_o))
    x = abs(ref_params.a_over_omega)
    j0 = bessel_j(0, x) ** 2
    worst = 0.0
    details = []
    for m in range(1, 4):
        component = float(np.max(density[m]) / np.max(density[0]))
        dev = abs(weights[m] - component) / component
        worst = max(worst, dev)
        bessel = bessel_j(m, x) ** 2 / j0
        details.append(f"m={m}: integrator {weights[m]:.4f} vs components "
                       f"{component:.4f} (dev {dev:.4f}; Bessel "
                       f"{bessel:.4f}, off by "
                       f"{(component - bessel) / bessel:+.3f})")
    # the readout itself must hold: with the open channels n = -4..0
    # alone the basis leaves a 9.8% residual and weights 68% too high
    ok = worst <= 0.20 and residual < 0.05
    report("8b (line weights: integrator vs per-mode components)", ok,
           f"worst rel dev {worst:.4f} (tolerance 0.20); "
           f"{'; '.join(details)}; projection residual {residual:.4f} "
           f"(tolerance 0.05)")
    assert residual < 0.05
    assert worst <= 0.20


@pytest.fixture(scope="module")
def field_run(ref_state, system, traj20):
    # compare's report: pulse maxima, interference beat, diagonal slopes
    x = np.linspace(-30.0, 30.0, 1201)
    amp_oracle = spatial_field(system, traj20.final, x)
    f_oracle = np.abs(amp_oracle) ** 2
    f_floquet = resonance_spatial_field(ref_state, x, 20.0).total
    checks = compare(ref_state, field=(x, 20.0, f_floquet, f_oracle))
    return x, f_oracle, amp_oracle, checks


def test_criterion_9_field_pulse_match(field_run):
    *_, checks = field_run
    worst, tol, ok = verdict(checks, "field_max_rel_dev", 0.10)
    report("9a (resonance field vs integrator at pulse maxima)", ok,
           f"worst rel dev {worst:.4f} over the pulse maxima in |x|<=18 "
           f"(tolerance {tol}; calibration scalar "
           f"{checks.calibration:.4f})")
    assert ok


def retarded_field(params, times, psi_d, x):
    """Field radiated by the emitter history psi_d(s), carried at c = 1
    through the continuum coupling profile sqrt(4*pi*|k|):

        f(x, t) = -i*lambda * integral_0^t psi_d(s)
                  * [G(x - (t - s)) + G(-(x + t - s))] ds,
        G(y) = (1/2pi) * integral_0^{k_c} sqrt(4*pi*k) * exp(i*k*y) dk,

    with t = times[-1], the time integral by the trapezoidal rule on the
    samples and the k integral by Gauss-Legendre in u = sqrt(k)."""
    u, wu = np.polynomial.legendre.leggauss(200)
    u_max = math.sqrt(params.k_c)
    u, wu = 0.5 * u_max * (u + 1.0), 0.5 * u_max * wu
    k, wk = u ** 2, 2.0 * u * wu
    history = trapezoid(
        psi_d * np.exp(-1j * np.outer(k, times[-1] - times)), times, axis=1)
    g = wk * np.sqrt(4.0 * math.pi * k) / (2.0 * math.pi) * history
    return -1j * params.lambda_ * (2.0 * np.cos(np.outer(x, k)) @ g)


@pytest.mark.parametrize("t", [5.0, 20.0])
def test_pole_field_is_the_transform_of_the_pole_history(ref_params,
                                                         ref_state, t):
    # inside the light front the closed-form pole field is the field the
    # pole part of the emitter's history radiates; this pins its
    # prefactor, which compare's calibrated pulse check cannot see
    x = np.linspace(-30.0, 30.0, 1201)
    times = np.linspace(0.0, t, round(t / 1e-2) + 1)
    history = survival_amplitude_floquet(ref_state, times)
    f_ret = np.abs(retarded_field(ref_params, times, history, x)) ** 2
    pole = resonance_spatial_field(ref_state, x, t).total
    inside = (np.abs(x) >= 2.0) & (np.abs(x) <= t - 1.0)
    dev = np.max(np.abs(pole - f_ret)[inside]) / np.max(f_ret[inside])
    assert dev < 0.2


def test_criterion_9_causality_outside_front(ref_params, traj20, field_run):
    # the band-limited field (|k| < k_c) with coupling profile sqrt(|k|)
    # cannot vanish on a half-line (Paley-Wiener): the coupling's own
    # spatial spread rides ahead of the front, so beyond it the
    # integrator must carry exactly the retarded field of its history
    x, f_oracle, amp_oracle, _ = field_run
    outside = np.abs(x) > 22.0
    f_ret = retarded_field(ref_params, traj20.times, traj20.psi_d, x)
    peak = float(np.max(f_oracle))
    gap = np.abs(amp_oracle - f_ret)[outside]
    dev = float(np.max(gap ** 2)) / peak
    leak = float(np.max(f_oracle[outside])) / peak
    # the bound is on intensity; as an amplitude it is a fraction of the tail
    tail_rel = float(np.max(gap) / np.max(np.abs(amp_oracle[outside])))
    ok = dev < 1e-4
    report("9b (integrator field beyond the light front)", ok,
           f"max |f - f_ret|^2 (|x|>22) / max F = {dev:.2e} (tolerance "
           f"1e-4); max |f - f_ret| / max |f| on |x|>22 = {tail_rel:.3f}; "
           f"raw leak max F(|x|>22)/max F = {leak:.2e}, the "
           f"coupling's spatial spread ahead of the front")
    assert ok


def test_criterion_9_interference_beat(ref_params, field_run):
    *_, checks = field_run
    # the tolerance is one frequency bin of the span
    dev, bin_width, ok = verdict(checks, "beat_frequency_dev")
    report("9c (interference beat period)", ok,
           f"|dominant spatial beat - omega| = {dev:.4f}, omega = "
           f"{ref_params.omega} (one bin = {bin_width:.4f})")
    assert ok


def test_criterion_9_diagonal_slope(ref_state, field_run):
    *_, checks = field_run
    worst, tol, ok = verdict(checks, "diagonal_log_slope_rel_dev", 0.01)
    report("9d (diagonal-term growth rate)", ok,
           f"worst log-slope rel dev {worst:.2e} vs 2|Im z_d| = "
           f"{2.0 * abs(ref_state.z_d.imag):.6f} (tolerance {tol})")
    assert ok


def test_criterion_10_determinism(tmp_path):
    config = {"epsilon_d": 1.0, "omega": 1.2, "A_over_omega": 2.0,
              "lambda": 0.1,
              "k_grid": {"min": -6.0, "max": 6.0, "count": 301},
              "x_grid": {"min": -25.0, "max": 25.0, "count": 301}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    evolved = ("survival", "photon_spectrum", "field")
    # product: (command, overrides, datasets); the fine box is the
    # benchmark's evolve call, whose step and projection run on BLAS
    products = {"spectrum": ("spectrum", [], ("spectrum",)),
                "spatial": ("spatial", [], ("spatial",)),
                "evolve": ("evolve", [], evolved),
                "evolve_fine": ("evolve", ["box_length=800", "n_modes=16384",
                                           "t=5", "t_end=5"], evolved)}
    # the subprocesses import the package this suite imports
    src = str(Path(floquet_hhg.__file__).resolve().parents[1])
    digests = {}
    for product, (command, overrides, names) in products.items():
        runs = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{product}_{tag}"
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [
                           src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run(
                [sys.executable, "-m", "floquet_hhg", command,
                 "--config", str(cfg_path), "--out", str(out)]
                + [arg for o in overrides for arg in ("--override", o)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            runs.append([(out / f"{name}{suffix}").read_bytes()
                         for name in names
                         for suffix in (".csv", ".csv.meta.json")])
        digests[product] = runs[0] == runs[1]
    ok = all(digests.values())
    report("10 (determinism)", ok,
           f"byte-identical CSVs and sidecars across runs and thread counts: "
           f"{digests}")
    assert ok


class TestWeakCouplingCompanions:
    """The pole-dominance claims behind criteria 7 and 8b, demonstrated in
    the weak-coupling regime the Bessel-weight law describes."""

    def test_survival_within_5pct(self, weak_report):
        worst, tol, ok = verdict(weak_report, "survival_max_rel_dev", 0.05)
        report("7-companion (survival, lambda=0.05)", ok,
               f"max rel dev {worst:.4f} on [1,20] (tolerance {tol})")
        assert ok

    def test_peak_ratios_within_20pct(self, weak_report):
        worst, tol, ok = verdict(weak_report, "spectrum_ratio_", 0.20)
        report("8b-companion (Bessel ratios, lambda=0.05)", ok,
               f"worst rel dev {worst:.3f} (tolerance {tol})")
        assert ok
