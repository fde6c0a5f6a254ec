"""Named-tolerance comparison of spectral-analysis results against the
direct time-domain integrator.

The comparison is purely series-to-series: callers evaluate both sides on
identical grids (a grid mismatch is an error, never an interpolation).
The spatial field carries one overall calibration scalar fixed at a
single reference point; every other check is parameter-free.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI
from .observables import local_maxima
from .perturbation import bessel_j
from .solver import ResonanceState


@dataclass(frozen=True)
class CompareSpec:
    """Named tolerances of the oracle comparison."""

    survival_window: tuple[float, float] = (1.0, 20.0)
    survival_rtol: float = 0.05
    peak_modes: int = 4
    peak_atol: float = 0.05
    peak_ratio_rtol: float = 0.20
    field_xmax: float = 18.0
    field_floor: float = 0.02
    field_rtol: float = 0.10
    causality_x: float = 22.0
    causality_ratio: float = 1e-4
    beat_span: tuple[float, float] = (2.0, 18.0)
    slope_margin: float = 2.0
    slope_rtol: float = 0.01


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple[CheckResult, ...]
    calibration: float | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _require_same_grid(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape != b.shape or not np.array_equal(a, b):
        raise ValueError(f"grid mismatch on {what}")


def _peak_position(k: np.ndarray, s: np.ndarray, center: float,
                   halfwidth: float) -> tuple[float, float]:
    mask = (k >= center - halfwidth) & (k <= center + halfwidth)
    if not np.any(mask):
        return math.nan, 0.0
    idx = int(np.argmax(np.where(mask, s, -np.inf)))
    return float(k[idx]), float(s[idx])


def _survival_checks(state, floquet, oracle, spec, checks):
    t_f, p_f = floquet["survival"]
    t_o, p_o = oracle["survival"]
    _require_same_grid(np.asarray(t_f), np.asarray(t_o), "survival times")
    lo, hi = spec.survival_window
    mask = (t_o >= lo) & (t_o <= hi)
    rel = np.abs(np.asarray(p_f)[mask] - np.asarray(p_o)[mask]) \
        / np.asarray(p_o)[mask]
    worst = float(np.max(rel)) if rel.size else math.inf
    checks.append(CheckResult("survival_max_rel_dev", worst,
                              spec.survival_rtol,
                              worst <= spec.survival_rtol))


def _spectrum_checks(state, floquet, oracle, spec, checks):
    k_f, s_f = floquet["spectrum"]
    k_o, s_o = oracle["spectrum"]
    k_f, s_f = np.asarray(k_f), np.asarray(s_f)
    k_o, s_o = np.asarray(k_o), np.asarray(s_o)
    omega = state.params.omega
    re_z = state.z_d.real
    x = abs(state.params.a_over_omega)
    halfwidth = 0.45 * omega
    heights: dict[str, dict[int, float]] = {"floquet": {}, "oracle": {}}
    for m in range(spec.peak_modes):
        target = re_z + m * omega
        for label, (kk, ss) in (("floquet", (k_f, s_f)),
                                ("oracle", (k_o, s_o))):
            pos, height = _peak_position(kk, ss, target, halfwidth)
            dev = abs(pos - target)
            checks.append(CheckResult(
                f"spectrum_peak_position_{label}_m{m}", dev, spec.peak_atol,
                dev <= spec.peak_atol))
            # density-normalized height: divide out the v_k^2 = 2|k| factor
            heights[label][m] = height / (2.0 * abs(pos)) if pos else 0.0
    j0_sq = bessel_j(0, x) ** 2
    for m in range(1, spec.peak_modes):
        expected = bessel_j(m, x) ** 2 / j0_sq
        for label in ("floquet", "oracle"):
            h0 = heights[label][0]
            ratio = heights[label][m] / h0 if h0 else math.inf
            rel = abs(ratio - expected) / expected
            checks.append(CheckResult(
                f"spectrum_ratio_{label}_m{m}", rel, spec.peak_ratio_rtol,
                rel <= spec.peak_ratio_rtol))


def _field_checks(state, floquet, oracle, spec, checks) -> float | None:
    x_f, f_f = floquet["field"]
    x_o, f_o = oracle["field"]
    x_f, f_f = np.asarray(x_f), np.asarray(f_f)
    x_o, f_o = np.asarray(x_o), np.asarray(f_o)
    _require_same_grid(x_f, x_o, "field positions")

    t = floquet.get("field_time")
    inside = np.abs(x_f) <= min(spec.field_xmax,
                                0.9 * t if t else spec.field_xmax)
    if not np.any(inside) or float(np.max(f_f[inside])) <= 0.0:
        checks.append(CheckResult("field_max_rel_dev", math.inf,
                                  spec.field_rtol, False))
        return None
    ref = int(np.argmax(np.where(inside, f_f, -np.inf)))
    calibration = float(f_o[ref] / f_f[ref])
    f_cal = f_f * calibration

    peak = float(np.max(f_cal[inside]))
    maxima = local_maxima(f_cal)
    maxima = maxima[inside[maxima]]
    maxima = maxima[f_cal[maxima] >= spec.field_floor * peak]
    if maxima.size == 0:
        checks.append(CheckResult("field_max_rel_dev", math.inf,
                                  spec.field_rtol, False))
    else:
        rel = np.abs(f_cal[maxima] - f_o[maxima]) / f_o[maxima]
        worst = float(np.max(rel))
        checks.append(CheckResult("field_max_rel_dev", worst, spec.field_rtol,
                                  worst <= spec.field_rtol))

    outside = np.abs(x_o) >= spec.causality_x
    if np.any(outside):
        leak = float(np.max(f_o[outside]) / np.max(f_o))
        checks.append(CheckResult("causality_leak", leak, spec.causality_ratio,
                                  leak <= spec.causality_ratio))
    return calibration


def _beat_check(state, floquet, spec, checks):
    x, interf = floquet["interference"]
    x, interf = np.asarray(x), np.asarray(interf)
    t = floquet.get("field_time", 0.0)
    omega = state.params.omega
    lo, hi = spec.beat_span
    mask = (x >= lo) & (x <= hi)
    xs, ys = x[mask], interf[mask]
    if xs.size < 16:
        checks.append(CheckResult("beat_frequency_dev", math.inf, 0.0, False))
        return
    # divide out the known light-front envelope so the oscillation is
    # amplitude-stationary, then locate the dominant nonzero line
    envelope = np.exp(2.0 * state.z_d.imag * (t - np.abs(xs)))
    ys = ys / envelope
    ys = ys - np.mean(ys)
    ys = ys * np.hanning(ys.size)
    spacing = xs[1] - xs[0]
    amps = np.abs(np.fft.rfft(ys))
    freqs = TWO_PI * np.fft.rfftfreq(ys.size, d=spacing)
    bin_width = freqs[1] - freqs[0]
    amps[0] = 0.0
    peak_freq = float(freqs[int(np.argmax(amps))])
    dev = abs(peak_freq - omega)
    checks.append(CheckResult("beat_frequency_dev", dev, float(bin_width),
                              dev <= bin_width))


def _slope_checks(state, floquet, spec, checks):
    x = np.asarray(floquet["field"][0])
    t = float(floquet.get("field_time", 0.0))
    mask = (x >= spec.slope_margin) & (x <= t - spec.slope_margin)
    target = 2.0 * abs(state.z_d.imag)
    # a mode is fitted on at least two points where its term is positive;
    # with no mode fitted nothing was checked, and the check fails
    devs = [abs(float(np.polyfit(x[mask], np.log(vals), 1)[0]) - target)
            / target for vals in np.asarray(floquet["diagonal"])[:, mask]
            if vals.size >= 2 and not np.any(vals <= 0.0)]
    worst = max(devs, default=math.inf)
    checks.append(CheckResult("diagonal_log_slope_rel_dev", worst,
                              spec.slope_rtol, worst <= spec.slope_rtol))


def compare(state: ResonanceState, floquet_results: dict,
            oracle_results: dict,
            spec: CompareSpec | None = None) -> ComparisonReport:
    """Run every check both result bundles support and report pass/fail.

    Recognized keys: ``survival`` (t, P), ``spectrum`` (k, S), ``field``
    (x, F) with ``field_time``, and on the spectral side ``diagonal`` (the
    per-mode terms F_m, one row per mode on the field's x grid) and
    ``interference`` (x, I).  Grids must match exactly.
    """
    spec = spec or CompareSpec()
    checks: list[CheckResult] = []
    calibration = None
    if "survival" in floquet_results and "survival" in oracle_results:
        _survival_checks(state, floquet_results, oracle_results, spec, checks)
    if "spectrum" in floquet_results and "spectrum" in oracle_results:
        _spectrum_checks(state, floquet_results, oracle_results, spec, checks)
    if "field" in floquet_results and "field" in oracle_results:
        calibration = _field_checks(state, floquet_results, oracle_results,
                                    spec, checks)
    if "interference" in floquet_results:
        _beat_check(state, floquet_results, spec, checks)
    if "diagonal" in floquet_results:
        _slope_checks(state, floquet_results, spec, checks)
    if not checks:
        raise ValueError("no comparable observables were provided")
    return ComparisonReport(checks=tuple(checks), calibration=calibration)
