"""Named-tolerance comparison of spectral-analysis results against the
direct time-domain integrator.

Each observable is one keyword argument holding its grid once and both
sides' values on it, so the two sides cannot sit on different grids and a
misnamed observable is a TypeError.  The field group holds its time t: the
calibration point and maxima read |x| <= e, the causality leak
|x| >= t + FRONT_MARGIN, e = min(FIELD_XMAX, t - FRONT_MARGIN).  The beat
and slope fits read the state's own pole field on the field grid's span
FRONT_MARGIN <= x <= e.  The field alone fits one calibration scalar.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import TWO_PI
from .observables import resonance_spatial_field
from .perturbation import bessel_j
from .solver import ResonanceState


#: Named tolerances and windows of the checks.
SURVIVAL_WINDOW, SURVIVAL_RTOL = (1.0, 20.0), 0.05
PEAK_MODES, PEAK_ATOL, PEAK_RATIO_RTOL = 4, 0.05, 0.20
FIELD_XMAX, FIELD_FLOOR, FIELD_RTOL = 18.0, 0.02, 0.10
CAUSALITY_RATIO, SLOPE_RTOL, FRONT_MARGIN = 1e-4, 0.01, 2.0


class CompareSpec:  # no settings: the peak modes, for callers naming checks
    peak_modes = PEAK_MODES


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    tolerance: float
    cause: str | None = None  # why it had nothing to read (value inf)

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def _check(name: str, value: float, tolerance: float,
           cause: str | None = None) -> CheckResult:
    """The check; given the ``cause`` of having nothing to read, value inf."""
    return CheckResult(name, math.inf if cause else value, tolerance, cause)


@dataclass(frozen=True)
class ComparisonReport:
    checks: tuple[CheckResult, ...]
    calibration: float | None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def causes(self) -> dict[str, str]:
        """The cause of each check that had nothing to read, by name."""
        return {c.name: c.cause for c in self.checks if c.cause}

    def check(self, name: str) -> CheckResult:
        return {c.name: c for c in self.checks}[name]


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of the interior local maxima of a sampled curve (a plateau
    counts once, at its left end)."""
    inner = (values[1:-1] > values[:-2]) & (values[1:-1] >= values[2:])
    return np.where(inner)[0] + 1


def _peak_index(x: np.ndarray, y: np.ndarray, center: float,
                halfwidth: float) -> int | None:
    """Index of the largest y on center - halfwidth <= x <= center +
    halfwidth, or None when the window is empty or its largest y is not
    positive (it holds no peak)."""
    window = (x >= center - halfwidth) & (x <= center + halfwidth)
    if not np.any(window):
        return None
    idx = int(np.argmax(np.where(window, y, -np.inf)))
    return idx if y[idx] > 0.0 else None


def _survival_checks(survival, checks):
    t, p_f, p_o = (np.asarray(v) for v in survival)
    lo, hi = SURVIVAL_WINDOW
    mask = (t >= lo) & (t <= hi)
    rel = np.abs(p_f[mask] - p_o[mask]) / p_o[mask]
    checks.append(_check(
        "survival_max_rel_dev", float(np.max(rel, initial=0.0)),
        SURVIVAL_RTOL, None if rel.size else f"no sample in [{lo}, {hi}]"))


def _spectrum_checks(state, spectrum, checks):
    k, s_f, s_o = (np.asarray(v) for v in spectrum)
    omega = state.params.omega
    x = abs(state.params.a_over_omega)
    halfwidth = 0.45 * omega
    heights: dict[str, dict[int, float]] = {"floquet": {}, "oracle": {}}
    for m in range(PEAK_MODES):
        target = state.z_d.real + m * omega
        for label, ss in (("floquet", s_f), ("oracle", s_o)):
            i = _peak_index(k, ss, target, halfwidth)
            pos = math.nan if i is None else float(k[i])
            checks.append(_check(
                f"spectrum_peak_position_{label}_m{m}", abs(pos - target),
                PEAK_ATOL, None if i is not None else
                f"no {label} line within {halfwidth:.6g} of {target:.6g}"))
            # density-normalized height: divide out the v_k^2 = 2|k| factor
            heights[label][m] = 0.0 if i is None else \
                float(ss[i]) / (2.0 * abs(pos))
    j0_sq = bessel_j(0, x) ** 2
    for m in range(1, PEAK_MODES):
        expected = bessel_j(m, x) ** 2 / j0_sq
        for label in ("floquet", "oracle"):
            h0, hm = heights[label][0], heights[label][m]
            cause = (f"no Bessel line at m = {m}: J_{m}({x:.6g}) = 0"
                     if not expected else None if h0 and hm else
                     f"no {label} line at m = {m if h0 else 0}")
            checks.append(_check(
                f"spectrum_ratio_{label}_m{m}",
                math.inf if cause else abs(hm / h0 - expected) / expected,
                PEAK_RATIO_RTOL, cause))


def _field_checks(state, x, t, f_f, f_o, checks) -> float | None:
    x, f_f, f_o = np.asarray(x), np.asarray(f_f), np.asarray(f_o)
    xmax = min(FIELD_XMAX, t - FRONT_MARGIN)  # inside the front |x| = t
    ref = _peak_index(x, f_f, 0.0, xmax)
    calibration, rel = None, np.empty(0)
    cause = f"no Floquet field within |x| <= {xmax:.6g}"
    if ref is not None:
        calibration = float(f_o[ref] / f_f[ref])
        f_cal = f_f * calibration
        maxima = _local_maxima(f_cal)
        maxima = maxima[np.abs(x[maxima]) <= xmax]
        # calibration >= 0 and rounding is monotone: f_cal peaks at ref
        maxima = maxima[f_cal[maxima] >= FIELD_FLOOR * f_cal[ref]]
        rel = np.abs(f_cal[maxima] - f_o[maxima]) / f_o[maxima]
        cause = "no field maximum above the floor"
    checks.append(_check("field_max_rel_dev", float(np.max(rel, initial=0.0)),
                         FIELD_RTOL, None if rel.size else cause))

    outside = np.abs(x) >= t + FRONT_MARGIN
    top = float(np.max(f_o, initial=0.0))
    leak = float(np.max(f_o[outside], initial=0.0)) / top if top > 0.0 else 0.0
    checks.append(_check("causality_leak", leak, CAUSALITY_RATIO, (
        f"no grid point at |x| >= {t + FRONT_MARGIN:.6g}"
        if not np.any(outside) else None if top > 0.0 else
        "the oracle field is zero everywhere")))

    # the beat and slope fits read the state's own pole field on the span
    span = x[(x >= FRONT_MARGIN) & (x <= xmax)]
    pole = resonance_spatial_field(state, span, t)
    _beat_check(state, span, xmax, pole.interference, checks)
    _slope_checks(state, span, xmax, pole.diagonal, checks)
    return calibration


def _beat_check(state, xs, hi, ys, checks):
    omega = state.params.omega
    lo = FRONT_MARGIN
    if xs.size < 16:
        checks.append(_check("beat_frequency_dev", math.inf, 0.0,
                             f"fewer than 16 points on [{lo:.6g}, {hi:.6g}]"))
        return
    # divide out the light-front envelope exp(2 Im z_d (t - |x|)) up to
    # its constant factor, which the mean removal and the argmax ignore,
    # then locate the dominant nonzero line
    ys = ys / np.exp(-2.0 * state.z_d.imag * np.abs(xs))
    ys = ys - np.mean(ys)
    ys = ys * np.hanning(ys.size)
    amps = np.abs(np.fft.rfft(ys))
    freqs = TWO_PI * np.fft.rfftfreq(ys.size, d=xs[1] - xs[0])
    bin_width = float(freqs[1] - freqs[0])
    amps[0] = 0.0
    peak_freq = float(freqs[int(np.argmax(amps))])
    checks.append(_check("beat_frequency_dev", abs(peak_freq - omega),
                         bin_width, f"FFT bin {bin_width:.6g} exceeds omega: "
                         f"[{lo:.6g}, {hi:.6g}] is shorter than a drive period"
                         if bin_width > omega else None if np.any(amps) else
                         "no interference oscillation on the span"))


def _slope_checks(state, xs, hi, terms, checks):
    target = 2.0 * abs(state.z_d.imag)
    # a mode is fitted on at least two points where its term is positive;
    # with no mode fitted nothing was checked, and the check fails
    devs = [abs(float(np.polyfit(xs, np.log(vals), 1)[0]) - target)
            / target for vals in terms
            if vals.size >= 2 and not np.any(vals <= 0.0)]
    checks.append(_check("diagonal_log_slope_rel_dev", max(devs, default=0.0),
                         SLOPE_RTOL, None if devs else
                         f"no mode term positive on two points of "
                         f"[{FRONT_MARGIN}, {hi}]"))


def compare(state: ResonanceState, *, survival=None, spectrum=None,
            field=None) -> ComparisonReport:
    """Run the checks of every observable given and report pass/fail.

    Each observable holds its grid once, then the values on it:
    ``survival`` (t, P_floquet, P_oracle), ``spectrum`` (k, S_floquet,
    S_oracle) and ``field`` (x, t, F_floquet, F_oracle) at the time t > 0,
    whose beat and slope rows read the state's own pole field at t.  A t
    that is not positive and finite, or no observable at all, is a
    ValueError.
    """
    if field is not None and not 0.0 < field[1] < math.inf:
        raise ValueError(f"the field time t must be positive and finite, "
                         f"got {field[1]!r}")
    checks: list[CheckResult] = []
    calibration = None
    if survival is not None:
        _survival_checks(survival, checks)
    if spectrum is not None:
        _spectrum_checks(state, spectrum, checks)
    if field is not None:
        calibration = _field_checks(state, *field, checks)
    if not checks:
        raise ValueError("no comparable observables were provided")
    return ComparisonReport(checks=tuple(checks), calibration=calibration)
