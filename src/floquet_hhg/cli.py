"""Command-line surface: config in, deterministic CSV datasets out.

    floquet-hhg <command> --config FILE [--out DIR] [--override k=v ...]

Commands: eigen (pole + ladder coefficients), spectrum (photon line
spectrum), spatial (resonance field and its decomposition), evolve
(direct-integrator ground truth), compare (named-tolerance report), and
sweep (pole landscape over drive parameters).  Exit codes: 0 success,
1 validation error, 2 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .compare import CompareSpec, compare
from .config import COMMANDS, RunConfig, apply_overrides, from_dict
from .dataset import Dataset, write_dataset
from .errors import ConvergenceError
from .model import ModelParams
from .observables import (hhg_spectrum, resonance_spatial_field,
                          survival_amplitude_floquet)
from .oracle import discretize, evolve, photon_spectrum, spatial_field, \
    survival_probability
from .solver import ResonanceState, solve_resonance

XK_CONVENTION = "<x|k> = exp(i*k*x)/sqrt(2*pi)"


def _base_metadata(config: RunConfig) -> dict:
    return {
        "artifact_version": __version__,
        "config": config.to_dict(),
        "xk_convention": XK_CONVENTION,
    }


def _state_metadata(state: ResonanceState) -> dict:
    return {
        "z_d": state.z_d,
        "residual": state.residual,
        "iterations": state.iterations,
        "cf_depth": state.cf_depth_used,
        "window": state.window,
        "N_d": state.N_d,
        "K_d": state.K_d,
        "second_sheet_channels": state.ns[state.second_sheet].tolist(),
    }


def _solve(config: RunConfig) -> ResonanceState:
    return solve_resonance(config.model(), config.solver_options())


def _eigen_datasets(config: RunConfig) -> list[Dataset]:
    state = _solve(config)
    meta = _base_metadata(config) | {"solver": _state_metadata(state)}
    pole = Dataset(
        name="pole",
        columns=("re_z", "im_z", "residual", "iterations", "cf_depth",
                 "window", "re_N_d", "im_N_d", "re_K_d", "im_K_d"),
        units=("energy", "energy", "energy", "1", "1", "1", "1", "1",
               "1", "1"),
        data=[[state.z_d.real, state.z_d.imag, state.residual,
               state.iterations, state.cf_depth_used, state.window,
               state.N_d.real, state.N_d.imag, state.K_d.real,
               state.K_d.imag]],
        metadata=meta)
    coeffs = Dataset(
        name="coefficients",
        columns=("n", "re_R", "im_R", "re_L", "im_L", "second_sheet"),
        units=("1", "1", "1", "1", "1", "1"),
        data=np.column_stack([state.ns, state.R.real, state.R.imag,
                              state.L.real, state.L.imag,
                              state.second_sheet]),
        metadata=meta)
    return [pole, coeffs]


def _spectrum_datasets(config: RunConfig) -> list[Dataset]:
    state = _solve(config)
    k = config.k_grid.points()
    spec = hhg_spectrum(state, k, mode_window=config.mode_window)
    meta = _base_metadata(config) | {
        "solver": _state_metadata(state),
        "mode_window": spec.mode_window,
    }
    columns = ["k", "S_total", "S_lorentz_sum"]
    units = ["energy", "1/energy", "1/energy"]
    table = [spec.kgrid, spec.total, spec.lines.sum(axis=0)]
    shown = np.isin(spec.modes, state.open_modes())
    for m, line in zip(spec.modes[shown].tolist(), spec.lines[shown]):
        columns.append(f"S_mode_{m}")
        units.append("1/energy")
        table.append(line)
    data = np.column_stack(table)
    return [Dataset(name="spectrum", columns=tuple(columns),
                    units=tuple(units), data=data, metadata=meta)]


def _spatial_datasets(config: RunConfig) -> list[Dataset]:
    state = _solve(config)
    x = config.x_grid.points()
    field = resonance_spatial_field(state, x, config.t,
                                    mode_window=config.mode_window)
    meta = _base_metadata(config) | {
        "solver": _state_metadata(state),
        "t": config.t,
        "mode_window": field.mode_window,
    }
    columns = ["x", "F_resonance"]
    units = ["1/energy", "energy"]
    table = [field.xgrid, field.intensity]
    for m, term in zip(field.modes.tolist(), field.diagonal):
        columns.append(f"diag_m{m}")
        units.append("energy")
        table.append(term)
    columns.append("interference")
    units.append("energy")
    table.append(field.interference)

    if config.with_oracle:
        system = discretize(config.model(), config.box_length, config.n_modes)
        traj = evolve(system, t_end=config.t, dt=config.dt,
                      sample_stride=config.sample_stride)
        _, _, f_total = spatial_field(system, traj.final, field.xgrid)
        columns.insert(1, "F_total")
        units.insert(1, "energy")
        table.insert(1, f_total)
        # the calibration scalar of compare, from its one window rule
        calibration = compare(
            state, {"field": (field.xgrid, field.intensity),
                    "field_time": config.t},
            {"field": (field.xgrid, f_total)}).calibration
        if calibration is not None:
            meta["calibration"] = calibration
    data = np.column_stack(table)
    return [Dataset(name="spatial", columns=tuple(columns),
                    units=tuple(units), data=data, metadata=meta)]


def _evolve_datasets(config: RunConfig) -> list[Dataset]:
    params = config.model()
    system = discretize(params, config.box_length, config.n_modes)
    traj = evolve(system, t_end=config.t_end, dt=config.dt,
                  sample_stride=config.sample_stride)
    meta = _base_metadata(config) | {
        "delta_k": system.delta_k,
        "n_retained": system.n_retained,
        "dt": traj.dt,
        "norm_drift": traj.norm_drift,
    }
    times, surv = survival_probability(traj)
    survival = Dataset(
        name="survival", columns=("t", "P_survival"),
        units=("1/energy", "1"),
        data=np.column_stack([times, surv]), metadata=meta)
    k, spec, warning = photon_spectrum(system, traj.final)
    spec_meta = dict(meta)
    if warning:
        spec_meta["warnings"] = [warning]
    photon = Dataset(
        name="photon_spectrum", columns=("k", "S"),
        units=("energy", "1/energy"),
        data=np.column_stack([k, spec]), metadata=spec_meta)
    xgrid = config.x_grid.points()
    x, _, intensity = spatial_field(system, traj.final, xgrid)
    field = Dataset(
        name="field", columns=("x", "F_total"),
        units=("1/energy", "energy"),
        data=np.column_stack([x, intensity]),
        metadata=meta | {"t": traj.final.t})
    return [survival, photon, field]


def _compare_datasets(config: RunConfig) -> list[Dataset]:
    params = config.model()
    state = _solve(config)
    system = discretize(params, config.box_length, config.n_modes)
    traj = evolve(system, t_end=config.t_end, dt=config.dt,
                  sample_stride=config.sample_stride)

    # survival on the integrator's own sample times
    amp = survival_amplitude_floquet(state, traj.times)
    floquet: dict = {"survival": (traj.times, np.abs(amp) ** 2)}
    oracle_side: dict = {"survival": survival_probability(traj)}

    # spectrum on the retained modes strictly inside the cutoff
    k_o, s_o, warning = photon_spectrum(system, traj.final)
    mask = np.abs(k_o) < params.k_c
    spec = hhg_spectrum(state, k_o[mask], mode_window=config.mode_window)
    floquet["spectrum"] = (spec.kgrid, spec.total)
    oracle_side["spectrum"] = (k_o[mask], s_o[mask])

    # field at config.t (re-evolve only if it differs from t_end)
    if config.t == config.t_end:
        field_state = traj.final
    else:
        field_state = evolve(system, t_end=config.t, dt=config.dt,
                             sample_stride=config.sample_stride).final
    xgrid = config.x_grid.points()
    fdata = resonance_spatial_field(state, xgrid, config.t,
                                    mode_window=config.mode_window)
    x, _, f_total = spatial_field(system, field_state, xgrid)
    floquet["field"] = (fdata.xgrid, fdata.intensity)
    floquet["field_time"] = config.t
    floquet["diagonal"] = fdata.diagonal
    floquet["interference"] = (fdata.xgrid, fdata.interference)
    oracle_side["field"] = (x, f_total)

    report = compare(state, floquet, oracle_side, CompareSpec(
        survival_window=(1.0, min(20.0, config.t_end))))
    rows = []
    names = []
    for i, c in enumerate(report.checks):
        names.append(c.name)
        rows.append([i, c.value, c.tolerance, 1.0 if c.passed else 0.0])
    meta = _base_metadata(config) | {
        "solver": _state_metadata(state),
        "check_names": names,
        "calibration": report.calibration,
        "passed": report.passed,
    }
    if report.causes:
        meta["causes"] = report.causes
    if warning:
        meta["warnings"] = [warning]
    return [Dataset(name="report",
                    columns=("check_id", "value", "tolerance", "passed"),
                    units=("1", "1", "1", "1"),
                    data=rows, metadata=meta)]


def _sweep_datasets(config: RunConfig) -> list[Dataset]:
    if not config.sweep:
        raise ValueError("sweep command needs a sweep section in the config")

    def axis(name: str, fallback: float) -> np.ndarray:
        grid = config.sweep.get(name)
        return np.array([fallback]) if grid is None else grid.points()

    ratios = axis("a_over_omega", config.A / config.omega)
    omegas = axis("omega", config.omega)
    rows, failures = [], {}
    for omega in omegas:
        for ratio in ratios:
            params = ModelParams(epsilon_d=config.epsilon_d, A=ratio * omega,
                                 omega=omega, lambda_=config.lambda_,
                                 k_c=config.k_c)
            try:
                state = solve_resonance(params, config.solver_options())
            except ConvergenceError as exc:  # status 2, as the exit code
                failures[len(rows)] = str(exc)
                rows.append([omega, ratio, params.A] + [np.nan] * 4 + [2])
                continue
            rows.append([omega, ratio, params.A, state.z_d.real,
                         state.z_d.imag, state.residual, state.iterations, 0])
    meta = _base_metadata(config) | {"failures": failures}
    return [Dataset(
        name="sweep",
        columns=("omega", "A_over_omega", "A", "re_z", "im_z", "residual",
                 "iterations", "status"),
        units=("energy", "1", "energy", "energy", "energy", "energy", "1",
               "1"),
        data=rows, metadata=meta)]


_DISPATCH = {
    "eigen": _eigen_datasets,
    "spectrum": _spectrum_datasets,
    "spatial": _spatial_datasets,
    "evolve": _evolve_datasets,
    "compare": _compare_datasets,
    "sweep": _sweep_datasets,
}


def run_command(name: str, config: RunConfig) -> list[Dataset]:
    """Produce the datasets of one CLI command (no file I/O)."""
    if name not in COMMANDS:
        raise ValueError(f"unknown command {name!r}; choose from {COMMANDS}")
    return _DISPATCH[name](config)


@cache  # parse_args does not mutate the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floquet-hhg",
        description=("Complex spectral analysis of photon emission from a "
                     "periodically driven two-level emitter, validated "
                     "against direct time integration."))
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override a config entry (dotted paths allowed)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if args.override:
            # overrides reach into the fully materialized config so dotted
            # paths can touch grid entries the user left defaulted
            raw = apply_overrides(from_dict(raw).to_dict(), args.override)
        config = from_dict(raw)
        datasets = run_command(args.command, config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for ds in datasets:
            path = write_dataset(ds, out_dir / f"{ds.name}.csv")
            print(path)
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
