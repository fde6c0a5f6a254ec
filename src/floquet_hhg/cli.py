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
import dataclasses
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .compare import compare
from .config import RunConfig, apply_overrides, from_dict, parse_config
from .dataset import Dataset, write_dataset
from .errors import ConvergenceError
from .observables import (hhg_spectrum, resonance_spatial_field,
                          survival_amplitude_floquet)
from .oracle import DiscretizedSystem, Trajectory, discretize, evolve, \
    photon_spectrum, spatial_field, survival_probability
from .solver import ResonanceState, solve_resonance

XK_CONVENTION = "<x|k> = exp(i*k*x)/sqrt(2*pi)"


def _metadata(config: RunConfig, state: ResonanceState | None = None,
              **extra) -> dict:
    """The run's config, the solver record of ``state`` and ``extra``."""
    meta = {"artifact_version": __version__, "config": config.to_dict(),
            "xk_convention": XK_CONVENTION}
    if state is not None:
        meta["solver"] = {
            "z_d": state.z_d,
            "residual": state.residual,
            "iterations": state.iterations,
            "cf_depth": state.cf_depth_used,
            "half_width": state.R.size // 2,
            "N_d": state.N_d,
            "K_d": state.K_d,
            "second_sheet_channels": state.ns[state.second_sheet].tolist(),
        }
    return meta | extra


def _table(name: str, meta: dict, columns) -> Dataset:
    """A dataset from ordered ``(column, unit, values)`` triples."""
    names, units, values = zip(*columns)
    return Dataset(name=name, columns=names, units=units,
                   data=np.column_stack(values), metadata=meta)


def _oracle_run(config: RunConfig, t_end: float
                ) -> tuple[DiscretizedSystem, Trajectory]:
    """The config's box, evolved to ``t_end`` with its step."""
    system = discretize(config.model(), config.box_length, config.n_modes)
    return system, evolve(system, t_end=t_end, dt=config.dt)


def _eigen_datasets(config: RunConfig) -> list[Dataset]:
    state = solve_resonance(config.model())
    meta = _metadata(config, state)
    z, N, K, R, L = state.z_d, state.N_d, state.K_d, state.R, state.L
    return [
        _table("pole", meta, [
            ("re_z", "energy", z.real), ("im_z", "energy", z.imag),
            ("residual", "energy", state.residual),
            ("iterations", "1", state.iterations),
            ("cf_depth", "1", state.cf_depth_used),
            ("half_width", "1", R.size // 2),
            ("re_N_d", "1", N.real), ("im_N_d", "1", N.imag),
            ("re_K_d", "1", K.real), ("im_K_d", "1", K.imag)]),
        _table("coefficients", meta, [
            ("n", "1", state.ns), ("re_R", "1", R.real),
            ("im_R", "1", R.imag), ("re_L", "1", L.real),
            ("im_L", "1", L.imag), ("second_sheet", "1", state.second_sheet)]),
    ]


def _spectrum_datasets(config: RunConfig) -> list[Dataset]:
    state = solve_resonance(config.model())
    spec = hhg_spectrum(state, config.k_grid.points())
    lines = spec.diagonal
    shown = np.isin(spec.modes, state.open_modes())
    return [_table("spectrum", _metadata(config, state), [
        ("k", "energy", spec.grid), ("S_total", "1/energy", spec.total),
        ("S_lorentz_sum", "1/energy", lines.sum(axis=0)),
        *((f"S_mode_{m}", "1/energy", line)
          for m, line in zip(spec.modes[shown].tolist(), lines[shown]))])]


def _spatial_datasets(config: RunConfig) -> list[Dataset]:
    state = solve_resonance(config.model())
    field = resonance_spatial_field(state, config.x_grid.points(), config.t)
    meta = _metadata(config, state, t=config.t)
    columns = [
        ("x", "1/energy", field.grid),
        ("F_resonance", "energy", field.total),
        *((f"diag_m{m}", "energy", term)
          for m, term in zip(field.modes.tolist(), field.diagonal)),
        ("interference", "energy", field.interference)]
    if config.with_oracle:
        system, traj = _oracle_run(config, config.t)
        _, _, f_total = spatial_field(system, traj.final, field.grid)
        columns.insert(1, ("F_total", "energy", f_total))
        # the calibration scalar of compare, from its one window rule
        calibration = compare(state, field=(
            field.grid, config.t, field.total, f_total)).calibration
        if calibration is not None:
            meta["calibration"] = calibration
    return [_table("spatial", meta, columns)]


def _evolve_datasets(config: RunConfig) -> list[Dataset]:
    system, traj = _oracle_run(config, config.t_end)
    meta = _metadata(config, delta_k=system.delta_k,
                     n_retained=system.n_retained, dt=traj.dt,
                     norm_drift=traj.norm_drift)
    times, surv = survival_probability(traj)
    k, spec, warning = photon_spectrum(system, traj.final)
    x, _, intensity = spatial_field(system, traj.final,
                                    config.x_grid.points())
    return [
        _table("survival", meta,
               [("t", "1/energy", times), ("P_survival", "1", surv)]),
        _table("photon_spectrum",
               meta | {"warnings": [warning]} if warning else meta,
               [("k", "energy", k), ("S", "1/energy", spec)]),
        _table("field", meta | {"t": traj.final.t},
               [("x", "1/energy", x), ("F_total", "energy", intensity)]),
    ]


def _compare_datasets(config: RunConfig) -> list[Dataset]:
    state = solve_resonance(config.model())
    system, traj = _oracle_run(config, config.t_end)

    # survival on the integrator's own sample times
    times, p_oracle = survival_probability(traj)
    p_floquet = np.abs(survival_amplitude_floquet(state, times)) ** 2

    # spectrum on the retained modes strictly inside the cutoff
    k_o, s_o, warning = photon_spectrum(system, traj.final)
    mask = np.abs(k_o) < config.k_c
    k = k_o[mask]

    # field at config.t (re-evolve only if it differs from t_end)
    field_state = traj.final if config.t == config.t_end else \
        _oracle_run(config, config.t)[1].final
    fdata = resonance_spatial_field(state, config.x_grid.points(), config.t)
    x = fdata.grid
    _, _, f_total = spatial_field(system, field_state, x)

    report = compare(
        state, survival=(times, p_floquet, p_oracle),
        spectrum=(k, hhg_spectrum(state, k).total, s_o[mask]),
        field=(x, config.t, fdata.total, f_total),
        interference=(x, fdata.interference),
        diagonal=(x, config.t, fdata.diagonal))
    meta = _metadata(config, state,
                     check_names=[c.name for c in report.checks],
                     calibration=report.calibration, passed=report.passed)
    if report.causes:
        meta["causes"] = report.causes
    if warning:
        meta["warnings"] = [warning]
    checks = report.checks
    return [_table("report", meta, [
        ("check_id", "1", np.arange(len(checks))),
        ("value", "1", [c.value for c in checks]),
        ("tolerance", "1", [c.tolerance for c in checks]),
        ("passed", "1", [c.passed for c in checks])])]


def _sweep_datasets(config: RunConfig) -> list[Dataset]:
    if not config.sweep:
        raise ValueError("sweep command needs a sweep section in the config")

    def axis(name: str, fallback: float) -> np.ndarray:
        grid = config.sweep.get(name)
        return np.array([fallback]) if grid is None else grid.points()

    # one row per point, omega the outer axis
    omega, ratio = (grid.ravel() for grid in np.meshgrid(
        axis("omega", config.omega),
        axis("a_over_omega", config.A_over_omega), indexing="ij"))
    base, rows, failures = config.model(), [], {}
    for w, r in zip(omega, ratio):
        try:
            s = solve_resonance(dataclasses.replace(base, A=r * w, omega=w))
        except ConvergenceError as exc:  # status 2, as the exit code
            failures[len(rows)] = str(exc)
            rows.append((np.nan,) * 4 + (2,))
        else:
            rows.append((s.z_d.real, s.z_d.imag, s.residual, s.iterations, 0))
    re_z, im_z, residual, iterations, status = zip(*rows)
    return [_table("sweep", _metadata(config, failures=failures), [
        ("omega", "energy", omega), ("A_over_omega", "1", ratio),
        ("A", "energy", ratio * omega), ("re_z", "energy", re_z),
        ("im_z", "energy", im_z), ("residual", "energy", residual),
        ("iterations", "1", iterations), ("status", "1", status)])]


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
    if name not in _DISPATCH:
        raise ValueError(
            f"unknown command {name!r}; choose from {tuple(_DISPATCH)}")
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
    for name in _DISPATCH:
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
        config = parse_config(Path(args.config).read_text(encoding="utf-8"))
        if args.override:
            # overrides reach into the fully materialized config so dotted
            # paths can touch grid entries the user left defaulted
            config = from_dict(apply_overrides(config.to_dict(),
                                               args.override))
        datasets = run_command(args.command, config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for ds in datasets:
            path = write_dataset(ds, out_dir / f"{ds.name}.csv")
            print(path)
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
