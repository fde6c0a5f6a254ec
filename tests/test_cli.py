from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

import floquet_hhg
from floquet_hhg import Dataset, read_dataset, write_dataset
from floquet_hhg import dataset as dataset_module
from floquet_hhg.dataset import _jsonify
from floquet_hhg.cli import main, run_command
from floquet_hhg.config import apply_overrides, from_dict, parse_config

MINIMAL = {"epsilon_d": 1.0, "omega": 1.2, "A_over_omega": 2.0, "lambda": 0.1}


def fast_overrides(**extra):
    cfg = dict(MINIMAL)
    cfg.update({
        "k_grid": {"min": -6.0, "max": 6.0, "count": 241},
        "x_grid": {"min": -25.0, "max": 25.0, "count": 251},
        "box_length": 100.0, "n_modes": 2048, "dt": 2e-3, "t_end": 5.0,
        "t": 5.0,
    })
    cfg.update(extra)
    return cfg


class TestConfig:
    def test_minimal_materializes_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.lambda_ == 0.1
        assert cfg.k_c == pytest.approx(2 * math.pi)
        assert cfg.window == 32
        assert cfg.A == pytest.approx(2.4)
        assert cfg.mode_window == 12
        assert cfg.model().a_over_omega == pytest.approx(2.0)

    def test_round_trip(self):
        cfg = parse_config(json.dumps(MINIMAL))
        again = parse_config(json.dumps(cfg.to_dict()))
        assert again == cfg

    def test_unknown_key_rejected(self):
        bad = dict(MINIMAL, typo_key=3)
        with pytest.raises(ValueError, match="unknown config keys"):
            from_dict(bad)

    def test_negative_omega_rejected(self):
        bad = dict(MINIMAL, omega=-1.0)
        with pytest.raises(ValueError, match="omega must be positive"):
            from_dict(bad)

    def test_amplitude_exactly_one_of_two(self):
        with pytest.raises(ValueError, match="exactly one"):
            from_dict(dict(MINIMAL, A=2.4))
        both_missing = dict(MINIMAL)
        both_missing.pop("A_over_omega")
        with pytest.raises(ValueError, match="exactly one"):
            from_dict(both_missing)

    def test_direct_amplitude_accepted(self):
        raw = dict(MINIMAL)
        raw.pop("A_over_omega")
        raw["A"] = 2.4
        cfg = from_dict(raw)
        assert cfg.A == 2.4
        assert "A" in cfg.to_dict() and "A_over_omega" not in cfg.to_dict()

    def test_partial_grid_rejected(self):
        with pytest.raises(ValueError, match="k_grid"):
            from_dict(dict(MINIMAL, k_grid={"min": -1.0}))

    def test_malformed_json_reported(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_config("{nope")

    def test_overrides_dotted_paths(self):
        raw = apply_overrides(from_dict(MINIMAL).to_dict(),
                              ["k_grid.count=99", "lambda=0.05"])
        cfg = from_dict(raw)
        assert cfg.k_grid.count == 99
        assert cfg.lambda_ == 0.05

    def test_override_format_validated(self):
        with pytest.raises(ValueError, match="key=value"):
            apply_overrides(dict(MINIMAL), ["oops"])

    # each value takes the JSON type of its default; a mistyped value is
    # an error naming its key, never a silent conversion
    @pytest.mark.parametrize("override, message", [
        ({"with_oracle": "false"}, "with_oracle must be a boolean"),
        ({"window": 40.7}, "window must be an integer"),
        ({"max_iterations": True}, "max_iterations must be an integer"),
        ({"lambda": True}, "lambda must be a number"),
        ({"omega": "1.2"}, "omega must be a number"),
        ({"k_grid": {"min": -1.0, "max": 1.0, "count": 9.5}},
         "k_grid.count must be an integer"),
    ], ids=["string-bool", "fractional-int", "bool-int", "bool-float",
            "string-float", "fractional-grid-count"])
    def test_mistyped_value_rejected(self, override, message):
        with pytest.raises(ValueError, match=message):
            from_dict(dict(MINIMAL, **override))

    def test_integer_accepted_as_float(self):
        cfg = from_dict(dict(MINIMAL, k_c=6, epsilon_d=1))
        assert type(cfg.k_c) is float and cfg.k_c == 6.0
        assert type(cfg.epsilon_d) is float and cfg.epsilon_d == 1.0

    # Python's json reads NaN and Infinity; a number that is not finite is
    # an error naming its key, required keys and grid bounds included
    @pytest.mark.parametrize("override, message", [
        ({"omega": math.inf}, "omega must be finite, got inf"),
        ({"A_over_omega": math.inf}, "A_over_omega must be finite, got inf"),
        ({"lambda": -math.inf}, "lambda must be finite, got -inf"),
        ({"k_grid": {"min": math.nan, "max": 1.0, "count": 9}},
         "k_grid.min must be finite, got nan"),
        ({"sweep": {"omega": {"min": 1.0, "max": math.inf, "count": 3}}},
         "sweep.omega.max must be finite, got inf"),
    ], ids=["omega", "A_over_omega", "lambda", "k_grid", "sweep-axis"])
    def test_non_finite_value_rejected(self, override, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            from_dict(dict(MINIMAL, **override))

    # the checks of the one grid type, reported under the grid's key
    @pytest.mark.parametrize("grid, message", [
        ({"min": 1.0, "max": 1.0, "count": 5},
         "grid max must exceed grid min"),
        ({"min": 1.0, "max": -1.0, "count": 5},
         "grid max must exceed grid min"),
        ({"min": -1.0, "max": 1.0, "count": 1},
         "grid count must be at least 2"),
    ], ids=["equal-bounds", "reversed-bounds", "one-point"])
    @pytest.mark.parametrize("key", ["k_grid", "x_grid", "sweep.omega"])
    def test_degenerate_grid_rejected(self, key, grid, message):
        raw = apply_overrides(MINIMAL, [f"{key}={json.dumps(grid)}"])
        with pytest.raises(ValueError, match=f"^{key}: {message}$"):
            from_dict(raw)

    def test_grids_are_linspace(self):
        raw = fast_overrides(sweep={
            "a_over_omega": {"min": 1.5, "max": 2.5, "count": 3},
            "omega": {"min": 1.1, "max": 1.3, "count": 2}})
        cfg = from_dict(raw)
        grids = {"k_grid": cfg.k_grid, "x_grid": cfg.x_grid,
                 "a_over_omega": cfg.sweep["a_over_omega"],
                 "omega": cfg.sweep["omega"]}
        for name, grid in grids.items():
            spec = raw[name] if name.endswith("_grid") else raw["sweep"][name]
            assert np.array_equal(grid.points(), np.linspace(
                spec["min"], spec["max"], spec["count"])), name
        # the sweep visits every omega, and at each every ratio
        (ds,) = run_command("sweep", cfg)
        omegas, ratios = np.meshgrid(grids["omega"].points(),
                                     grids["a_over_omega"].points(),
                                     indexing="ij")
        assert np.array_equal(ds.column("omega"), omegas.ravel())
        assert np.array_equal(ds.column("A_over_omega"), ratios.ravel())

    def test_round_trip_with_grids_and_sweep(self):
        cfg = from_dict(fast_overrides(with_oracle=True, sweep={
            "omega": {"min": 1.0, "max": 1.4, "count": 5}}))
        again = parse_config(json.dumps(cfg.to_dict()))
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()
        assert again.sweep["omega"].count == 5


def reference_write_dataset(dataset: Dataset, path: str | Path) -> Path:
    """The per-row writer that ``write_dataset`` replaced, kept verbatim as
    the byte reference for the one-pass writer."""
    path = Path(path)
    meta_json = json.dumps(_jsonify(dataset.metadata), sort_keys=True,
                           separators=(",", ":"))
    lines = [
        f"# dataset: {dataset.name}",
        f"# metadata: {meta_json}",
        ",".join(f"{c} [{u}]" for c, u in zip(dataset.columns, dataset.units)),
    ]
    row_format = ",".join(["%.17g"] * len(dataset.columns))
    lines += [row_format % tuple(row) for row in dataset.data.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")

    sidecar = path.with_suffix(path.suffix + ".meta.json")
    payload = {
        "dataset": dataset.name,
        "columns": list(dataset.columns),
        "units": list(dataset.units),
        "n_rows": dataset.n_rows,
        "metadata": _jsonify(dataset.metadata),
        "wall_time_s": time.time(),
    }
    sidecar.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8", newline="\n")
    return path


def sidecar_without_wall_time(path: Path) -> dict:
    payload = json.loads(
        path.with_suffix(path.suffix + ".meta.json").read_text())
    del payload["wall_time_s"]
    return payload


EDGE_TABLES = {
    "zero-rows": np.empty((0, 3)),
    "one-column": np.array([[0.1], [-2.5], [1e-300]]),
    "one-row": np.array([[math.pi, -math.e, 1.0 / 3.0]]),
    "ten-columns": np.arange(30.0).reshape(3, 10) / 7.0 - 1.5,
    "nan": np.array([[math.nan, 1.0], [2.0, -math.nan]]),
    "inf": np.array([[math.inf, -math.inf], [-math.inf, 0.5]]),
    "negative-zero": np.array([[-0.0, 0.0], [0.0, -0.0]]),
    "subnormal": np.array([[5e-324, -5e-324], [2.2250738585072009e-308,
                                               1e-310]]),
    "largest": np.array([[1.7976931348623157e308, -1.7976931348623157e308]]),
    "integer-valued": np.array([[0.0, 1.0, -2.0], [1e16, 2.0 ** 53,
                                                   123456789.0]]),
}


class TestDatasetIO:
    def test_write_read_round_trip_bitwise(self, tmp_path):
        ds = Dataset(name="demo", columns=("a", "b"), units=("1", "energy"),
                     data=[[1.0, -2.5e-17], [math.pi, 3.0]],
                     metadata={"alpha": 1.5, "z": complex(0.25, -1.0)})
        path = write_dataset(ds, tmp_path / "demo.csv")
        again = read_dataset(path)
        second = write_dataset(again, tmp_path / "demo2.csv")
        assert path.read_bytes() == second.read_bytes()

    def test_empty_dataset_header_only(self, tmp_path):
        ds = Dataset(name="empty", columns=("x",), units=("1",),
                     data=np.empty((0, 1)))
        path = write_dataset(ds, tmp_path / "empty.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert read_dataset(path).n_rows == 0

    def test_sidecar_written(self, tmp_path):
        ds = Dataset(name="demo", columns=("x",), units=("1",), data=[[1.0]])
        path = write_dataset(ds, tmp_path / "d.csv")
        sidecar = json.loads(
            (tmp_path / "d.csv.meta.json").read_text())
        assert sidecar["dataset"] == "demo"
        assert "wall_time_s" in sidecar

    def test_column_access(self):
        ds = Dataset(name="demo", columns=("x", "y"), units=("1", "1"),
                     data=[[1.0, 2.0], [3.0, 4.0]])
        assert list(ds.column("y")) == [2.0, 4.0]
        with pytest.raises(KeyError):
            ds.column("zz")

    def test_shape_validated(self):
        with pytest.raises(ValueError, match="columns"):
            Dataset(name="bad", columns=("x",), units=("1",),
                    data=[[1.0, 2.0]])

    @pytest.mark.parametrize("name", sorted(EDGE_TABLES))
    def test_bytes_match_per_row_writer(self, tmp_path, name):
        data = EDGE_TABLES[name]
        cols = tuple(f"c{i}" for i in range(data.shape[1]))
        ds = Dataset(name=name, columns=cols, units=("1",) * len(cols),
                     data=data, metadata={"z": complex(0.5, -0.0),
                                          "grid": np.linspace(0.0, 1.0, 3)})
        new = write_dataset(ds, tmp_path / "new.csv")
        ref = reference_write_dataset(ds, tmp_path / "ref.csv")
        assert new.read_bytes() == ref.read_bytes()
        assert sidecar_without_wall_time(new) == \
            sidecar_without_wall_time(ref)

    def test_overwrite_leaves_no_stale_tail(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dataset_module, "time",
                            types.SimpleNamespace(time=lambda: 1.5))
        long = Dataset(name="d", columns=("x", "y"), units=("1", "1"),
                       data=np.random.default_rng(1).random((500, 2)),
                       metadata={"note": "x" * 4000})
        short = Dataset(name="d", columns=("x",), units=("1",), data=[[1.0]])
        (tmp_path / "rerun").mkdir()
        (tmp_path / "fresh").mkdir()
        write_dataset(long, tmp_path / "rerun" / "d.csv")
        write_dataset(short, tmp_path / "rerun" / "d.csv")
        write_dataset(short, tmp_path / "fresh" / "d.csv")
        for name in ("d.csv", "d.csv.meta.json"):
            assert (tmp_path / "rerun" / name).read_bytes() == \
                (tmp_path / "fresh" / name).read_bytes()

    @pytest.mark.parametrize("link", [os.symlink, os.link],
                             ids=["symlink", "hard-link"])
    def test_link_at_path_replaced_not_written_through(self, tmp_path, link):
        target = tmp_path / "target.csv"
        target.write_text("kept\n")
        path = tmp_path / "d.csv"
        link(target, path)
        ds = Dataset(name="d", columns=("x",), units=("1",), data=[[2.0]])
        write_dataset(ds, path)
        assert not path.is_symlink() and path.is_file()
        assert read_dataset(path).column("x").tolist() == [2.0]
        assert target.read_text() == "kept\n"


class TestCommands:
    def test_eigen_outputs(self):
        cfg = from_dict(MINIMAL)
        pole, coeffs = run_command("eigen", cfg)
        assert pole.n_rows == 1
        assert pole.column("residual")[0] < 1e-12
        assert pole.column("im_z")[0] < 0.0
        n_col = coeffs.column("n")
        assert n_col[0] == -32 and n_col[-1] == 32
        assert coeffs.metadata["solver"]["second_sheet_channels"] == \
            [-4, -3, -2, -1, 0]

    def test_spectrum_columns(self):
        cfg = from_dict(fast_overrides())
        (ds,) = run_command("spectrum", cfg)
        assert ds.columns[:3] == ("k", "S_total", "S_lorentz_sum")
        assert "S_mode_0" in ds.columns and "S_mode_4" in ds.columns
        assert np.all(ds.column("S_total") >= 0.0)

    def test_spatial_columns(self):
        cfg = from_dict(fast_overrides())
        (ds,) = run_command("spatial", cfg)
        assert ds.columns[0] == "x" and ds.columns[1] == "F_resonance"
        for m in range(5):
            assert f"diag_m{m}" in ds.columns
        assert "interference" in ds.columns
        assert "F_total" not in ds.columns

    def test_spatial_with_oracle_adds_total(self):
        cfg = from_dict(fast_overrides(with_oracle=True))
        (ds,) = run_command("spatial", cfg)
        assert "F_total" in ds.columns
        assert "calibration" in ds.metadata

    def test_spatial_calibration_is_compares(self):
        # one window rule, |x| <= min(18, 0.9 t), for both commands: at
        # t = 25 the light-front margin alone would reach |x| = 22.5
        cfg = from_dict(fast_overrides(with_oracle=True, t=25.0, t_end=25.0,
                                       dt=1e-2))
        (spatial,) = run_command("spatial", cfg)
        (report,) = run_command("compare", cfg)
        assert spatial.metadata["calibration"] == \
            report.metadata["calibration"]

    def test_evolve_outputs(self):
        cfg = from_dict(fast_overrides())
        survival, photon, field = run_command("evolve", cfg)
        assert survival.column("P_survival")[0] == 1.0
        assert photon.metadata.get("warnings")  # t_end=5 is far from decayed
        assert field.metadata["t"] == pytest.approx(5.0)

    def test_sweep_outputs(self):
        cfg = from_dict(fast_overrides(
            sweep={"a_over_omega": {"min": 1.0, "max": 2.0, "count": 2}}))
        (ds,) = run_command("sweep", cfg)
        assert ds.n_rows == 2
        assert np.all(ds.column("im_z") < 0.0)

    def test_sweep_keeps_going_past_a_failing_point(self):
        # omega = 0.5 puts epsilon_d = 1 on the channel-2 branch point
        cfg = from_dict(dict(MINIMAL, sweep={
            "omega": {"min": 0.45, "max": 0.55, "count": 3}}))
        (ds,) = run_command("sweep", cfg)
        assert ds.n_rows == 3
        assert ds.column("status").tolist() == [0.0, 2.0, 0.0]
        assert np.isnan(ds.column("re_z")[1])
        assert np.all(ds.column("im_z")[[0, 2]] < 0.0)
        assert list(ds.metadata["failures"]) == [1]
        assert "branch point" in ds.metadata["failures"][1]

    def test_compare_report(self):
        cfg = from_dict(fast_overrides())
        (report,) = run_command("compare", cfg)
        names = report.metadata["check_names"]
        assert "survival_max_rel_dev" in names
        assert "beat_frequency_dev" in names
        assert report.n_rows == len(names)
        assert set(report.column("passed")) <= {0.0, 1.0}
        assert "calibration" in report.metadata
        # every check had something to read: no causes are recorded
        assert "causes" not in report.metadata

    def test_sweep_requires_section(self):
        cfg = from_dict(fast_overrides())
        with pytest.raises(ValueError, match="sweep"):
            run_command("sweep", cfg)

    def test_unknown_command_rejected(self):
        cfg = from_dict(MINIMAL)
        with pytest.raises(ValueError, match="unknown command"):
            run_command("render", cfg)


class TestMainEntry:
    def test_success_and_determinism(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        for out in ("run1", "run2"):
            code = main(["spectrum", "--config", str(cfg_path),
                         "--out", str(tmp_path / out)])
            assert code == 0
        a = (tmp_path / "run1" / "spectrum.csv").read_bytes()
        b = (tmp_path / "run2" / "spectrum.csv").read_bytes()
        assert a == b

    def test_two_commands_in_one_process(self, tmp_path):
        # the parser is built once per process: each call keeps its own
        # command, --out and --override list
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path / "a"),
                     "--override", "k_grid.count=101"]) == 0
        assert main(["spectrum", "--config", str(cfg_path),
                     "--out", str(tmp_path / "b")]) == 0
        assert sorted(p.name for p in (tmp_path / "a").glob("*.csv")) == [
            "coefficients.csv", "pole.csv"]
        assert sorted(p.name for p in (tmp_path / "b").glob("*.csv")) == [
            "spectrum.csv"]
        assert read_dataset(tmp_path / "b" / "spectrum.csv").n_rows == 241

    def test_validation_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL, omega=-1.0)))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1

    def test_mistyped_value_exit_code(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL, with_oracle="false")))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("key", [{"cf_depth": 64},
                                     {"pole_pairing": "outgoing"}],
                             ids=["cf_depth", "pole_pairing"])
    def test_cf_depth_key_rejected(self, tmp_path, key):
        # the continued-fraction depth is chosen by the solver, not set;
        # and the field always pairs outgoing pole waves
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL | key))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1

    # Python's json reads NaN and Infinity, in a config file or an override
    @pytest.mark.parametrize("command, setting, override, key", [
        ("eigen", {"root_tol": math.nan}, [], "root_tol"),
        ("evolve", {"dt": math.inf}, [], "dt"),
        ("spatial", {"t": math.nan}, [], "t"),
        ("spatial", {}, ["--override", "x_grid.max=Infinity"], "x_grid.max"),
    ], ids=["root_tol-nan", "dt-inf", "t-nan", "x_grid-max-inf"])
    def test_non_finite_setting_exit_code(self, tmp_path, capsys, command,
                                          setting, override, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL | setting))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path), *override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite, got ")
        assert list(tmp_path.glob("*.csv")) == []

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["eigen", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 1

    def test_non_convergence_exit_code(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL, max_iterations=1)))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_iteration_budget_below_one_exit_code(self, tmp_path, capsys,
                                                  iterations):
        # a budget that allows no Newton step is a config error, not a
        # failure to converge
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path),
                     "--override", f"max_iterations={iterations}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "max_iterations" in err

    def test_frozen_sheet_exit_code(self, tmp_path):
        # at lambda = 0.2 the Newton iterates leave a frozen second sheet
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL, **{"lambda": 0.2})))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("omega", [0.5, 1.0])
    def test_branch_point_seed_exit_code(self, tmp_path, omega):
        # epsilon_d = 1 sits on the branch point of channel 2 (omega = 0.5)
        # or 1 (omega = 1.0): the solve has no perturbative seed
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path),
                     "--override", f"omega={omega}"]) == 2

    def test_compare_short_horizon_fails_slope_check(self, tmp_path):
        # at t = t_end = 3 the log-slope fit window [2, t - 2] is empty:
        # the report marks that check failed instead of raising
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides(
            **{"lambda": 0.05, "t": 3.0, "t_end": 3.0})))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        report = read_dataset(tmp_path / "report.csv")
        i = report.metadata["check_names"].index("diagonal_log_slope_rel_dev")
        assert report.column("passed")[i] == 0.0
        assert math.isinf(report.column("value")[i])

    def test_compare_zero_coupling_fails_slope_check(self, tmp_path):
        # at lambda = 0 no channel is open and no diagonal term exists to
        # fit: the slope check fails instead of passing with nothing checked
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides(**{"lambda": 0.0})))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        report = read_dataset(tmp_path / "report.csv")
        i = report.metadata["check_names"].index("diagonal_log_slope_rel_dev")
        assert report.column("passed")[i] == 0.0
        assert math.isinf(report.column("value")[i])

    def test_compare_zero_coupling_reports_every_check(self, tmp_path):
        # at lambda = 0 there is no line, no field and no interference:
        # the report still lists every check compare runs, and each with
        # nothing to read fails with inf and a cause in the metadata
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides(**{"lambda": 0.0})))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        report = read_dataset(tmp_path / "report.csv")
        names = report.metadata["check_names"]
        labels = ("floquet", "oracle")
        assert sorted(names) == sorted(
            ["survival_max_rel_dev", "field_max_rel_dev", "causality_leak",
             "beat_frequency_dev", "diagonal_log_slope_rel_dev"]
            + [f"spectrum_peak_position_{label}_m{m}"
               for label in labels for m in range(4)]
            + [f"spectrum_ratio_{label}_m{m}"
               for label in labels for m in range(1, 4)])
        assert report.n_rows == len(names)
        values, passed = report.column("value"), report.column("passed")
        causes = report.metadata["causes"]
        unread = [n for n in names if n.startswith("spectrum_")] + [
            "field_max_rel_dev", "causality_leak", "beat_frequency_dev",
            "diagonal_log_slope_rel_dev"]
        assert sorted(causes) == sorted(unread)
        for name in unread:
            i = names.index(name)
            assert math.isinf(values[i]) and passed[i] == 0.0
        assert causes["causality_leak"] == "the oracle field is zero everywhere"
        assert passed[names.index("survival_max_rel_dev")] == 1.0

    def test_compare_keeps_early_spectrum_warning(self, tmp_path):
        # at t_end = 5 the survival is still 0.2: the photon spectrum the
        # report compares is flagged as sampled before decay, as in evolve
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        warnings = read_dataset(tmp_path / "report.csv").metadata["warnings"]
        assert len(warnings) == 1
        assert warnings[0].startswith("photon spectrum sampled before decay")

    def test_compare_decayed_run_has_no_warning(self, tmp_path):
        # by t_end = 25 the survival is below 1e-3: nothing to flag
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides(t=25.0, t_end=25.0,
                                                      dt=1e-2)))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        assert "warnings" not in read_dataset(
            tmp_path / "report.csv").metadata

    def test_compare_survival_window_empty_is_failed_check(self, tmp_path):
        # at t = t_end = 0.5 the survival window [1, 20] holds no sample:
        # the report marks that check failed instead of raising
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides(t=0.5, t_end=0.5)))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        report = read_dataset(tmp_path / "report.csv")
        i = report.metadata["check_names"].index("survival_max_rel_dev")
        assert report.column("passed")[i] == 0.0
        assert math.isinf(report.column("value")[i])

    def test_box_keeping_no_mode_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(
            MINIMAL, box_length=0.9, n_modes=64, t=1.0, t_end=1.0,
            x_grid={"min": -0.4, "max": 0.4, "count": 9})))
        assert main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "box_length" in err
        assert "Traceback" not in err

    def test_rerun_into_same_out(self, tmp_path):
        # a rerun replaces every file: the CSVs repeat byte for byte and the
        # sidecars differ in their wall-clock time only
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        out = tmp_path / "out"
        runs = []
        for _ in range(2):
            assert main(["evolve", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
            runs.append({p.name: p.read_bytes()
                         for p in sorted(out.iterdir())})
        first, second = runs
        assert sorted(first) == sorted(second) == [
            "field.csv", "field.csv.meta.json", "photon_spectrum.csv",
            "photon_spectrum.csv.meta.json", "survival.csv",
            "survival.csv.meta.json"]
        for name in first:
            if name.endswith(".csv"):
                assert first[name] == second[name]
            else:
                a, b = json.loads(first[name]), json.loads(second[name])
                del a["wall_time_s"], b["wall_time_s"]
                assert a == b

    def test_override_flag(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        out = tmp_path / "ov"
        code = main(["spectrum", "--config", str(cfg_path), "--out", str(out),
                     "--override", "k_grid.count=101"])
        assert code == 0
        ds = read_dataset(out / "spectrum.csv")
        assert ds.n_rows == 101


class TestImportPath:
    def test_commands_load_no_scipy(self, tmp_path):
        # the package runs on numpy alone; scipy serves the tests only.
        # Looking after a run also catches a lazy import inside a solve.
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        script = (
            "import sys\n"
            "import floquet_hhg.cli as cli\n"
            f"code = cli.main(['eigen', '--config', {str(cfg_path)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n"
            "raise SystemExit(code)\n")
        src = str(Path(floquet_hhg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
