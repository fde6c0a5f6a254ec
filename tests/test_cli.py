from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import floquet_hhg
from floquet_hhg import Dataset, read_dataset, write_dataset
from floquet_hhg import cli, oracle, solver
from floquet_hhg import dataset as dataset_module
from floquet_hhg.cli import main, run_command
from floquet_hhg.config import apply_overrides, from_dict, parse_config

MINIMAL = {"epsilon_d": 1.0, "omega": 1.2, "A_over_omega": 2.0, "lambda": 0.1}


#: A box of length 20 whose x grid ends 11 before the revival.
SMALL_BOX = {"box_length": 20.0, "n_modes": 256,
             "x_grid": {"min": -9.0, "max": 9.0, "count": 181}}


def fast_overrides(**extra):
    cfg = dict(MINIMAL)
    cfg.update({
        "k_grid": {"min": -6.0, "max": 6.0, "count": 241},
        "x_grid": {"min": -25.0, "max": 25.0, "count": 251},
        "box_length": 100.0, "n_modes": 2048, "t_end": 5.0, "t": 5.0,
    })
    cfg.update(extra)
    return cfg


class TestConfig:
    def test_minimal_materializes_defaults(self):
        cfg = parse_config(json.dumps(MINIMAL))
        assert cfg.lambda_ == 0.1
        assert cfg.k_c == pytest.approx(2 * math.pi)
        assert not hasattr(cfg, "window")
        assert cfg.model().A == pytest.approx(2.4)
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

    def test_negative_coupling_names_its_key(self):
        with pytest.raises(ValueError, match="^lambda must be nonnegative$"):
            from_dict(dict(MINIMAL, **{"lambda": -0.1}))

    def test_direct_amplitude_is_unknown_key(self):
        # the drive is given once, as the Bessel argument A/omega
        with pytest.raises(ValueError,
                           match=r"^unknown config keys: \['A'\]$"):
            from_dict(dict(MINIMAL, A=2.4))

    def test_amplitude_ratio_required(self):
        raw = dict(MINIMAL)
        raw.pop("A_over_omega")
        with pytest.raises(ValueError, match="missing required key "
                                             "'A_over_omega'"):
            from_dict(raw)

    def test_amplitude_ratio_echoed_as_given(self):
        # A / omega recomputed from A = ratio * omega misses this ratio by
        # one ulp; the model's A is still the product
        raw = dict(MINIMAL, A_over_omega=1.7385877177298523,
                   omega=1.1595928518309906)
        cfg = from_dict(raw)
        assert cfg.to_dict()["A_over_omega"] == raw["A_over_omega"]
        assert cfg.model().A == raw["A_over_omega"] * raw["omega"]

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
        ({"n_modes": 40.7}, "n_modes must be an integer"),
        ({"n_modes": True}, "n_modes must be an integer"),
        ({"lambda": True}, "lambda must be a number"),
        ({"omega": "1.2"}, "omega must be a number"),
        ({"k_grid": {"min": -1.0, "max": 1.0, "count": 9.5}},
         "k_grid.count must be an integer"),
    ], ids=["fractional-int", "bool-int", "bool-float",
            "string-float", "fractional-grid-count"])
    def test_mistyped_value_rejected(self, override, message):
        with pytest.raises(ValueError, match=message):
            from_dict(dict(MINIMAL, **override))

    @pytest.mark.parametrize("low", [-0.5, 0.0])
    def test_sweep_omega_must_be_positive(self, low):
        # refused at parse time, under the grid's key, before any solve
        raw = dict(MINIMAL, sweep={"omega": {"min": low, "max": 1.0,
                                             "count": 4}})
        with pytest.raises(ValueError, match=(
                f"^sweep.omega: grid min must be positive, got {low}$")):
            from_dict(raw)

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

    def test_sweep_without_ratio_axis_writes_given_ratio(self):
        raw = fast_overrides(A_over_omega=1.7385877177298523,
                             omega=1.1595928518309906,
                             sweep={"omega": {"min": 1.1, "max": 1.2,
                                              "count": 2}})
        (ds,) = run_command("sweep", from_dict(raw))
        assert ds.column("A_over_omega").tolist() == [raw["A_over_omega"]] * 2

    def test_round_trip_with_grids_and_sweep(self):
        cfg = from_dict(fast_overrides(k_c=7.0, sweep={
            "omega": {"min": 1.0, "max": 1.4, "count": 5}}))
        again = parse_config(json.dumps(cfg.to_dict()))
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()
        assert again.sweep["omega"].count == 5


def _jsonify(value):
    """Make metadata JSON-able; complex numbers become [re, im] pairs."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def reference_write_dataset(dataset: Dataset, path: str | Path) -> Path:
    """The per-row writer that ``write_dataset`` replaced, kept as the byte
    reference for the one-pass writer."""
    path = Path(path)
    lines = [
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
    }
    sidecar.write_text(json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")) + "\n",
                       encoding="utf-8", newline="\n")
    return path


def sidecar(path: Path) -> dict:
    return json.loads(path.with_suffix(path.suffix + ".meta.json").read_text())


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
    "nested-metadata": np.array([[0.25, -1.0]]),
}

#: Metadata of a case, when not the default: a sweep's failures keyed by
#: row index (as strings, whose order is not the numeric one), numpy
#: scalars and arrays, and complex numbers inside lists.
EDGE_METADATA = {
    "nested-metadata": {
        "failures": {"0": "first", "5": "sixth", "12": "thirteenth"},
        "scalars": [np.float64(0.1), np.int64(-3), np.float32(0.5)],
        "arrays": {"k": np.arange(3), "z": np.array([1 + 2j, -0.5j])},
        "poles": [[complex(0.25, -1.0), 1j], (2.0, complex(-0.0, 0.0))],
    },
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
        assert (tmp_path / "demo.csv.meta.json").read_bytes() == \
            (tmp_path / "demo2.csv.meta.json").read_bytes()

    def test_empty_dataset_header_only(self, tmp_path):
        ds = Dataset(name="empty", columns=("x",), units=("1",),
                     data=np.empty((0, 1)))
        path = write_dataset(ds, tmp_path / "empty.csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert read_dataset(path).n_rows == 0

    def test_sidecar_written(self, tmp_path):
        # the sidecar restates the data file and holds nothing else
        ds = Dataset(name="demo", columns=("x", "y"), units=("1", "energy"),
                     data=[[1.0, 2.0], [3.0, 4.0]],
                     metadata={"z": complex(0.25, -1.0), "n": 3})
        path = write_dataset(ds, tmp_path / "d.csv")
        payload, again = sidecar(path), read_dataset(path)
        assert sorted(payload) == ["columns", "dataset", "metadata",
                                   "n_rows", "units"]
        assert payload["dataset"] == again.name == "demo"
        assert payload["columns"] == list(again.columns)
        assert payload["units"] == list(again.units)
        assert payload["n_rows"] == again.n_rows == 2
        assert payload["metadata"] == again.metadata

    def test_sidecar_is_compact_json(self, tmp_path):
        ds = Dataset(name="demo", columns=("x",), units=("1",), data=[[1.0]],
                     metadata={"b": [1, 2], "a": {"d": 0.5, "c": "s"}})
        write_dataset(ds, tmp_path / "d.csv")
        text = (tmp_path / "d.csv.meta.json").read_text()
        payload = json.loads(text)
        assert text == json.dumps(payload, sort_keys=True,
                                  separators=(",", ":")) + "\n"

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

    def test_units_validated(self):
        with pytest.raises(ValueError, match="units must parallel columns"):
            Dataset(name="bad", columns=("x",), units=("1", "1"),
                    data=[[1.0]])

    @pytest.mark.parametrize("text, fields, message", [
        ("", {}, "is not a dataset file"),
        ("x [1]\n1\n", None, "bad.csv has no sidecar .*bad.csv.meta.json$"),
        ("x [1]\n1\n", {"columns": ["y"]},
         "sidecar .*bad.csv.meta.json disagrees with .*bad.csv on columns$"),
        ("x (1)\n", {}, "malformed column header 'x \\(1\\)'"),
        ("x [1]\n1\n", {"units": ["energy"]},
         "sidecar .*bad.csv.meta.json disagrees with .*bad.csv on units$"),
        ("x [1]\n1\n", {"n_rows": 2},
         "sidecar .*bad.csv.meta.json disagrees with .*bad.csv on n_rows$"),
    ], ids=["short", "dataset-header", "metadata-header", "column-header",
            "units", "row-count"])
    def test_malformed_file_rejected(self, tmp_path, text, fields, message):
        # fields: what the sidecar of a one-row "x [1]" table says in place
        # of the truth, or None for no sidecar
        path = tmp_path / "bad.csv"
        path.write_text(text)
        if fields is not None:
            payload = {"dataset": "d", "columns": ["x"], "units": ["1"],
                       "n_rows": 1, "metadata": {}} | fields
            (tmp_path / "bad.csv.meta.json").write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            read_dataset(path)

    def test_unencodable_metadata_rejected(self):
        with pytest.raises(TypeError, match="^object is not JSON "
                                            "serializable$"):
            dataset_module._json_default(object())

    @pytest.mark.parametrize("name", sorted(EDGE_TABLES))
    def test_bytes_match_per_row_writer(self, tmp_path, name):
        data = EDGE_TABLES[name]
        cols = tuple(f"c{i}" for i in range(data.shape[1]))
        metadata = EDGE_METADATA.get(name, {
            "z": complex(0.5, -0.0), "grid": np.linspace(0.0, 1.0, 3)})
        ds = Dataset(name=name, columns=cols, units=("1",) * len(cols),
                     data=data, metadata=metadata)
        new = write_dataset(ds, tmp_path / "new.csv")
        ref = reference_write_dataset(ds, tmp_path / "ref.csv")
        assert new.read_bytes() == ref.read_bytes()
        assert (tmp_path / "new.csv.meta.json").read_bytes() == \
            (tmp_path / "ref.csv.meta.json").read_bytes()
        if "failures" in metadata:
            assert '"failures":{"0":"first","12":"thirteenth","5":"sixth"}' \
                in (tmp_path / "new.csv.meta.json").read_text()

    def test_overwrite_leaves_no_stale_tail(self, tmp_path):
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

    def test_rerun_cut_before_its_sidecar_leaves_none(self, tmp_path,
                                                       monkeypatch):
        # a rerun killed between the new table and its sidecar must not
        # leave the old run's sidecar to describe the new table
        path = write_dataset(Dataset(name="old", columns=("x",), units=("1",),
                                     data=[[1.0]]), tmp_path / "d.csv")
        write_new = dataset_module._write_new

        def killed_at_sidecar(target, text):
            if target.name.endswith(".meta.json"):
                raise KeyboardInterrupt
            write_new(target, text)

        monkeypatch.setattr(dataset_module, "_write_new", killed_at_sidecar)
        with pytest.raises(KeyboardInterrupt):
            write_dataset(Dataset(name="new", columns=("x",), units=("1",),
                                  data=[[2.0]]), path)
        assert path.read_text() == "x [1]\n2\n"
        with pytest.raises(ValueError, match="has no sidecar"):
            read_dataset(path)

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
        # the ladder's half-width, as the solver sized it
        n_col = coeffs.column("n")
        half = pole.column("half_width")[0]
        assert half == pole.metadata["solver"]["half_width"] == 19
        assert n_col[0] == -half and n_col[-1] == half
        assert coeffs.metadata["solver"]["second_sheet_channels"] == \
            [-4, -3, -2, -1, 0]

    def test_spectrum_columns(self):
        cfg = from_dict(fast_overrides())
        (ds,) = run_command("spectrum", cfg)
        assert np.all(ds.column("S_total") >= 0.0)

    def test_spatial_columns(self):
        cfg = from_dict(fast_overrides())
        (ds,) = run_command("spatial", cfg)
        assert ds.columns[0] == "x" and ds.columns[1] == "F_resonance"
        for m in range(5):
            assert f"diag_m{m}" in ds.columns
        assert "interference" in ds.columns
        assert "F_total" not in ds.columns

    def test_spatial_calibration_is_compares(self):
        # compare's calibration is evolve's field over spatial's at the
        # Floquet field's peak on |x| <= min(18, t - 2): at t = 25 the
        # light-front margin alone would reach |x| = 23, where the peak
        # lies elsewhere
        cfg = from_dict(fast_overrides(t=25.0, t_end=25.0))
        (spatial,) = run_command("spatial", cfg)
        *_, field = run_command("evolve", cfg)
        (report,) = run_command("compare", cfg)
        x = spatial.column("x")
        assert np.array_equal(field.column("x"), x)
        f_res = spatial.column("F_resonance")
        ref = np.argmax(np.where(np.abs(x) <= 18.0, f_res, -np.inf))
        assert f_res[ref] < f_res[np.abs(x) <= 23.0].max()
        assert report.metadata["calibration"] == \
            field.column("F_total")[ref] / f_res[ref]

    def test_evolve_reads_its_field_at_t(self):
        # with t != t_end the field is read from its own run to t, and its
        # metadata is that run's
        *_, field = run_command("evolve", from_dict(fast_overrides(t=3.0)))
        *_, alone = run_command("evolve",
                                from_dict(fast_overrides(t=3.0, t_end=3.0)))
        assert np.array_equal(field.data, alone.data)
        assert field.metadata == alone.metadata | {"config":
                                                   field.metadata["config"]}
        assert field.metadata["t"] == pytest.approx(3.0)

    def test_compare_judges_the_written_fields(self, tmp_path):
        # at t != t_end, compare's field verdict is compare() on the field
        # CSVs that evolve and spatial write
        cfg = from_dict(fast_overrides(t=3.0))
        (report,) = run_command("compare", cfg)
        for command in ("evolve", "spatial"):
            for ds in run_command(command, cfg):
                write_dataset(ds, tmp_path / f"{ds.name}.csv")
        field = read_dataset(tmp_path / "field.csv")
        spatial = read_dataset(tmp_path / "spatial.csv")
        again = floquet_hhg.compare(solver.solve_resonance(cfg.model()),
                                    field=(spatial.column("x"), cfg.t,
                                           spatial.column("F_resonance"),
                                           field.column("F_total")))
        rows = dict(zip(report.metadata["check_names"],
                        report.column("value")))
        assert report.metadata["calibration"] == again.calibration
        assert rows["field_max_rel_dev"] == next(
            c.value for c in again.checks if c.name == "field_max_rel_dev")

    def test_compare_reevolves_to_the_field_time(self):
        # with t != t_end the field is read from its own run to t: its
        # checks and calibration are those of a run with t_end = t
        def report(**times):
            (ds,) = run_command("compare", from_dict(fast_overrides(**times)))
            rows = dict(zip(ds.metadata["check_names"], ds.column("value")))
            return ds.metadata["calibration"], [rows[name] for name in (
                "field_max_rel_dev", "causality_leak", "beat_frequency_dev",
                "diagonal_log_slope_rel_dev")]

        assert report(t=3.0, t_end=5.0) == report(t=3.0, t_end=3.0)

    def test_compare_discretizes_the_box_once(self, monkeypatch):
        # the runs to t_end and to t share one box
        boxes, build = [], cli.discretize

        def counted(*args):
            boxes.append(build(*args))
            return boxes[-1]

        monkeypatch.setattr(cli, "discretize", counted)
        (ds,) = run_command("compare", from_dict(fast_overrides(t=3.0)))
        assert len(boxes) == 1
        assert ds.metadata["dt"] == ds.metadata["field_dt"] == 1e-2

    def test_evolve_outputs(self):
        cfg = from_dict(fast_overrides())
        survival, photon, field = run_command("evolve", cfg)
        assert survival.column("P_survival")[0] == 1.0
        assert photon.metadata.get("warnings")  # t_end=5 is far from decayed
        assert field.metadata["t"] == pytest.approx(5.0)

    def test_photon_file_holds_the_box_once(self, tmp_path):
        # one row per integrated mode, each k > 0 once, ascending: the
        # mirror k < 0 repeats every value and is not written
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        assert main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        photons = read_dataset(tmp_path / "photon_spectrum.csv")
        k = photons.column("k")
        assert photons.n_rows == photons.metadata["n_retained"] == 100
        assert k[0] > 0.0 and np.all(np.diff(k) > 0.0)

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
        assert list(ds.metadata["failures"]) == ["1"]
        assert "branch point" in ds.metadata["failures"]["1"]

    def test_compare_report(self):
        cfg = from_dict(fast_overrides())
        (report,) = run_command("compare", cfg)
        names = report.metadata["check_names"]
        assert "survival_max_rel_dev" in names
        assert "beat_frequency_dev" in names
        assert report.n_rows == len(names)
        assert set(report.column("passed")) <= {0.0, 1.0}
        assert "calibration" in report.metadata
        # at t = 5 the beat span inside the light front, [2, 3], is too
        # short to read; every other check had something to read
        assert report.metadata["causes"] == {
            "beat_frequency_dev": "fewer than 16 points on [2, 3]"}

    def test_sweep_requires_section(self):
        cfg = from_dict(fast_overrides())
        with pytest.raises(ValueError, match="sweep"):
            run_command("sweep", cfg)

    def test_unknown_command_rejected(self):
        cfg = from_dict(MINIMAL)
        with pytest.raises(ValueError, match="unknown command"):
            run_command("render", cfg)


E, IE, ONE = "energy", "1/energy", "1"
SOLVER = ("solver",)
EVOLVE = ("delta_k", "dt", "n_retained", "norm_drift")

#: command -> (config extras, [(dataset, (column, unit) pairs, metadata
#: keys beyond artifact_version, config and xk_convention)] in order)
HEADERS = {
    "eigen": ({}, [
        ("pole", [("re_z", E), ("im_z", E), ("residual", E),
                  ("iterations", ONE), ("cf_depth", ONE),
                  ("half_width", ONE), ("re_N_d", ONE), ("im_N_d", ONE),
                  ("re_K_d", ONE), ("im_K_d", ONE)], SOLVER),
        ("coefficients", [("n", ONE), ("re_R", ONE), ("im_R", ONE),
                          ("re_L", ONE), ("im_L", ONE),
                          ("second_sheet", ONE)], SOLVER)]),
    "spectrum": ({}, [
        ("spectrum", [("k", E), ("S_total", IE), ("S_lorentz_sum", IE)]
         + [(f"S_mode_{m}", IE) for m in range(5)], SOLVER)]),
    "spatial": ({}, [
        ("spatial", [("x", IE), ("F_resonance", E)]
         + [(f"diag_m{m}", E) for m in range(5)] + [("interference", E)],
         SOLVER + ("t",))]),
    "evolve": ({}, [
        ("survival", [("t", IE), ("P_survival", ONE)], EVOLVE),
        ("photon_spectrum", [("k", E), ("S", IE)], EVOLVE + ("warnings",)),
        ("field", [("x", IE), ("F_total", E)], EVOLVE + ("t",))]),
    "compare": ({}, [
        ("report", [("check_id", ONE), ("value", ONE), ("tolerance", ONE),
                    ("passed", ONE)],
         SOLVER + ("dt", "field_dt", "check_names", "calibration", "passed",
                   "causes", "warnings"))]),
    # omega = 0.5 fails: the failure record is part of the header
    "sweep": ({"sweep": {"omega": {"min": 0.45, "max": 0.55, "count": 3}}}, [
        ("sweep", [("omega", E), ("A_over_omega", ONE), ("A", E),
                   ("re_z", E), ("im_z", E), ("residual", E),
                   ("iterations", ONE), ("status", ONE)], ("failures",))]),
}


class TestHeaders:
    @pytest.mark.parametrize("command", list(HEADERS))
    def test_header_pinned(self, tmp_path, capsys, command):
        # each written dataset's name, order, columns with their units and
        # top-level metadata keys, as a reader of the CSVs sees them
        extras, expected = HEADERS[command]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides(**extras)))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        paths = capsys.readouterr().out.split()
        assert [Path(p).name for p in paths] == \
            [f"{name}.csv" for name, _, _ in expected]
        for path, (name, columns, keys) in zip(paths, expected):
            ds = read_dataset(path)
            assert ds.name == name
            assert list(zip(ds.columns, ds.units)) == columns
            assert sorted(ds.metadata) == sorted(
                ("artifact_version", "config", "xk_convention") + keys)

    @pytest.mark.parametrize("command", list(HEADERS))
    def test_csv_is_a_plain_table(self, tmp_path, capsys, command):
        # on the reference config, each CSV is its column header and rows
        # alone: a plain table reader gets read_dataset's data bit for bit,
        # a sweep's NaN rows included
        extras, _ = HEADERS[command]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL | extras))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        for path in capsys.readouterr().out.split():
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert table.tobytes() == read_dataset(path).data.tobytes()

    def test_pole_row_is_the_solve(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        (row,) = read_dataset(tmp_path / "pole.csv").data
        s = solver.solve_resonance(parse_config(cfg_path.read_text()).model())
        assert tuple(row) == (
            s.z_d.real, s.z_d.imag, s.residual, s.iterations,
            s.cf_depth_used, s.R.size // 2, s.N_d.real, s.N_d.imag,
            s.K_d.real, s.K_d.imag)


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
        cfg_path.write_text(json.dumps(dict(MINIMAL, n_modes="2048")))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("key", [{"cf_depth": 64},
                                     {"pole_pairing": "outgoing"},
                                     {"with_oracle": True}, {"dt": 1e-2}],
                             ids=["cf_depth", "pole_pairing", "with_oracle",
                                  "dt"])
    def test_cf_depth_key_rejected(self, tmp_path, capsys, key):
        # the continued-fraction depth is chosen by the solver, not set;
        # the field always pairs outgoing pole waves; the integrator's
        # field is evolve's, its calibration compare's, not spatial's; and
        # the integrator's step is halved from oracle.DEFAULT_DT as needed
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL | key))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            f"error: unknown config keys: {list(key)}\n"

    # Python's json reads NaN and Infinity, in a config file or an
    # override, and an integer too large for a float
    @pytest.mark.parametrize("command, setting, override, key", [
        ("eigen", {"k_c": math.nan}, [], "k_c"),
        ("evolve", {"t_end": math.inf}, [], "t_end"),
        ("spatial", {"t": math.nan}, [], "t"),
        ("spatial", {}, ["--override", "x_grid.max=Infinity"], "x_grid.max"),
        ("eigen", {"epsilon_d": 10 ** 400}, [], "epsilon_d"),
        ("eigen", {}, ["--override", "lambda=1" + "0" * 400], "lambda"),
        ("eigen", {}, ["--override", "lambda=1" + "0" * 5000], "lambda"),
    ], ids=["k_c-nan", "t_end-inf", "t-nan", "x_grid-max-inf",
            "epsilon_d-overflow", "lambda-overflow", "lambda-over-long"])
    def test_non_finite_setting_exit_code(self, tmp_path, capsys, command,
                                          setting, override, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL | setting))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path), *override]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be finite, got ")
        assert list(tmp_path.glob("*.csv")) == []

    # each rejection of a setting, as main reports it
    @pytest.mark.parametrize("command, config, override, message", [
        ("eigen", MINIMAL | {"k_grid": 5}, [],
         "k_grid must be an object with min/max/count"),
        ("eigen", MINIMAL | {"k_grid": {"min": -1.0, "max": 1.0, "count": 9,
                                        "step": 0.25}}, [],
         "unknown keys in k_grid: ['step']"),
        ("eigen", MINIMAL | {"sweep": 3}, [], "sweep must be an object"),
        ("eigen", MINIMAL | {"sweep": {"lambda": {"min": 0.1, "max": 0.2,
                                                  "count": 2}}}, [],
         "unknown keys in sweep: ['lambda']"),
        ("eigen", MINIMAL | {"sweep": {}}, [],
         "sweep needs at least one of a_over_omega/omega"),
        ("eigen", [1, 2], [], "config must be a JSON object"),
        ("eigen", MINIMAL, ["epsilon_d.x=1"],
         "override 'epsilon_d.x' descends into a scalar"),
        ("eigen", MINIMAL, ["epsilon_d=abc"],
         "epsilon_d must be a number, got 'abc'"),
        ("evolve", MINIMAL | {"n_modes": 32}, [],
         "n_modes must be at least 64"),
        # the default k grid ends at |k| = 6.2, past a cutoff of 5
        ("spectrum", MINIMAL, ["k_c=5.0"], "momentum grid reaches |k| = "
         "6.2, not inside (-k_c, k_c) = (-5, 5)"),
    ], ids=["grid-scalar", "grid-key", "sweep-scalar", "sweep-axis",
            "sweep-empty", "config-list", "override-scalar",
            "override-non-json", "evolve-n_modes", "spectrum-k_c"])
    def test_rejected_setting_exit_code(self, tmp_path, capsys, command,
                                        config, override, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        overrides = [arg for item in override for arg in ("--override", item)]
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path), *overrides]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.glob("*.csv")) == []

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("{nope")
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["eigen", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path)]) == 1

    def test_non_convergence_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    def test_wide_cutoff_halves_the_step(self, tmp_path):
        # at k_c = 20 the norm drifts by 1.4e-7 over t_end = 5 at
        # oracle.DEFAULT_DT, past the integrator's gate; half the step
        # passes it, and both commands record the step they ran at
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            MINIMAL | {"k_c": 20.0, "t": 5.0, "t_end": 5.0}))
        for command, name in (("evolve", "survival"), ("compare", "report")):
            assert main([command, "--config", str(cfg_path),
                         "--out", str(tmp_path)]) == 0
            meta = read_dataset(tmp_path / f"{name}.csv").metadata
            assert meta["dt"] == 0.005
        assert meta["field_dt"] == 0.005
        times = read_dataset(tmp_path / "survival.csv").column("t")
        assert times.size == 1001 and times[1] == 0.005

    def test_drift_past_every_halving_exit_code(self, tmp_path, capsys,
                                                monkeypatch):
        # no step meets a zero gate: the message names the smallest tried
        monkeypatch.setattr(oracle, "NORM_DRIFT_TOL", 0.0)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        assert main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        smallest = oracle.DEFAULT_DT / 2 ** oracle.DT_HALVINGS
        assert err.startswith("non-convergence: norm drift ")
        assert err.endswith(f" even at dt={smallest}, the smallest step "
                            "tried\n")
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("key, value", [("root_tol", 1.0),
                                            ("max_iterations", 1),
                                            ("A", 2.4),
                                            ("sample_stride", 2),
                                            ("mode_window", 12),
                                            ("window", 32)],
                             ids=["root_tol", "max_iterations", "A",
                                  "sample_stride", "mode_window",
                                  "window"])
    @pytest.mark.parametrize("source", ["file", "override"])
    def test_solver_constant_key_rejected(self, tmp_path, capsys, key, value,
                                          source):
        # the bar of a verified pole and the iteration budget are solver
        # constants: a run cannot loosen them; the drive is set only as
        # A_over_omega, evolve keeps every step, and the observables sum
        # the solver's whole ladder
        cfg_path = tmp_path / "config.json"
        setting = {key: value} if source == "file" else {}
        cfg_path.write_text(json.dumps(MINIMAL | setting))
        override = ["--override", f"{key}={value}"] if source == "override" \
            else []
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path), *override]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown config keys") and key in err
        assert list(tmp_path.glob("*.csv")) == []

    def test_over_long_integer_file_exit_code(self, tmp_path, capsys):
        # past 4300 digits Python's json refuses to convert an integer
        # (json.dumps too, so the text is written by hand); the setting is
        # reported like any number beyond a float
        text = json.dumps(MINIMAL).replace('"lambda": 0.1',
                                           '"lambda": 1' + "0" * 5000)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == \
            "error: lambda must be finite, got inf\n"
        assert list(tmp_path.glob("*.csv")) == []

    def test_frozen_sheet_exit_code(self, tmp_path):
        # at lambda = 0.2 the Newton iterates leave a frozen second sheet
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL, **{"lambda": 0.2})))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2

    def test_overflowing_drive_exit_code(self, tmp_path, capsys):
        # no ladder support at A/omega = 2000: a typed failure, no hang
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL, A_over_omega=2000.0)))
        assert main(["eigen", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 2
        assert "overflows" in capsys.readouterr().err

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

    def test_compare_undriven_reports_every_check(self, tmp_path):
        # at A/omega = 0 the squared-Bessel law has no line at m >= 1, so
        # its ratio has nothing to divide by: each ratio row fails with
        # inf and a cause, and the report lists every check a driven run has
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(MINIMAL, A_over_omega=0.0,
                                            t=5.0, t_end=5.0)))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        report = read_dataset(tmp_path / "report.csv")
        names = report.metadata["check_names"]
        (driven,) = run_command("compare", from_dict(fast_overrides()))
        assert names == driven.metadata["check_names"]
        assert report.n_rows == len(names)
        ratios = [n for n in names if n.startswith("spectrum_ratio_")]
        assert len(ratios) == 6
        for name in ratios:
            assert math.isinf(report.column("value")[names.index(name)])
            assert report.metadata["causes"][name] \
                == f"no Bessel line at m = {name[-1]}: J_{name[-1]}(0) = 0"

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
        cfg_path.write_text(json.dumps(fast_overrides(t=25.0, t_end=25.0)))
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

    def test_compare_empty_momentum_grid_fails_spectrum_checks(self, tmp_path):
        # at box_length = 1 no retained mode lies strictly inside the
        # cutoff: the spectrum has no point to read, and each spectrum
        # check fails with inf and a cause instead of the run erring
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(dict(
            MINIMAL, box_length=1.0, t=0.5, t_end=0.5,
            x_grid={"min": -0.4, "max": 0.4, "count": 9})))
        assert main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 0
        report = read_dataset(tmp_path / "report.csv")
        names = report.metadata["check_names"]
        spectral = [n for n in names if n.startswith("spectrum_")]
        assert len(spectral) == 14
        for name in spectral:
            i = names.index(name)
            assert math.isinf(report.column("value")[i])
            assert report.column("passed")[i] == 0.0
            assert name in report.metadata["causes"]

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

    # the box is periodic: the emitter meets its own photons at
    # t = box_length, and a photon re-enters the x grid at
    # t = box_length - max|x|; past either the box answers wrongly: on
    # SMALL_BOX its survival rose from 0.0033 at t = 20 to 0.125 at t = 25
    @pytest.mark.parametrize("command, setting, key, end", [
        ("evolve", {"t": -1.0}, "t", 370.0),
        ("compare", {"t": -1.0}, "t", 370.0),
        ("evolve", {"t": 1e9}, "t", 370.0),
        ("evolve", {"t_end": 400.0}, "t_end", 400.0),
        ("compare", SMALL_BOX | {"t": 25.0, "t_end": 25.0}, "t_end", 20.0),
        ("evolve", SMALL_BOX | {"t": 15.0, "t_end": 15.0}, "t", 11.0),
    ], ids=["evolve-t-negative", "compare-t-negative", "t-huge",
            "t_end-at-box_length", "revival", "field-revival"])
    def test_past_the_box_horizon_exit_code(self, tmp_path, capsys, command,
                                            setting, key, end):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL | setting))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        L = setting.get("box_length", oracle.DEFAULT_BOX_LENGTH)
        assert capsys.readouterr().err == (
            f"error: {key}={setting[key]} must lie in (0, {end}): photons "
            f"circling box_length={L} return\n")
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("command", ["evolve", "compare"])
    def test_horizon_refused_before_the_box_steps(self, tmp_path, capsys,
                                                  monkeypatch, command):
        def unused(*args):
            raise AssertionError("the box stepped past a refused horizon")
        monkeypatch.setattr(oracle, "_lawson", unused)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL | {"t": -1.0}))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "error: t=-1.0 must lie in (0, 370.0): photons circling "
            "box_length=400.0 return\n")

    def test_rerun_into_same_out(self, tmp_path):
        # a rerun replaces every file and repeats it byte for byte
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
        assert first == second

    def test_override_flag(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        out = tmp_path / "ov"
        code = main(["spectrum", "--config", str(cfg_path), "--out", str(out),
                     "--override", "k_grid.count=101"])
        assert code == 0
        ds = read_dataset(out / "spectrum.csv")
        assert ds.n_rows == 101


    def test_override_adds_sweep_axis(self, tmp_path):
        # a config without a sweep section writes "sweep": null, and an
        # override descends into that null as into a missing section
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(MINIMAL))
        assert main(["sweep", "--config", str(cfg_path), "--out",
                     str(tmp_path), "--override",
                     'sweep.omega={"min": 1.0, "max": 1.2, "count": 2}']) == 0
        ds = read_dataset(tmp_path / "sweep.csv")
        assert ds.n_rows == 2
        assert ds.column("omega").tolist() == [1.0, 1.2]


class TestModuleEntry:
    @pytest.mark.parametrize("module", ["floquet_hhg", "floquet_hhg.cli"])
    def test_version(self, module):
        # ``python -m`` runs the package's and the CLI module's main guard
        src = str(Path(floquet_hhg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", module, "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == floquet_hhg.__version__ + "\n"


class TestImportPath:
    def test_commands_load_no_scipy(self, tmp_path):
        # the package runs on numpy alone; scipy serves the tests only,
        # and numpy.polynomial only the complete survival amplitude, which
        # no command calls.  Looking after a run also catches a lazy
        # import inside a solve.
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(fast_overrides()))
        src = str(Path(floquet_hhg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        for command in ("eigen", "compare"):
            script = (
                "import sys\n"
                "import floquet_hhg.cli as cli\n"
                f"code = cli.main([{command!r}, '--config', "
                f"{str(cfg_path)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] ==\n"
                "             'scipy' or m.startswith('numpy.polynomial')))\n"
                "raise SystemExit(code)\n")
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "[]", command
