"""The workloads: seeded inputs, the timed op, and its output checks.

Each workload draws a fixed list of ops (one *pass*) from its seed and
names its op rate at the speed of its reference kernel.  A run does
a fixed number of whole passes, sized from ``--seconds`` and that rate,
so a seed and a run length fix every op a run attempts, and with them the
set of failing ops and ``fail_frac``.  ``run`` is the only
timed call; ``check`` runs outside the timing and returns the names of
the output checks the op failed, plus a sha256 digest of its CSV data
files (not the sidecars, which carry wall time).

Each workload also names a *reference kernel*: a fixed piece of work that
uses only Python and numpy, never the package, with the instruction mix of
the workload's op.  The benchmark times it between ops and expresses op
times at the reference speed (see worker.py), which takes out the host's
own speed swings while leaving every change to the package in the figure.
"""
from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import floquet_hhg.cli as cli
from floquet_hhg.compare import CompareSpec
from floquet_hhg.dataset import read_dataset
from floquet_hhg.model import make_model
from floquet_hhg.oracle import NORM_DRIFT_TOL
from floquet_hhg.solver import (SolverOptions, floquet_c_product,
                                solve_resonance)

#: Draw order matters: the same seed must give the same points.
_AXES = ("epsilon_d", "omega", "A_over_omega", "lambda")


def _draw(rng: np.random.Generator, ranges: dict, n: int) -> list[dict]:
    cols = [rng.uniform(*ranges[axis], n) for axis in _AXES]
    return [{axis: float(col[i]) for axis, col in zip(_AXES, cols)}
            for i in range(n)]


def scalar_reference() -> complex:
    """Pure-Python complex scalar work, as in a pole solve: a continued
    fraction whose levels each call a small function with square roots."""
    def level(z: complex, n: int, tail: complex) -> complex:
        w = z + 1.2 * (n % 24)
        return 1.0 / (w - 0.05 * cmath.sqrt(w - 6.28) - 0.01 * tail)

    acc = 0j
    for n in range(1, 600):
        acc = level(0.3 - 0.01j, n, acc)
    return acc


_REF_K = np.linspace(-6.28, 6.28, 1600)
_REF_V = np.sqrt(np.abs(_REF_K)) + 0.1


def vector_reference() -> np.ndarray:
    """Small-array numpy work, as in an oracle RK4 step: per-mode updates
    and a coupling sum over a 1600-mode complex vector."""
    y = np.ones(_REF_K.size, dtype=complex)
    yd = 1.0 + 0j
    for _ in range(40):
        dk = -1j * (_REF_K * y + 0.05 * _REF_V * yd)
        yd = yd - 5e-5j * np.sum(_REF_V * y)
        y = y + 1e-3 * dk
    return y


@dataclass(frozen=True)
class Op:
    index: int
    command: str
    inputs: dict
    #: argument lists of the ``cli.main`` calls the op makes, in order
    argv: tuple[tuple[str, ...], ...] = ()
    out_dir: Path | None = None


class OpFailed(Exception):
    """A CLI op that exited non-zero; carries the exit code and message."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code

    @property
    def kind(self) -> str:
        # cli.main maps ConvergenceError to 2 and input/IO errors to 1
        return {2: "ConvergenceError (exit 2)"}.get(
            self.code, f"exit {self.code}")


class PoleScatter:
    """Independent pole solves over the whole drive-parameter box.  A run
    is one pass over ``n_ops`` distinct points, so no point repeats."""

    name = "pole-scatter"
    #: ops per second at the reference speed (ref_nominal_s below), which
    #: sizes a run to take about ``--seconds`` of op time at that speed
    nominal_ops_per_s = 80.0
    #: reported tail; a 45 s run has 3600 ops, so 35 or so lie beyond it
    tail_percentile = 99.0
    #: attribute holding the package entry point, and its span name
    entry = ("solve", "solver.solve_resonance")
    reference = staticmethod(scalar_reference)
    #: reference calls before each op, and the reference's median time on
    #: the machine the benchmark was tuned on (2-vCPU Intel Xeon VM, Python
    #: 3.11, numpy 2.4), so that op times read as ms at that speed
    ref_reps = 1
    ref_nominal_s = 3.5e-4
    ranges = {"epsilon_d": (0.8, 1.5), "omega": (0.8, 1.6),
              "A_over_omega": (0.5, 3.0), "lambda": (0.02, 0.15)}

    def __init__(self, seed: int, workdir: Path, n_ops: int) -> None:
        points = _draw(np.random.default_rng(seed), self.ranges, n_ops)
        self.ops = [Op(i, "solve", p) for i, p in enumerate(points)]
        self.solve = solve_resonance
        self.root_tol = SolverOptions().root_tol

    def run(self, op: Op):
        p = op.inputs
        return self.solve(make_model(p["epsilon_d"],
                                     p["A_over_omega"] * p["omega"],
                                     p["omega"], p["lambda"]))

    def check(self, op: Op, state) -> tuple[list[str], str | None]:
        bad = []
        if not state.z_d.imag <= 0.0:
            bad.append("im_z_d_positive")
        if not state.residual < self.root_tol:
            bad.append("residual_above_root_tol")
        if not abs(floquet_c_product(state, 0, 0) - 1.0) < 1e-8:
            bad.append("c_product_not_unit")
        return bad, None


#: Data files each command writes, in the order it prints them.
_PRODUCTS = {
    "evolve": ("survival", "photon_spectrum", "field"),
    "compare": ("report",),
}


def _compare_check_names() -> set[str]:
    """Every check ``compare`` runs when given all observables."""
    modes = CompareSpec().peak_modes
    names = {"survival_max_rel_dev", "field_max_rel_dev", "causality_leak",
             "beat_frequency_dev", "diagonal_log_slope_rel_dev"}
    for label in ("floquet", "oracle"):
        names |= {f"spectrum_peak_position_{label}_m{m}" for m in range(modes)}
        names |= {f"spectrum_ratio_{label}_m{m}" for m in range(1, modes)}
    return names


_COMPARE_CHECKS = _compare_check_names()


def _check_dataset(ds, sidecar: dict) -> list[str]:
    """Command-specific checks on one re-read data file."""
    if ds.name == "survival":
        if not sidecar["metadata"]["norm_drift"] <= NORM_DRIFT_TOL:
            return ["norm_drift_above_tol"]
    elif ds.name == "report":
        names = sidecar["metadata"]["check_names"]
        if not _COMPARE_CHECKS <= set(names) or ds.n_rows != len(names):
            return ["compare_report_incomplete"]
    return []


class OracleValidate:
    """RK4 oracle runs at weak coupling.  One op is a pair of in-process
    ``cli.main`` calls at one point: ``compare`` on the default box
    (L=400, 800 retained modes) and ``evolve`` on the fine box (L=800,
    1600 retained modes), which separates the RK4 step's per-call overhead
    from its per-mode work.  Both evolve to ``t = t_end = 5``, the shortest
    time at which every ``compare`` check has points to fit, so a run
    holds enough ops for a tail.

    Configs are written once per point during set-up; each command has
    its own ``--out`` directory under ``workdir``, overwritten per op.
    """

    name = "oracle-validate"
    n_points = 4
    nominal_ops_per_s = 0.7
    #: reported tail; a 45 s run has 32 ops, so 12 lie beyond it
    tail_percentile = 60.0
    entry = ("main", "cli.main")
    reference = staticmethod(vector_reference)
    ref_reps = 8
    ref_nominal_s = 1.2e-3
    ranges = {"epsilon_d": (0.95, 1.05), "omega": (1.15, 1.25),
              "A_over_omega": (1.5, 2.5), "lambda": (0.04, 0.06)}
    horizon = {"t": 5.0, "t_end": 5.0}
    fine_box = {"box_length": 800.0, "n_modes": 16384}
    commands = ("compare", "evolve")

    def __init__(self, seed: int, workdir: Path, n_ops: int) -> None:
        # a pass is always n_points ops; n_ops only sets how many passes
        points = _draw(np.random.default_rng(seed), self.ranges,
                       self.n_points)
        self.ops = []
        for i, point in enumerate(points):
            argv = []
            for command in self.commands:
                config = point | self.horizon | (
                    self.fine_box if command == "evolve" else {})
                path = workdir / f"point{i}-{command}.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                argv.append((command, "--config", str(path),
                             "--out", str(workdir / command)))
            self.ops.append(Op(i, "compare+evolve", point, tuple(argv),
                               workdir))
        self.main = cli.main

    def run(self, op: Op) -> list[str]:
        printed = []
        for argv in op.argv:
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                code = self.main(list(argv))
            if code != 0:
                raise OpFailed(code, f"{argv[0]}: {err.getvalue().strip()}")
            printed.append(out.getvalue())
        return printed

    def check(self, op: Op, printed: list[str]) -> tuple[list[str], str]:
        bad = []
        digest = hashlib.sha256()
        for command, stdout in zip(self.commands, printed):
            paths = [op.out_dir / command / f"{name}.csv"
                     for name in _PRODUCTS[command]]
            if stdout.splitlines() != [str(p) for p in paths]:
                bad.append(f"{command}_printed_paths")
            for path in paths:
                raw = path.read_bytes()
                digest.update(f"{command}/{path.name} "
                              f"{hashlib.sha256(raw).hexdigest()}\n".encode())
                sidecar = json.loads(path.with_suffix(".csv.meta.json")
                                     .read_text(encoding="utf-8"))
                ds = read_dataset(path)
                if (ds.data.shape != (sidecar["n_rows"],
                                      len(sidecar["columns"]))
                        or list(ds.columns) != sidecar["columns"]):
                    bad.append(f"{path.stem}_reread_shape")
                    continue
                bad += _check_dataset(ds, sidecar)
        return bad, digest.hexdigest()


WORKLOADS = {w.name: w for w in (PoleScatter, OracleValidate)}
