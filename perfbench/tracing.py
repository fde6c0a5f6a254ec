"""Span tracer that wraps the package's public functions from outside.

Each wrapped function is replaced on the module that *calls* it (for
example ``floquet_hhg.solver.sigma`` or ``floquet_hhg.cli.evolve``), so
nothing under ``src/`` changes.  A span records its name, start, end,
parent span and op id.  Spans live in flat arrays in memory, up to
``SPAN_CAP`` of them, and are written out when the run ends; beyond the
cap they still feed the per-name and per-layer totals, which are kept
online for every span.  A span's self time is its duration minus the time
its child spans cover.  The layer of a span is the part of its name
before the first dot, i.e. the module that defines the function.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Spans kept individually (40 bytes each); totals count them all.
SPAN_CAP = 400_000

#: (calling module, name bound there, span name).  A binding that a later
#: version of the package no longer has is skipped and listed as unbound.
BINDINGS = (
    ("solver", "sigma", "self_energy.sigma"),
    ("solver", "sigma_prime", "self_energy.sigma_prime"),
    ("solver", "select_sheet", "self_energy.select_sheet"),
    ("solver", "perturbative_eigenvalue",
     "perturbation.perturbative_eigenvalue"),
    ("solver", "right_coefficients", "solver.right_coefficients"),
    ("solver", "left_coefficients", "solver.left_coefficients"),
    ("solver", "normalize", "solver.normalize"),
    ("perturbation", "sigma", "self_energy.sigma"),
    ("perturbation", "bessel_j", "perturbation.bessel_j"),
    ("perturbation", "bessel_weight_table", "perturbation.bessel_weight_table"),
    ("compare", "bessel_j", "perturbation.bessel_j"),
    ("cli", "from_dict", "config.from_dict"),
    ("cli", "apply_overrides", "config.apply_overrides"),
    ("cli", "materialize", "config.materialize"),
    ("cli", "solve_resonance", "solver.solve_resonance"),
    ("cli", "hhg_spectrum", "observables.hhg_spectrum"),
    ("cli", "resonance_spatial_field", "observables.resonance_spatial_field"),
    ("cli", "survival_amplitude_floquet",
     "observables.survival_amplitude_floquet"),
    ("cli", "discretize", "oracle.discretize"),
    ("cli", "evolve", "oracle.evolve"),
    ("cli", "photon_spectrum", "oracle.photon_spectrum"),
    ("cli", "spatial_field", "oracle.spatial_field"),
    ("cli", "survival_probability", "oracle.survival_probability"),
    ("cli", "compare", "compare.compare"),
    ("cli", "write_dataset", "dataset.write_dataset"),
)

#: Span of one whole op, opened by the benchmark around each timed call.
OP_SPAN = "harness.op"


class Tracer:
    """In-memory span recorder plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.recording = False
        self.op_id = -1
        self.n_spans = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.layer_busy: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.unbound: list[str] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._name = array("l")
        self._op = array("l")
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks = {
            "solver.solve_resonance": self._on_solve,
            "oracle.evolve": self._on_evolve,
            "compare.compare": self._on_compare,
            "dataset.write_dataset": self._on_write,
        }

    # -- wrapping -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped in a span named ``name``."""
        nid = self._intern(name)
        layer = name.split(".", 1)[0]
        hook = self._hooks.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            t0 = clock()
            idx = -1
            if self.n_spans < SPAN_CAP:
                idx = self.n_spans
                self._start.append(t0)
                self._end.append(t0)
                self._parent.append(stack[-1][2] if stack else -1)
                self._name.append(nid)
                self._op.append(self.op_id)
            self.n_spans += 1
            frame = [t0, 0.0, idx, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                self.calls[nid] += 1
                self.total[nid] += dur
                self.self_time[nid] += own
                self.layer_self[layer] += own
                if stack:
                    stack[-1][1] += dur
                if not stack or stack[-1][3] != layer:
                    self.layer_busy[layer] += dur
                if idx >= 0:
                    self._end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of ``BINDINGS`` in the imported package."""
        for mod_name, attr, span in BINDINGS:
            module = importlib.import_module(f"floquet_hhg.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.unbound.append(f"{mod_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, span))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- counters read from arguments and results ---------------------------

    def _on_solve(self, args, kwargs, state, dur) -> None:
        self.counters["solve.iterations"] += state.iterations
        self.counters["solve.cf_depth"] += state.cf_depth_used

    def _on_evolve(self, args, kwargs, traj, dur) -> None:
        system = kwargs["system"] if "system" in kwargs else args[0]
        steps = max(1, round(traj.final.t / traj.dt))
        box = f"box{system.box_length:g}"
        self.counters[f"evolve.{box}.steps"] += steps
        self.counters[f"evolve.{box}.s"] += dur
        self.counters["evolve.steps"] += steps
        self.counters["evolve.bytes"] += steps * rk4_step_bytes(
            system.n_retained)
        self.counters["evolve.norm_drift_max"] = max(
            self.counters["evolve.norm_drift_max"], traj.norm_drift)

    def _on_compare(self, args, kwargs, report, dur) -> None:
        self.counters["compare.checks_total"] += len(report.checks)
        self.counters["compare.checks_passed"] += sum(
            1 for c in report.checks if c.passed)

    def _on_write(self, args, kwargs, path, dur) -> None:
        path = Path(path)
        sidecar = path.with_suffix(path.suffix + ".meta.json")
        self.counters["dataset.bytes"] += (path.stat().st_size
                                           + sidecar.stat().st_size)

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, total seconds, self seconds) of one span name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def table(self) -> dict:
        return {name: {"calls": self.calls[i], "total_s": self.total[i],
                       "self_s": self.self_time[i]}
                for i, name in enumerate(self.names)}

    def save_spans(self, path: Path) -> None:
        """Write the kept spans as a ``.npz`` of parallel arrays."""
        np.savez(path, start=np.frombuffer(self._start, dtype=np.float64),
                 end=np.frombuffer(self._end, dtype=np.float64),
                 parent=np.frombuffer(self._parent, dtype=np.int64),
                 name=np.frombuffer(self._name, dtype=np.int64),
                 op=np.frombuffer(self._op, dtype=np.int64),
                 names=np.array(self.names))


def rk4_step_bytes(n_modes: int) -> int:
    """Bytes one classical RK4 step moves, computed from array sizes.

    Counts each complex (16 B) or real (8 B) mode vector the step names
    once per use and ignores numpy temporaries and caches: four
    right-hand sides each read a stage state, V and |k| and write a
    derivative (48 B/mode); three stage states each read the state and a
    derivative and write the stage (48 B/mode); the update reads the
    state and four derivatives and writes the state (96 B/mode).
    """
    return n_modes * (4 * 48 + 3 * 48 + 96)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase of ``ops`` attempted ops."""
    per_op = 1.0 / ops
    c = tracer.counters

    def calls(name):
        return tracer.stat(name)[0]

    def total(name):
        return tracer.stat(name)[1]

    def per_call(name, scale):
        n, t, _ = tracer.stat(name)
        return t / n * scale if n else 0.0

    solves = calls("solver.solve_resonance")
    evolves = calls("oracle.evolve")
    compares = calls("compare.compare")
    write_s = total("dataset.write_dataset")

    def us_per_step(box):
        steps = c[f"evolve.{box}.steps"]
        return c[f"evolve.{box}.s"] / steps * 1e6 if steps else 0.0

    m = {
        "self_energy.sigma.calls_per_op":
            (calls("self_energy.sigma") * per_op, "count"),
        "self_energy.sigma_prime.calls_per_op":
            (calls("self_energy.sigma_prime") * per_op, "count"),
        "self_energy.busy_ms_per_op":
            (tracer.layer_busy["self_energy"] * 1e3 * per_op, "ms"),
        "perturbation.busy_ms_per_op":
            (tracer.layer_busy["perturbation"] * 1e3 * per_op, "ms"),
        "perturbation.bessel_j.calls_per_op":
            (calls("perturbation.bessel_j") * per_op, "count"),
        "solver.solves_per_op": (solves * per_op, "count"),
        "solver.self_ms_per_op":
            (tracer.stat("solver.solve_resonance")[2] * 1e3 * per_op, "ms"),
        "solver.coefficients_ms_per_op":
            ((total("solver.right_coefficients")
              + total("solver.left_coefficients")) * 1e3 * per_op, "ms"),
        "solver.normalize_ms_per_op":
            (total("solver.normalize") * 1e3 * per_op, "ms"),
        "solver.newton_iterations_mean":
            (c["solve.iterations"] / solves if solves else 0.0, "count"),
        "solver.cf_depth_mean":
            (c["solve.cf_depth"] / solves if solves else 0.0, "count"),
        "observables.hhg_spectrum.ms_per_call":
            (per_call("observables.hhg_spectrum", 1e3), "ms"),
        "observables.resonance_spatial_field.ms_per_call":
            (per_call("observables.resonance_spatial_field", 1e3), "ms"),
        "observables.survival_amplitude_floquet.ms_per_call":
            (per_call("observables.survival_amplitude_floquet", 1e3), "ms"),
        "oracle.evolve.s_per_call": (per_call("oracle.evolve", 1.0), "s"),
        "oracle.evolve.us_per_step.box400": (us_per_step("box400"), "us"),
        "oracle.evolve.us_per_step.box800": (us_per_step("box800"), "us"),
        "oracle.evolve.bytes_per_step_computed":
            (c["evolve.bytes"] / c["evolve.steps"]
             if c["evolve.steps"] else 0.0, "B"),
        "oracle.evolve.calls_per_op": (evolves * per_op, "count"),
        "oracle.evolve.norm_drift_max": (c["evolve.norm_drift_max"], "1"),
        "oracle.discretize.ms_per_call":
            (per_call("oracle.discretize", 1e3), "ms"),
        "oracle.photon_spectrum.ms_per_call":
            (per_call("oracle.photon_spectrum", 1e3), "ms"),
        "oracle.spatial_field.ms_per_call":
            (per_call("oracle.spatial_field", 1e3), "ms"),
        "compare.compare.ms_per_call":
            (per_call("compare.compare", 1e3), "ms"),
        "compare.checks_passed":
            (c["compare.checks_passed"] / compares if compares else 0.0,
             "count"),
        "compare.checks_total":
            (c["compare.checks_total"] / compares if compares else 0.0,
             "count"),
        "dataset.write_dataset.ms_per_call":
            (per_call("dataset.write_dataset", 1e3), "ms"),
        "dataset.bytes_per_op": (c["dataset.bytes"] * per_op, "B"),
        "dataset.write_MBps":
            (c["dataset.bytes"] / write_s / 1e6 if write_s else 0.0, "MB/s"),
        "config.busy_ms_per_op":
            (tracer.layer_busy["config"] * 1e3 * per_op, "ms"),
        "cli.self_ms_per_op":
            (tracer.stat("cli.main")[2] * 1e3 * per_op, "ms"),
    }
    return m


def self_time_closure(tracer: Tracer, ops: int) -> dict:
    """Layer self times per op beside the traced op duration per op.

    Every span nests inside the op span, so the self times telescope:
    their sum equals the op spans' total duration.
    """
    layers = {layer: t * 1e3 / ops for layer, t in
              sorted(tracer.layer_self.items())}
    return {"layer_self_ms_per_op": layers,
            "layer_self_sum_ms_per_op": sum(layers.values()),
            "op_span_ms_per_op": tracer.stat(OP_SPAN)[1] * 1e3 / ops}
