"""Run configuration: JSON parsing, validation, defaults, round-tripping.

Configs are flat JSON objects; grids are nested {min, max, count} specs.
Every default is materialized at parse time and echoed into output
metadata, so any number in a data file traces back to the config.  The
drive amplitude is given either as ``A`` or as ``A_over_omega`` (exactly
one); unknown keys are hard errors.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .model import TWO_PI, Grid1D, ModelParams
from .solver import SolverOptions

COMMANDS = ("eigen", "spectrum", "spatial", "evolve", "compare", "sweep")


@dataclass(frozen=True)
class GridSpec:
    min: float
    max: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError("grid count must be at least 2")
        if not self.max > self.min:
            raise ValueError("grid max must exceed grid min")

    def to_grid(self, kind: str) -> Grid1D:
        return Grid1D.uniform(self.min, self.max, self.count, kind)

    def to_dict(self) -> dict:
        return {"min": self.min, "max": self.max, "count": self.count}


_GRID_KEYS = {"min", "max", "count"}

_DEFAULTS: dict = {
    "lambda": 0.1,
    "k_c": TWO_PI,
    "window": 32,
    "root_tol": 1e-12,
    "max_iterations": 60,
    "mode_window": 12,
    "k_grid": {"min": -6.2, "max": 6.2, "count": 1241},
    "x_grid": {"min": -30.0, "max": 30.0, "count": 1201},
    "t": 20.0,
    "box_length": 400.0,
    "n_modes": 8192,
    "dt": 1e-2,
    "t_end": 20.0,
    "sample_stride": 1,
    "with_oracle": False,
    "sweep": None,
}

_REQUIRED = ("epsilon_d", "omega")
_KNOWN_KEYS = set(_DEFAULTS) | set(_REQUIRED) | {"A", "A_over_omega"}


@dataclass(frozen=True)
class RunConfig:
    """Fully materialized run configuration."""

    epsilon_d: float
    omega: float
    A: float
    amplitude_key: str  # which of A / A_over_omega the user supplied
    lambda_: float
    k_c: float
    window: int
    root_tol: float
    max_iterations: int
    mode_window: int
    k_grid: GridSpec
    x_grid: GridSpec
    t: float
    box_length: float
    n_modes: int
    dt: float
    t_end: float
    sample_stride: int
    with_oracle: bool
    sweep: dict | None = field(default=None)

    def model(self) -> ModelParams:
        return ModelParams(epsilon_d=self.epsilon_d, A=self.A,
                           omega=self.omega, lambda_=self.lambda_,
                           k_c=self.k_c)

    def solver_options(self) -> SolverOptions:
        return SolverOptions(window=self.window, root_tol=self.root_tol,
                             max_iterations=self.max_iterations)

    def to_dict(self) -> dict:
        out: dict = {"epsilon_d": self.epsilon_d, "omega": self.omega}
        if self.amplitude_key == "A_over_omega":
            out["A_over_omega"] = self.A / self.omega
        else:
            out["A"] = self.A
        for key in _DEFAULTS:
            value = getattr(self, "lambda_" if key == "lambda" else key)
            out[key] = value.to_dict() if isinstance(value, GridSpec) \
                else value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


_TYPE_NAMES = {bool: "a boolean", int: "an integer", float: "a number",
               str: "a string"}


def _typed(key: str, value, kind: type):
    """``value`` checked against the JSON type ``kind`` of its default: a
    number may be an int, but a bool is no number and 40.7 no integer."""
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ValueError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    return value


def _parse_grid(key: str, raw) -> GridSpec:
    if not isinstance(raw, dict):
        raise ValueError(f"{key} must be an object with min/max/count")
    unknown = set(raw) - _GRID_KEYS
    if unknown:
        raise ValueError(f"unknown keys in {key}: {sorted(unknown)}")
    missing = _GRID_KEYS - set(raw)
    if missing:
        raise ValueError(f"{key} is missing {sorted(missing)}")
    spec = {name: _typed(f"{key}.{name}", raw[name],
                         int if name == "count" else float)
            for name in ("min", "max", "count")}
    try:
        return GridSpec(**spec)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _parse_sweep(raw) -> dict | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError("sweep must be an object")
    unknown = set(raw) - {"a_over_omega", "omega"}
    if unknown:
        raise ValueError(f"unknown keys in sweep: {sorted(unknown)}")
    if not raw:
        raise ValueError("sweep needs at least one of a_over_omega/omega")
    out = {}
    for key, val in raw.items():
        out[key] = _parse_grid(f"sweep.{key}", val).to_dict()
    return out


def from_dict(raw: dict) -> RunConfig:
    """Validate a config mapping and materialize all defaults."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in _REQUIRED:
        if key not in raw:
            raise ValueError(f"config is missing required key {key!r}")
    has_a = "A" in raw
    has_ratio = "A_over_omega" in raw
    if has_a == has_ratio:
        raise ValueError("config must set exactly one of A or A_over_omega")

    omega = _typed("omega", raw["omega"], float)
    amplitude_key = "A_over_omega" if has_ratio else "A"
    amplitude = _typed(amplitude_key, raw[amplitude_key], float)
    if has_ratio:
        if omega <= 0.0:
            raise ValueError("omega must be positive")
        amplitude *= omega

    fields = {}
    for key, default in _DEFAULTS.items():
        value = raw.get(key, default)
        if key.endswith("_grid"):
            value = _parse_grid(key, value)
        elif key == "sweep":
            value = _parse_sweep(value)
        else:
            value = _typed(key, value, type(default))
        fields["lambda_" if key == "lambda" else key] = value
    cfg = RunConfig(epsilon_d=_typed("epsilon_d", raw["epsilon_d"], float),
                    omega=omega, A=amplitude, amplitude_key=amplitude_key,
                    **fields)
    cfg.model()            # field-by-field validation with named errors
    cfg.solver_options()
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse config JSON text, reporting malformed JSON with position."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    return from_dict(raw)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``key=value`` overrides (dotted paths reach into grids)."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        target = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = target.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"override {key!r} descends into a scalar")
            target = node
        target[parts[-1]] = parsed
    return out
