"""Run configuration: JSON parsing, validation, defaults, round-tripping.

Configs are flat JSON objects; grids are nested {min, max, count} specs.
Each setting's default is declared once, on its ``RunConfig`` field; every
default is materialized at parse time and echoed into output metadata, so
any number in a data file traces back to the config.  The drive is given
as ``A_over_omega``, the Bessel argument of the Floquet ladder, and echoed
as given; unknown keys and non-finite numbers are hard errors.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .model import ModelParams
from .oracle import DEFAULT_BOX_LENGTH, DEFAULT_N_MODES, DEFAULT_T_END


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid of ``count`` points from ``min`` to ``max``."""

    min: float
    max: float
    count: int

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError("grid count must be at least 2")
        if not self.max > self.min:
            raise ValueError("grid max must exceed grid min")

    def points(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.count)


_GRID_KEYS = {"min", "max", "count"}


@dataclass(frozen=True)
class RunConfig:
    """Fully materialized run configuration: one field per config key; the
    defaulted fields are the optional keys, each with its default."""

    epsilon_d: float
    omega: float
    A_over_omega: float
    lambda_: float = 0.1
    k_c: float = ModelParams.k_c
    k_grid: GridSpec = GridSpec(-6.2, 6.2, 1241)
    x_grid: GridSpec = GridSpec(-30.0, 30.0, 1201)
    t: float = 20.0
    box_length: float = DEFAULT_BOX_LENGTH
    n_modes: int = DEFAULT_N_MODES
    t_end: float = DEFAULT_T_END
    sweep: dict[str, GridSpec] | None = None  # axis name -> grid

    def model(self) -> ModelParams:
        return ModelParams(epsilon_d=self.epsilon_d,
                           A=self.A_over_omega * self.omega,
                           omega=self.omega, lambda_=self.lambda_,
                           k_c=self.k_c)

    def to_dict(self) -> dict:
        """The config keys, in field order, grids as plain dicts."""
        return dict(zip(_KEYS, asdict(self).values()))


#: Config key -> field (``lambda`` is a Python keyword, so its field is
#: ``lambda_``); the required keys are the numbers without a default.
_KEYS = {f.name.removesuffix("_"): f.name for f in fields(RunConfig)}
_REQUIRED = tuple(f.name for f in fields(RunConfig) if f.default is MISSING)

_TYPE_NAMES = {int: "an integer", float: "a number"}


def _typed(key: str, value, kind: type):
    """``value`` checked against the JSON type ``kind`` of its default: a
    number may be an int, but a bool is no number, 40.7 no integer, and
    NaN, infinity (which Python's json accepts) or an integer beyond the
    largest float no setting."""
    if kind is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # an integer beyond the largest float
            raise ValueError(f"{key} must be finite, got {value!r}") from None
    if type(value) is not kind:
        raise ValueError(f"{key} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
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


def _parse_sweep(raw) -> dict[str, GridSpec] | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValueError("sweep must be an object")
    unknown = set(raw) - {"a_over_omega", "omega"}
    if unknown:
        raise ValueError(f"unknown keys in sweep: {sorted(unknown)}")
    if not raw:
        raise ValueError("sweep needs at least one of a_over_omega/omega")
    grids = {key: _parse_grid(f"sweep.{key}", val) for key, val in raw.items()}
    if "omega" in grids and not grids["omega"].min > 0.0:
        raise ValueError(f"sweep.omega: grid min must be positive, got "
                         f"{grids['omega'].min!r}")
    return grids


def from_dict(raw: dict) -> RunConfig:
    """Validate a config mapping and materialize all defaults."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in _REQUIRED:
        if key not in raw:
            raise ValueError(f"config is missing required key {key!r}")

    settings = {key: _typed(key, raw[key], float) for key in _REQUIRED}
    for key, name in _KEYS.items():
        if key not in raw or name in settings:
            continue  # a required number, or the field's default
        default = getattr(RunConfig, name)
        if key == "sweep":
            settings[name] = _parse_sweep(raw[key])
        elif isinstance(default, GridSpec):
            settings[name] = _parse_grid(key, raw[key])
        else:
            settings[name] = _typed(key, raw[key], type(default))
    cfg = RunConfig(**settings)
    cfg.model()            # field-by-field validation with named errors
    return cfg


def _json_int(text: str) -> int | float:
    """A JSON integer; one beyond Python's digit limit for int conversion
    reads as a float (inf), so its key's own check reports it."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def parse_config(text: str) -> RunConfig:
    """Parse config JSON text, reporting malformed JSON with position."""
    try:
        raw = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config is not valid JSON: {exc}") from None
    return from_dict(raw)


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply ``key=value`` overrides (dotted paths reach into grids, and
    into a missing or null section as into an empty one)."""
    out = json.loads(json.dumps(raw))  # deep copy, JSON types only
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        try:
            parsed = json.loads(value, parse_int=_json_int)
        except json.JSONDecodeError:
            parsed = value
        target = out
        parts = key.split(".")
        for part in parts[:-1]:
            if target.get(part) is None:
                target[part] = {}
            target = target[part]
            if not isinstance(target, dict):
                raise ValueError(f"override {key!r} descends into a scalar")
        target[parts[-1]] = parsed
    return out
