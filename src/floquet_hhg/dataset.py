"""Bit-stable dataset serialization: a CSV data file that holds only its
column header and rows, plus a JSON sidecar that holds its name, columns,
units, row count and metadata.

Both files are deterministic for identical configurations: the sidecar is
canonical JSON (string keys, sorted), floats are written with 17 significant
digits, line endings are ``\\n`` and no timestamp enters either file. Both
are written as new files (the old path is unlinked first, so a link there is
replaced, not written through) and without ``fsync``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


def _json_default(value):
    """``json``'s hook for metadata values it cannot encode: a complex
    number becomes {"re", "im"}, a numpy scalar or array its ``tolist()``."""
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled numeric table plus run metadata; the unit of CLI output."""

    name: str
    columns: tuple[str, ...]
    units: tuple[str, ...]
    data: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=float)
        if data.size == 0:
            data = data.reshape(0, len(self.columns))
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise ValueError(
                f"data shape {data.shape} does not match "
                f"{len(self.columns)} columns")
        if len(self.units) != len(self.columns):
            raise ValueError("units must parallel columns")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "units", tuple(self.units))

    @property
    def n_rows(self) -> int:
        return int(self.data.shape[0])

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in dataset {self.name!r}")
        return self.data[:, idx]


def _write_new(path: Path, text: str) -> None:
    # unlink first: a new file is much cheaper than truncating an old one
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def write_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write the CSV data file and its JSON metadata sidecar.

    The pair re-reads bit-identically through ``read_dataset``. Each file is
    written as a new file: whatever is at the path, a symlink or hard link
    included, is unlinked and replaced rather than written through. No
    ``fsync`` is made, so a rerun is as durable as a first run into an
    empty directory.
    """
    path = Path(path)
    sidecar = path.with_suffix(path.suffix + ".meta.json")
    sidecar.unlink(missing_ok=True)  # a cut-short rerun leaves none stale
    header = ",".join(f"{c} [{u}]" for c, u in zip(dataset.columns,
                                                  dataset.units))
    row_format = ",".join(["%.17g"] * len(dataset.columns)) + "\n"
    rows = row_format * dataset.n_rows % tuple(dataset.data.ravel().tolist())
    _write_new(path, f"{header}\n{rows}")

    payload = {
        "dataset": dataset.name,
        "columns": list(dataset.columns),
        "units": list(dataset.units),
        "n_rows": dataset.n_rows,
        "metadata": dataset.metadata,
    }
    _write_new(sidecar,
               json.dumps(payload, default=_json_default, sort_keys=True,
                          separators=(",", ":")) + "\n")
    return path


def read_dataset(path: str | Path) -> Dataset:
    """Parse a dataset written by ``write_dataset``: the table from the CSV,
    the name and metadata from a sidecar that agrees with the table."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path} is not a dataset file")
    columns, units = [], []
    for cell in lines[0].split(","):
        if not cell.endswith("]") or " [" not in cell:
            raise ValueError(f"malformed column header {cell!r}")
        cname, unit = cell.rsplit(" [", 1)
        columns.append(cname)
        units.append(unit[:-1])
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    meta_path = path.with_suffix(path.suffix + ".meta.json")
    try:
        payload = json.loads(meta_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ValueError(f"{path} has no sidecar {meta_path}") from None
    table = {"columns": columns, "units": units, "n_rows": len(rows)}
    if wrong := [key for key in table if payload.get(key) != table[key]]:
        raise ValueError(f"sidecar {meta_path} disagrees with {path} on "
                         + ", ".join(wrong))
    return Dataset(name=payload["dataset"], columns=tuple(columns),
                   units=tuple(units), data=rows, metadata=payload["metadata"])
