"""A/B comparison of the CLI's datasets between two source trees.

    python3 tools/csv_ab.py BASE_SRC CHANGE_SRC [CONFIG ...]

BASE_SRC and CHANGE_SRC are directories that each hold a ``floquet_hhg``
package (the ``src`` directory of two checkouts).  For each config file,
every CLI command (``eigen``, ``spectrum``, ``spatial``, ``evolve``,
``compare``, ``sweep``) runs once from each tree, as
``python -m floquet_hhg``, into a fresh directory.  Given no config, it
runs the set in ``BUILT_IN``, each for a path of the code; some of them
exit 1 or 2 on purpose, and each run compares the exit codes and
messages.

Printed per command: the exit code (both, with whether stderr differs,
when the exit codes or stderr differ), the files only one tree wrote,
and then for each file, data file or sidecar, ``identical`` when its
bytes match, else ``differs``.  A data file's column header is its first
line that does not start with ``#``, and its rows follow it, so a tree
that writes comment lines above the header (as releases before the
sidecar held all metadata did) compares with one that writes none.  A
data file that differs is followed by how many comment lines each side
has, when that differs, whether the column header differs and, per
column, the largest deviation over the finite entries that differ,
relative to that column's finite peak in the base run.  Rows where only
one side is NaN, and rows whose entries differ with an infinity on
either side, are counted apart.  When both sides' sidecars name one
check per row (``check_names``, as in ``report.csv``), each differing
row follows by its check's name, with both sides' entries.  When the row
count changes it prints both shapes and whether the change's data lines
are a byte-equal contiguous run of the base's, and which (``rows = base
rows 401..800``).  The exit status is 0 when every file matches byte for
byte, else 1.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMANDS = ("eigen", "spectrum", "spatial", "evolve", "compare", "sweep")

REFERENCE = {"epsilon_d": 1.0, "omega": 1.2, "A_over_omega": 2.0,
             "lambda": 0.1}
#: The configs run when none is given, each for a path of the code:
#:
#: - ``reference``: a sweep whose omega axis crosses several channel
#:   thresholds.
#: - ``fine-box``: an ``oracle-validate`` fine-box point.
#: - ``uncoupled``: t != t_end; its field is zero at every time, so only
#:   the coupled configs show which time a field is read at.
#: - ``strong-drive``: a wide cutoff; at ``oracle.DEFAULT_DT`` the norm
#:   drifts by 5.4e-8, past the integrator's gate, so the CLI halves the
#:   step.
#: - ``lead-steps``: t = t_end = 5.01, not a whole number of
#:   ``oracle.BLOCK``-step blocks at ``oracle.DEFAULT_DT``, so the
#:   integrator runs 126 blocks at the shorter step 5.01 / 504.
#: - ``field-time``: t = 3 before t_end = 5, so ``evolve`` and
#:   ``compare`` read the field from a second run of the box to t.
#: - ``late``: t = t_end = 30, whose causality set
#:   ``|x| >= t + compare.FRONT_MARGIN`` lies past the default +-30 grid,
#:   so ``compare`` reports that it has nothing to read.
#: - ``branch-point``: omega = 0.5 puts epsilon_d = 1 on channel 2's
#:   branch point, so every command that solves for the pole exits 2
#:   with the solver's typed failure, while ``evolve`` exits 0.
#: - ``field-revival``: a box of length 20 read at t = t_end = 15 on a
#:   +-9 grid, past its field horizon 20 - 9 = 11, so ``evolve`` and
#:   ``compare`` exit 1 with the horizon's refusal, naming
#:   ``box_length``.
#: - ``strong-coupling``: lambda = 0.5 at the default cutoff; the box's
#:   first run fails the norm gate, so ``evolve`` writes the run at the
#:   halved step, while ``eigen``, ``spectrum``, ``spatial`` and
#:   ``compare`` exit 2 with the solver's "second sheet undefined"
#:   failure, and ``sweep``, given no sweep section, exits 1.
BUILT_IN = {
    "reference": REFERENCE | {"sweep": {
        "omega": {"min": 0.3, "max": 2.4, "count": 43},
        "a_over_omega": {"min": 0.5, "max": 3.0, "count": 6}}},
    "fine-box": REFERENCE | {"lambda": 0.05, "t": 5.0, "t_end": 5.0,
                             "box_length": 800.0, "n_modes": 16384},
    "uncoupled": REFERENCE | {"lambda": 0.0, "t": 10.0, "t_end": 5.0},
    "strong-drive": REFERENCE | {
        "A_over_omega": 8.0, "k_c": 20.0, "lambda": 0.05, "t": 5.0,
        "t_end": 5.0, "box_length": 100.0, "n_modes": 1024,
        "sweep": {"a_over_omega": {"min": 6.0, "max": 10.0, "count": 3}}},
    "lead-steps": REFERENCE | {"t": 5.01, "t_end": 5.01},
    "field-time": REFERENCE | {"t": 3.0, "t_end": 5.0},
    "late": REFERENCE | {"t": 30.0, "t_end": 30.0},
    "branch-point": REFERENCE | {"omega": 0.5},
    "field-revival": REFERENCE | {
        "box_length": 20.0, "n_modes": 256, "t": 15.0, "t_end": 15.0,
        "x_grid": {"min": -9.0, "max": 9.0, "count": 181}},
    "strong-coupling": REFERENCE | {"lambda": 0.5, "t": 5.0, "t_end": 5.0},
}


def run_tree(src: Path, command: str, config: Path,
             out: Path) -> tuple[int, str]:
    """Run one CLI command from ``src``; return its exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=str(src), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "floquet_hhg", command, "--config",
         str(config), "--out", str(out)],
        env=env, capture_output=True, text=True)
    return proc.returncode, proc.stderr


def layout(text: str) -> tuple[int, str, list[str], np.ndarray]:
    """A data file's count of comment lines above its column header, the
    header (its first line not starting with ``#``), and its data lines as
    text and as a table."""
    lines = text.splitlines()
    n = next((i for i, line in enumerate(lines) if not line.startswith("#")),
             len(lines))
    header, data = "".join(lines[n:n + 1]), lines[n + 1:]
    rows = np.array([line.split(",") for line in data], dtype=float)
    return n, header, data, rows.reshape(len(data), header.count(",") + 1)


def column_deviations(base: str, change: str, names: list) -> list[str]:
    """Lines that say how two data files differ; ``names`` holds each
    side's ``check_names`` from its sidecar, or None."""
    comments_a, head_a, a, rows_a = layout(base)
    comments_b, head_b, b, rows_b = layout(change)
    notes = []
    if comments_a != comments_b:
        notes.append(f"comment lines: base {comments_a}, change {comments_b}")
    if head_a != head_b:
        notes.append("column header differs")
    if rows_a.shape != rows_b.shape:
        return notes + [f"shape {rows_a.shape} -> {rows_b.shape}",
                        row_run(a, b)]
    for name, x, y in zip(head_a.split(","), rows_a.T, rows_b.T):
        nan_a, nan_b = np.isnan(x), np.isnan(y)
        inf_a, inf_b = np.isinf(x), np.isinf(y)
        differ = (x != y) & ~nan_a & ~nan_b  # equal infinities are equal
        if not np.any(differ) and np.array_equal(nan_a, nan_b):
            continue
        finite = differ & ~inf_a & ~inf_b
        peak = np.max(np.abs(x[np.isfinite(x)]), initial=0.0)
        dev = np.max(np.abs(x[finite] - y[finite]), initial=0.0)
        rel = dev / peak if peak > 0.0 else dev
        note = f"{name}: max |dev|/peak {rel:.3e}"
        if not np.array_equal(nan_a, nan_b):
            note += (f"; NaN only in base at {int(np.sum(nan_a & ~nan_b))} "
                     f"rows, only in change at {int(np.sum(nan_b & ~nan_a))}")
        if np.any(differ & (inf_a | inf_b)):
            note += (f"; unequal with inf in base at "
                     f"{int(np.sum(differ & inf_a))} rows, in change at "
                     f"{int(np.sum(differ & inf_b))}")
        notes.append(note)
    return notes + check_rows(head_a, names, rows_a, rows_b)


def check_rows(header: str, names: list, rows_a: np.ndarray,
               rows_b: np.ndarray) -> list[str]:
    """One line per differing row of a file whose sidecars on both sides
    name the same check for each row: the name, then each entry but the
    check's id as ``base -> change``."""
    if names[0] != names[1] or len(names[0] or ()) != len(rows_a):
        return []
    columns = [cell.rsplit(" [", 1)[0] for cell in header.split(",")]
    return [f"{name}: " + ", ".join(
        f"{col} {float(u)!r} -> {float(v)!r}"
        for col, u, v in zip(columns, x, y) if col != "check_id")
        for name, x, y in zip(names[0], rows_a, rows_b)
        if not np.array_equal(x, y, equal_nan=True)]


def row_run(base: list[str], change: list[str]) -> str:
    """Which contiguous run of the ``base`` data lines ``change`` equals
    byte for byte, as 1-based row numbers."""
    n = len(change)
    for i in range(len(base) - n + 1 if n else 0):
        if base[i:i + n] == change:
            return f"rows = base rows {i + 1}..{i + n}"
    return "rows: not a byte-equal contiguous run of the base's"


def check_names(data_file: Path) -> list[str] | None:
    """The ``check_names`` that a data file's sidecar records, or None."""
    sidecar = data_file.with_name(data_file.name + ".meta.json")
    return json.loads(sidecar.read_text(encoding="utf-8"))["metadata"].get(
        "check_names")


def compare_command(base: Path, change: Path) -> tuple[list[str], bool]:
    """Report lines for two output directories, and whether all match."""
    lines, same = [], True
    names_a = {p.name for p in base.iterdir()}
    names_b = {p.name for p in change.iterdir()}
    for name in sorted(names_a ^ names_b):
        side = "base" if name in names_a else "change"
        lines.append(f"  {name}: written by {side} only")
        same = False
    for name in sorted(names_a & names_b):
        pa, pb = base / name, change / name
        match = pa.read_bytes() == pb.read_bytes()
        lines.append(f"  {name}: " + ("identical" if match else "differs"))
        if not match and name.endswith(".csv"):
            notes = column_deviations(pa.read_text(encoding="utf-8"),
                                      pb.read_text(encoding="utf-8"),
                                      [check_names(pa), check_names(pb)])
            lines.extend(f"    {note}" for note in notes)
        same = same and match
    return lines, same


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("configs", type=Path, nargs="*")
    args = parser.parse_args()
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    all_same = True
    with tempfile.TemporaryDirectory(prefix="csv_ab_") as tmp:
        configs = args.configs
        if not configs:
            configs = [Path(tmp, f"{name}.json") for name in BUILT_IN]
            for path, config in zip(configs, BUILT_IN.values()):
                path.write_text(json.dumps(config), encoding="utf-8")
        for c, config in enumerate(configs):
            print(f"== {config}")
            for command in COMMANDS:
                outs, codes = {}, {}
                for side, src in trees.items():
                    outs[side] = Path(tmp, f"{c}-{command}-{side}")
                    outs[side].mkdir()
                    codes[side] = run_tree(src, command, config.resolve(),
                                           outs[side])
                if codes["base"] == codes["change"]:
                    print(f"{command}: exit {codes['base'][0]}")
                else:
                    print(f"{command}: exit {codes['base'][0]} -> "
                          f"{codes['change'][0]}, stderr "
                          + ("same" if codes["base"][1] == codes["change"][1]
                             else "differs"))
                    all_same = False
                lines, same = compare_command(outs["base"], outs["change"])
                for line in lines:
                    print(line)
                all_same = all_same and same
    print("all files match" if all_same else "some files differ")
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())
