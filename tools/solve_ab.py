"""A/B timing of ``solve_resonance`` between two source trees, in one process.

    python3 tools/solve_ab.py BASE_SRC CHANGE_SRC [--seed 3] [--points 3600]
                              [--repeats 3]

BASE_SRC and CHANGE_SRC are directories that each hold a ``floquet_hhg``
package (the ``src`` directory of two checkouts).  Both are imported side by
side under private module names, so one process, one interpreter state and
one stretch of host load time both.  The points are those of the
``pole-scatter`` benchmark workload (``perfbench/workloads.py``: the same
ranges and draw order, so ``--points 3600`` is the pass of a 45 s run), and
the workload's reference kernel runs before every solve, as in the
benchmark.  For each point the two trees alternate which goes first, and
each solves the point ``--repeats`` times.

Printed: the ratio CHANGE/BASE of the summed per-point minimum times and of
the median single-shot (first repeat) times, then whether the outcomes are
the same: ``z_d`` (bit-identical count and largest relative gap), the
whole states (``R``, ``L``, ``N_d``, ``K_d`` and the sheet mask, the count
bit-identical), the c-products (``floquet_c_product(state, 0, 0)``
bit-identical count, and the largest gap of the off-diagonal products
over ``C_PAIRS``), the iteration counts (every point where they differ),
and the failures by point and exception type (messages are compared
too).  ``--json`` writes the same figures to a file.  The exit status is
1 when any outcome differs (a ``z_d`` or a state not bit-identical, an
iteration count, a failure's type or message), else 0.  The timings are
a measuring aid, not a gate: on a shared host the ratios move by a few
percent between runs.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Off-diagonal (m, m') pairs whose c-products are compared.
C_PAIRS = ((0, 1), (1, 0), (0, -1), (-1, 0), (2, 0), (0, -3))


def load_tree(src: Path, alias: str):
    """Import the ``floquet_hhg`` package under ``src`` as ``alias``."""
    pkg = src / "floquet_hhg"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None or not (pkg / "__init__.py").is_file():
        raise SystemExit(f"solve_ab: no floquet_hhg package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def solve_once(pkg, point: dict):
    """(seconds, state or None, failure (type name, message) or None)."""
    params = pkg.ModelParams(point["epsilon_d"],
                             point["A_over_omega"] * point["omega"],
                             point["omega"], point["lambda"])
    t0 = time.perf_counter()
    try:
        state = pkg.solve_resonance(params)
    except Exception as exc:  # failures are outcomes to compare
        return time.perf_counter() - t0, None, (type(exc).__name__, str(exc))
    return time.perf_counter() - t0, state, None


def run(trees: dict, points: list[dict], repeats: int, reference) -> dict:
    names = list(trees)
    best = {name: [] for name in names}
    first = {name: [] for name in names}
    outcome = {name: [] for name in names}
    for i, point in enumerate(points):
        order = names if i % 2 == 0 else names[::-1]
        times = {name: [] for name in names}
        for rep in range(repeats):
            for name in order:
                reference()
                dt, state, failure = solve_once(trees[name], point)
                times[name].append(dt)
                if rep == 0:
                    outcome[name].append((state, failure))
        for name in names:
            best[name].append(min(times[name]))
            first[name].append(times[name][0])
    return {"best": best, "first": first, "outcome": outcome}


def bits(*values) -> bytes:
    """The bytes of numbers and arrays, for a bit-for-bit comparison."""
    import numpy as np
    return b"".join(np.asarray(v).tobytes() for v in values)


def state_bits(state) -> bytes:
    return bits(state.R, state.L, state.second_sheet, state.N_d, state.K_d)


def compare_outcomes(trees: dict, base: list, change: list) -> dict:
    identical, worst, iterations, failures = 0, 0.0, [], []
    states, c00, c_gap = 0, 0, 0.0
    for i, ((sa, fa), (sb, fb)) in enumerate(zip(base, change)):
        if fa or fb:
            if fa != fb:
                failures.append({"point": i, "base": fa, "change": fb})
            continue
        if sa.z_d == sb.z_d:
            identical += 1
        else:
            worst = max(worst, abs(sb.z_d - sa.z_d) / abs(sa.z_d))
        states += state_bits(sa) == state_bits(sb)
        ca, cb = (trees[name].solver.floquet_c_product
                  for name in ("base", "change"))
        c00 += bits(ca(sa, 0, 0)) == bits(cb(sb, 0, 0))
        c_gap = max([c_gap] + [abs(ca(sa, *mm) - cb(sb, *mm))
                               for mm in C_PAIRS])
        if sa.iterations != sb.iterations:
            iterations.append({"point": i, "base": sa.iterations,
                               "change": sb.iterations})
    failed = {name: sorted({f[0] for _, f in runs if f})
              for name, runs in (("base", base), ("change", change))}
    return {"z_d_identical": identical,
            "solved": sum(1 for s, _ in base if s is not None),
            "z_d_max_rel_gap": worst,
            "states_identical": states,
            "c_product_00_identical": c00,
            "c_product_off_diagonal_max_gap": c_gap,
            "iterations_changed": iterations,
            "failed_base": sum(1 for _, f in base if f),
            "failed_change": sum(1 for _, f in change if f),
            "failure_types": failed,
            "failures_differ": failures}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--points", type=int, default=3600)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args()

    os.environ.setdefault("OMP_NUM_THREADS", "1")
    trees = {"base": load_tree(args.base.resolve(), "_ab_base"),
             "change": load_tree(args.change.resolve(), "_ab_change")}
    # the workload's draw and reference kernel, from this checkout's
    # benchmark (it imports the package by name: give it the change tree)
    sys.path[:0] = [str(args.change.resolve()), str(ROOT / "perfbench")]
    import numpy as np
    from workloads import PoleScatter, _draw, scalar_reference
    points = _draw(np.random.default_rng(args.seed), PoleScatter.ranges,
                   args.points)

    raw = run(trees, points, args.repeats, scalar_reference)
    best = {k: sum(v) for k, v in raw["best"].items()}
    p50 = {k: statistics.median(v) for k, v in raw["first"].items()}
    out = {"seed": args.seed, "points": args.points,
           "repeats": args.repeats,
           "per_point_min_ms": {k: 1e3 * v / args.points
                                for k, v in best.items()},
           "per_point_min_ratio": best["change"] / best["base"],
           "single_shot_p50_ms": {k: 1e3 * v for k, v in p50.items()},
           "single_shot_p50_ratio": p50["change"] / p50["base"],
           **compare_outcomes(trees, raw["outcome"]["base"],
                              raw["outcome"]["change"])}
    print(f"seed {args.seed}, {args.points} points, {args.repeats} repeats")
    print(f"per-point minimum: {out['per_point_min_ms']['base']:.4f} -> "
          f"{out['per_point_min_ms']['change']:.4f} ms mean, ratio "
          f"{out['per_point_min_ratio']:.3f}")
    print(f"single-shot p50:   {out['single_shot_p50_ms']['base']:.4f} -> "
          f"{out['single_shot_p50_ms']['change']:.4f} ms, ratio "
          f"{out['single_shot_p50_ratio']:.3f}")
    print(f"z_d: {out['z_d_identical']} of {out['solved']} bit-identical, "
          f"largest relative gap {out['z_d_max_rel_gap']:.2e}")
    print(f"states: {out['states_identical']} of {out['solved']} "
          f"bit-identical; c-product (0, 0): "
          f"{out['c_product_00_identical']} bit-identical, off-diagonal "
          f"largest gap {out['c_product_off_diagonal_max_gap']:.2e}")
    print(f"iterations changed at {len(out['iterations_changed'])} points: "
          + ", ".join(f"#{c['point']} {c['base']}->{c['change']}"
                      for c in out["iterations_changed"]))
    print(f"failed: {out['failed_base']} -> {out['failed_change']} "
          f"({out['failure_types']}); differing failures: "
          f"{len(out['failures_differ'])}")
    for diff in out["failures_differ"]:
        print(f"  #{diff['point']}: {diff['base']} -> {diff['change']}")
    if args.json:
        args.json.write_text(json.dumps(out, indent=2) + "\n",
                             encoding="utf-8")
    same = out["z_d_identical"] == out["states_identical"] == out["solved"] \
        and not out["iterations_changed"] and not out["failures_differ"]
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
