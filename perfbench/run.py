"""Benchmark of the floquet_hhg package: closed-loop seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; the package is imported from
``src/`` (no install needed).  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The lines before it print every metric with its unit and
sample count, and a fuller record (environment, failure inventory, CSV
digests, per-span table) goes to ``.perfbench/results/``.  Everything
the benchmark writes stays under ``.perfbench/`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench"
#: Fresh processes timed per run for setup_s; the measuring one is one.
SETUP_PROCESSES = 5
#: Wall-clock budget of one workload run past 2.5 times ``--seconds``:
#: set-up processes, reference calls and checks.  A run's ops are sized to
#: take ``--seconds`` on the tuning machine, so the factor leaves room for
#: a slower host; at ``--seconds 45`` the budget ends within 170 s.
BUDGET_BASE_S = 50.0


def git_sha(root: Path) -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, seconds: float, trace: int, role: str,
          tag: str, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    result = runs / f"{workload}-seed{seed}-{role}-{tag}.json"
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--role", role, "--result", str(result)]
    if trace:
        cmd += ["--spans", str(OUT / "results"
                               / f"{workload}-seed{seed}-spans.npz")]
    env = dict(os.environ, TMPDIR=str(OUT / "tmp"))
    # run() kills and reaps the worker if it outlives the budget
    proc = subprocess.run(cmd, cwd=ROOT, env=env,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker for {workload} exited "
                           f"{proc.returncode}")
    data = json.loads(result.read_text(encoding="utf-8"))
    result.unlink()
    return data


def end_to_end(setups: list[dict], phase: dict, rss_mb: float) -> dict:
    """Metric name -> (value, unit, samples) for one untraced run."""
    lat, wall = phase["latency"], phase["latency_wall"]
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s",
                    f"median of {len(setups)} fresh processes; wall "
                    f"{statistics.median(s['setup_wall_s'] for s in setups):.4g}"),
        "op_ms_p50": (lat["p50_s"] * 1e3, "ms",
                      f"n={lat['n']} successful ops; wall "
                      f"{wall['p50_s'] * 1e3:.4g}"),
        "op_ms_tail": (lat["tail_s"] * 1e3, "ms",
                       f"p{lat['tail_percentile']:g}, "
                       f"{lat['tail_beyond']} ops beyond, n={lat['n']}; "
                       f"wall {wall['tail_s'] * 1e3:.4g}"),
        "ops_per_s": (phase["ok"] / phase["op_time_s"], "1/s",
                      f"{phase['ok']} ops in {phase['op_time_s']:.2f} s "
                      f"of op time, {phase['passes']} passes; wall "
                      f"{phase['ok'] / phase['op_wall_s']:.4g}"),
        # printed, but no BENCHMARK.json metric: it is 0 on oracle-validate
        # and depends on the seed's draw on pole-scatter
        "fail_frac": (phase["failed"] / phase["attempted"], "1",
                      f"{phase['failed']} of {phase['attempted']} "
                      "attempted"),
        "peak_rss_mb": (rss_mb, "MB", "measuring process"),
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """Run one workload; return (last-line result, full record)."""
    deadline = time.monotonic() + BUDGET_BASE_S + 2.5 * seconds
    roles = ["setup"] * (0 if trace else SETUP_PROCESSES - 1) + ["measure"]
    runs = [spawn(workload, seed, seconds, trace, role,
                  f"{os.getpid()}-{i}", deadline)
            for i, role in enumerate(roles)]
    measured = runs[-1]
    phase = measured["untraced"]
    phases = [p for p in (phase, measured.get("traced")) if p is not None]
    for p in phases:
        if p["latency"] is None:
            first = p["failures"][0]
            raise RuntimeError(f"no op succeeded; op {first['op']} failed "
                               f"with {first['error_type']}")
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace,
              "env": measured["env"] | {
                  "git_sha": git_sha(ROOT), "nproc": os.cpu_count(),
                  "cpus_usable": len(os.sched_getaffinity(0)),
                  "cpu_model": cpu_model(), "machine": platform.machine(),
                  "seed": seed},
              "setup_s_each": [r["setup_s"] for r in runs],
              "untraced": phase}
    if trace:
        declared = spec["per_layer"]
        traced = measured["traced"]
        metrics = {name: (value, unit, "traced run")
                   for name, (value, unit) in traced["layers"].items()}
        metrics["tracing.overhead_ms_per_op"] = (
            (traced["latency"]["p50_s"] - phase["latency"]["p50_s"]) * 1e3,
            "ms", f"traced p50 over n={traced['latency']['n']} minus "
            f"untraced p50 over n={phase['latency']['n']}")
        record["traced"] = traced
        phase = traced
    else:
        declared = spec["end_to_end"]
        metrics = end_to_end(runs, phase, measured["peak_rss_mb"])
    for m in declared:
        if metrics.get(m["name"], (0, None))[1] != m["unit"]:
            raise RuntimeError(f"metric {m['name']} not produced in "
                               f"{m['unit']}")
    record["metrics"] = {name: {"value": value, "unit": unit,
                                "samples": samples}
                         for name, (value, unit, samples) in metrics.items()}
    last = {"correct": all(p["incorrect"] == 0 for p in phases),
            "attempted": phase["attempted"], "failed": phase["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                    "unit": m["unit"]} for m in declared}}
    return last, record


def report(record: dict) -> list[str]:
    lines = [f"== {record['workload']} seed={record['seed']} "
             f"trace={record['trace']}"]
    for name, m in record["metrics"].items():
        lines.append(f"  {name:52s} {m['value']:14.6g} {m['unit']:6s} "
                     f"({m['samples']})")
    phase = record.get("traced", record["untraced"])
    for f in phase["failures"]:
        lines.append(f"  failure op {f['op']} {f['command']} x{f['count']}: "
                     f"{f['error_type']} {f['message']} {f['inputs']}")
    if "traced" in record:
        c = record["traced"]["closure"]
        parts = ", ".join(f"{k} {v:.4g}"
                          for k, v in c["layer_self_ms_per_op"].items())
        lines.append(f"  self ms/op: {parts}; sum "
                     f"{c['layer_self_sum_ms_per_op']:.6g} vs op span "
                     f"{c['op_span_ms_per_op']:.6g}")
    sp = phase["speed"]
    lines.append(f"  reference speed: median call "
                 f"{sp['reference_median_s'] * 1e3:.4g} ms (nominal "
                 f"{sp['reference_nominal_s'] * 1e3:.4g} ms) over "
                 f"{sp['reference_calls']} calls; op scale "
                 f"{sp['scale_min']:.3f}..{sp['scale_max']:.3f}")
    lines.append(f"  csv sha256 {phase['csv_sha256']} over "
                 f"{phase['csv_ops_digested']} ops")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # subprocess.run kills and reaps its worker on any exception, so a
    # terminated run leaves no worker behind
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "floquet_hhg" / "__init__.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{names} or 'all'", file=sys.stderr)
        return 2

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    results = {}
    for workload in chosen:
        try:
            last, record = run_workload(spec, workload, args.seed,
                                        args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
            print(f"run.py: {workload}: {exc}", file=sys.stderr)
            return 1
        path = OUT / "results" / (f"{workload}-seed{args.seed}"
                                  f"-trace{args.trace}.json")
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        print("\n".join(report(record)), flush=True)
        results[workload] = last
    if len(results) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
