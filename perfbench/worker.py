"""One fresh benchmark process: set up, then optionally run the timed phase.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --role setup|measure --result FILE

Set-up time runs from the top of this file (interpreter start-up
excluded) through importing ``floquet_hhg.cli``, generating the seeded
inputs and one warm-up op.  The ``measure`` role then runs a fixed
number of whole passes over the ops: as many ops as the workload's
nominal rate gives in ``--seconds``, so a seed and a run length fix the
work, whatever the host's speed.  With ``--trace 1`` the ops are sized
for half of ``--seconds`` and run twice, untraced then traced, so the two
medians give the tracing overhead.  The result is written as JSON to
``--result``; run.py turns it into metrics.

Every time the worker reports (set-up, op latencies, op time) is taken to
the workload's reference speed: its wall time times the reference
kernel's nominal time over the kernel's time measured beside it.  The
host this was tuned on swings in speed by up to a third over tens of
seconds, and the ratio of op to reference time moves far less.  The raw
wall times are kept beside the scaled ones.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Half-width, in seconds, of the window of reference calls that sets the
#: speed of an op; it spans a few oracle-validate ops on either side.
REF_WINDOW_S = 1.5
#: Reference calls timed at the end of set-up to scale ``setup_s``.
SETUP_REF_CALLS = 32
#: Thread pools pinned to one thread, so a run uses one core.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def latency_summary(latencies: list[float], tail_percentile: float) -> dict:
    """Median and the nearest-rank ``tail_percentile`` latency.

    Each workload fixes its tail percentile so that a run leaves at least
    10 ops beyond it; ``tail_beyond`` records how many did.
    """
    v = sorted(latencies)
    n = len(v)
    j = max(0, math.ceil(tail_percentile / 100.0 * n) - 1)
    return {"n": n, "p50_s": statistics.median(v), "tail_s": v[j],
            "tail_percentile": tail_percentile, "tail_beyond": n - 1 - j}


def speed_scales(ref_t: list[float], ref_dt: list[float],
                 op_t: list[float], nominal_s: float) -> list[float]:
    """Factor that takes each op's wall time to the reference speed.

    For an op starting at ``t`` it is ``nominal_s`` over the median time
    of the reference calls that started within ``REF_WINDOW_S`` of ``t``.
    The host's speed drifts over seconds to minutes, far slower than that
    window, so the op and its reference calls see the same speed.
    """
    scales = []
    for t in op_t:
        lo = bisect.bisect_left(ref_t, t - REF_WINDOW_S)
        hi = bisect.bisect_right(ref_t, t + REF_WINDOW_S)
        scales.append(nominal_s / statistics.median(ref_dt[lo:hi]))
    return scales


def timed_phase(wl, passes: int, tracer=None) -> dict:
    """Run ``passes`` whole passes over ``wl.ops``.

    ``wl.ref_reps`` reference calls precede each op.  Output checks run
    between ops; neither counts as op time.
    """
    run = wl.run
    if tracer is not None:
        from tracing import OP_SPAN
        run = tracer.wrap(run, OP_SPAN)
        tracer.recording = True
    clock = time.perf_counter
    reference = wl.reference
    ref_t: list[float] = []
    ref_dt: list[float] = []
    op_t: list[float] = []
    op_dt: list[float] = []
    op_ok: list[bool] = []
    failures: dict[int, dict] = {}
    digests: dict[int, str] = {}
    attempted = incorrect = mismatches = 0
    op_time = 0.0
    for pass_index in range(passes):
        for op in wl.ops:
            for _ in range(wl.ref_reps):
                r0 = clock()
                reference()
                ref_t.append(r0)
                ref_dt.append(clock() - r0)
            if tracer is not None:
                tracer.op_id = attempted
            attempted += 1
            t0 = clock()
            try:
                result = run(op)
            except Exception as exc:  # every failure is counted, not raised
                dt = clock() - t0
                kind = getattr(exc, "kind", type(exc).__name__)
                _note_failure(failures, op, kind, str(exc))
                result, ok = None, False
            else:
                dt = clock() - t0
                ok = True
            op_time += dt
            op_t.append(t0)
            op_dt.append(dt)
            op_ok.append(ok)
            if not ok:
                continue
            if tracer is not None:
                tracer.recording = False
            try:
                bad, digest = wl.check(op, result)
            except Exception as exc:
                bad, digest = [f"check raised {type(exc).__name__}"], None
            if tracer is not None:
                tracer.recording = True
            if bad:
                incorrect += 1
                op_ok[-1] = False
                _note_failure(failures, op, "check:" + ",".join(bad), "")
                continue
            if digest is not None:
                if pass_index == 0:
                    digests[op.index] = digest
                elif digests.get(op.index) != digest:
                    mismatches += 1
    if tracer is not None:
        tracer.recording = False
    workload_digest = None
    if digests:
        h = hashlib.sha256()
        for index in sorted(digests):
            h.update(f"{index} {digests[index]}\n".encode())
        workload_digest = h.hexdigest()
    scales = speed_scales(ref_t, ref_dt, op_t, wl.ref_nominal_s)
    scaled = [dt * k for dt, k in zip(op_dt, scales)]
    ok_scaled = [v for v, ok in zip(scaled, op_ok) if ok]
    ok_wall = [v for v, ok in zip(op_dt, op_ok) if ok]
    return {
        "passes": passes, "attempted": attempted,
        "failed": sum(f["count"] for f in failures.values()),
        "incorrect": incorrect, "ok": len(ok_scaled),
        "op_time_s": sum(scaled), "op_wall_s": op_time,
        "latency": (latency_summary(ok_scaled, wl.tail_percentile)
                    if ok_scaled else None),
        "latency_wall": (latency_summary(ok_wall, wl.tail_percentile)
                         if ok_wall else None),
        "speed": {"reference_calls": len(ref_dt),
                  "reference_median_s": statistics.median(ref_dt),
                  "reference_nominal_s": wl.ref_nominal_s,
                  "scale_min": min(scales), "scale_max": max(scales)},
        "failures": sorted(failures.values(), key=lambda f: f["op"]),
        "failures_repeat_every_pass":
            all(f["count"] == passes for f in failures.values()),
        "csv_sha256": workload_digest,
        "csv_ops_digested": len(digests),
        "csv_repeat_mismatches": mismatches,
    }


def _note_failure(failures: dict, op, kind: str, message: str) -> None:
    entry = failures.get(op.index)
    if entry is None:
        failures[op.index] = {"op": op.index, "command": op.command,
                              "inputs": op.inputs, "error_type": kind,
                              "message": message.splitlines()[0][:200]
                              if message else "", "count": 1}
    else:
        entry["count"] += 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    if not (SRC / "floquet_hhg" / "__init__.py").is_file():
        print(f"worker: no package source at {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import floquet_hhg
    if Path(floquet_hhg.__file__).resolve().parent != SRC / "floquet_hhg":
        print(f"worker: imported floquet_hhg from {floquet_hhg.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    tmp_root = ROOT / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=tmp_root))
    try:
        cls = workloads.WORKLOADS[args.workload]
        budget = 0.5 * args.seconds if args.trace else args.seconds
        n_ops = max(1, round(budget * cls.nominal_ops_per_s))
        wl = cls(args.seed, workdir, n_ops)
        passes = max(1, round(n_ops / len(wl.ops)))
        try:
            wl.run(wl.ops[0])
        except Exception:  # a known-failing first point still warms up
            pass
        setup_wall = time.perf_counter() - _T0
        ref = []
        for _ in range(SETUP_REF_CALLS):
            r0 = time.perf_counter()
            wl.reference()
            ref.append(time.perf_counter() - r0)
        out = {"role": args.role, "setup_wall_s": setup_wall,
               "setup_s": setup_wall * wl.ref_nominal_s
               / statistics.median(ref)}
        if args.role == "measure":
            out |= measure(wl, args, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["env"] = {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "floquet_hhg": floquet_hhg.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(out, indent=1), encoding="utf-8")
    return 0


def measure(wl, args, passes: int) -> dict:
    if not args.trace:
        return {"untraced": timed_phase(wl, passes)}
    import tracing
    untraced = timed_phase(wl, passes)
    tracer = tracing.Tracer()
    tracer.install()
    attr, span = wl.entry
    setattr(wl, attr, tracer.wrap(getattr(wl, attr), span))
    try:
        traced = timed_phase(wl, passes, tracer)
    finally:
        tracer.uninstall()
    if args.spans is not None:
        tracer.save_spans(args.spans)
    traced["layers"] = tracing.layer_metrics(tracer, traced["attempted"])
    traced["closure"] = tracing.self_time_closure(tracer,
                                                  traced["attempted"])
    traced["spans"] = {"recorded": tracer.n_spans,
                       "kept": min(tracer.n_spans, tracing.SPAN_CAP),
                       "unbound": tracer.unbound, "table": tracer.table()}
    return {"untraced": untraced, "traced": traced}


if __name__ == "__main__":
    raise SystemExit(main())
