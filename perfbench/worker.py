"""One benchmark process: set up a workload, warm up, measure, report.

Started by ``run.py``, which computes the metrics; prints one JSON line.
Set-up time runs from ``--spawned-at`` (the parent's monotonic clock just
before it started this process) to the end of the untimed warm-up op.  The
process then runs whole rounds for about ``--seconds``: with ``--trace 0``
untraced, with ``--trace 1`` an untraced and then a traced phase, each for
half the time.  Every op, the warm-up included, goes back as a record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import calibrate  # noqa: E402
import fput_fronts  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fput_fronts.errors import ConfigError, NumericsError  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    if not Path(fput_fronts.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"fput_fronts imported from {fput_fronts.__file__}, not this checkout")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, out)
        order = [int(i) for i in np.random.default_rng(args.seed).permutation(len(ops))]
        # the same warm-up input for every seed, so set-up time is comparable
        warm = _run_op(ops[0]) | {"phase": "warmup", "round": 0}
        setup_s = time.monotonic() - args.spawned_at
        cal_s = 0.5 * (calibrate.kernel_s() + calibrate.kernel_s())
        seconds = args.seconds / 2 if args.trace else args.seconds
        records, elapsed = _phase(ops, order, seconds, "untraced")
        result = {
            "setup_s": setup_s,
            "setup_ref_s": setup_s * calibrate.REFERENCE_S / cal_s,
            "cal_ref_s": calibrate.REFERENCE_S,
            "elapsed_s": elapsed,
        }
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced, _ = _phase(ops, order, seconds, "traced", tracer)
            result["layers"], result["per_input"] = _layers(tracer, traced)
            spans_file = ROOT / "perfbench" / "out" / f"spans-{args.workload}.json"
            spans_file.parent.mkdir(parents=True, exist_ok=True)
            spans_file.write_text(
                json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                            "ops": [r["key"] for r in traced], "spans": tracer.spans})
            )
            result["spans_file"] = str(spans_file.relative_to(ROOT))
            records += traced
        result["records"] = [warm] + records
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["env"] = _environment()
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _environment() -> dict:
    """Machine and library record: CPU, caches, versions, thread pins."""
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next(
        (ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()} {kind.strip()}"] = size.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def _run_op(op, tracer=None, op_id: int = -1) -> dict:
    """Time ``op.run``, then check it; an exception counts as a failed op."""
    root = tracer.begin_op(op_id) if tracer else None
    t0 = time.perf_counter()
    try:
        result = op.run()
        error = None
    except Exception as exc:  # the op loop must go on; the failure is recorded
        traceback.print_exc(file=sys.stderr)
        error = exc
    wall = time.perf_counter() - t0
    if tracer:
        tracer.close(root)
    rec = {"key": op.key, "wall_s": wall, "steps": op.steps, "digest": None, "error_kind": None}
    if error is not None:
        kind = (
            "numerics" if isinstance(error, NumericsError)
            else "config" if isinstance(error, ConfigError)
            else "other"
        )
        rec["failed"] = [f"{kind}: {type(error).__name__}: {error}"]
        rec["error_kind"] = kind
        return rec
    rec["failed"], rec["digest"] = op.check(result)
    return rec


def _phase(ops, order, seconds, phase, tracer=None) -> tuple[list[dict], float]:
    """Run whole rounds, stopping at the round end nearest to ``seconds``.

    A calibration kernel runs between ops; each op's ``ref_s`` is its wall
    time scaled by the mean of the two kernel times around it.
    """
    records: list[dict] = []
    round_s: list[float] = []
    t_start = time.monotonic()
    cal_before = calibrate.kernel_s()
    while True:
        t_round = time.monotonic()
        for i in order:
            rec = _run_op(ops[i], tracer, len(records))
            cal_after = calibrate.kernel_s()
            rec["cal_s"] = 0.5 * (cal_before + cal_after)
            rec["ref_s"] = rec["wall_s"] * calibrate.REFERENCE_S / rec["cal_s"]
            rec["phase"], rec["round"] = phase, len(round_s)
            cal_before = cal_after
            records.append(rec)
        round_s.append(time.monotonic() - t_round)
        elapsed = time.monotonic() - t_start
        if elapsed + statistics.fmean(round_s) / 2 >= seconds:
            return records, elapsed


def _layers(tracer, records: list[dict]) -> tuple[dict, dict]:
    """Per-round totals of self/inclusive times and counters, plus per-input medians."""
    times = tracing.op_times(tracer.spans)
    rounds: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    by_input: dict[str, dict] = defaultdict(lambda: defaultdict(list))
    for op_id, rec in enumerate(records):
        tot = rounds[rec["round"]]
        tot["op.wall"] += rec["wall_s"]
        for name, t in times[op_id].items():
            tot[name + ".s"] += t["self"]
            tot[name + ".incl_s"] += t["incl"]
            tot[name + ".calls"] += t["calls"]
            by_input[rec["key"]][name].append(t["incl"])
        for key, v in tracer.op_counts[op_id].items():
            tot[key] += v
        by_input[rec["key"]]["wall"].append(rec["wall_s"])
        by_input[rec["key"]]["steps"].append(tracer.op_counts[op_id].get("lattice_sim.steps", 0))
        if rec["error_kind"]:
            tot["errors." + rec["error_kind"]] += 1
    names = sorted({k for tot in rounds.values() for k in tot})
    layers = {k: statistics.median(tot.get(k, 0.0) for tot in rounds.values()) for k in names}
    per_input = {
        key: {name: statistics.median(v) for name, v in d.items()} for key, d in by_input.items()
    }
    return layers, per_input


if __name__ == "__main__":
    sys.exit(main())
