"""Benchmark of the fput_fronts package: one command, three workloads.

    python3 perfbench/run.py --workload {front-cold,front-sweep,lattice} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
The load is a closed loop with one client: each op starts when the previous
one ends.  A *round* runs every input of the workload once (order shuffled by
the seed), and a measured phase runs whole rounds, stopping at the round end
nearest to its time, so every run times the same input mix.

``--trace 0`` starts three fresh processes in turn.  Each imports the
package, builds the inputs from the seed and runs one untimed warm-up op
(set-up), then measures its share of ``--seconds``; the records of the three
are pooled, so a run is not at the mercy of one process's memory layout.
It prints the ``end_to_end`` metrics of BENCHMARK.json: ``setup_s`` is the
median set-up time of the three, ``op_s_p50`` the median over rounds of each
round's median op time, ``op_s_p90`` the 90th percentile of all op times,
``ops_per_s`` the ops over their summed time and ``peak_rss_mb`` the largest
peak resident memory of the three.  Times are in reference seconds (see
calibrate.py): wall time scaled by a fixed kernel timed around it, because
the machine's speed drifts; the readable report also gives the wall times.

``--trace 1`` starts one process that measures an untraced phase, installs
the span wrappers of ``tracing.py`` and measures a traced phase, each for
half of ``--seconds``; it prints the ``per_layer`` metrics as totals per
round in wall time (median over the traced rounds).  ``.s`` is self time,
``.incl_s`` inclusive time, ``.calls`` the number of outermost spans.  The
spans are written to ``perfbench/out/spans-<workload>.json``.

Every op is checked (workloads.py) and its outputs are hashed; repeats of an
input, within a process and across processes, must hash identically.  A failed check or a differing hash fails the op; the result
line then says ``"correct": false`` and the exit code is 1.  The last line
of standard output is the JSON result; the lines before it are a readable
report (environment, per-input breakdown, tracing overhead).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("front-cold", "front-sweep", "lattice")
PROCESSES = 3  # fresh processes per untraced run; each sets up and measures a share
BUDGET_S = 170.0  # every run, set-up processes included, must end within 180 s
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Baseline single-run timings of the re-anchor table in ROADMAP.md:
# input -> (R0 ODE s, Newton+LSMR s, tent residual s)
ROADMAP_TABLE = {
    "quad eps=0.05": (0.33, 0.50, 0.37),
    "quad eps=0.02": (0.35, 0.11, 0.66),
    "hertz eps=0.05": (0.17, 0.16, 0.32),
}
ROADMAP_US_PER_STEP = 256.0

PER_INPUT_COLUMNS = (
    ("R0", "continuum.solve_R0"),
    ("solve", "front_solver.solve_front"),
    ("lsmr", "front_solver.lsmr"),
    ("recenter", "front_solver.recenter"),
    ("tent", "front_solver.residual_tent"),
    ("csv", "cli.write_profile_csv"),
    ("compare", "lattice_sim.compare_profile"),
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "fput_fronts" / "__init__.py").is_file():
        print(f"perfbench: no fput_fronts package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + BUDGET_S
    n_proc = PROCESSES if args.trace == 0 else 1
    procs: list[dict] = []
    used = 0.0
    for i in range(n_proc):
        # each process measures its share of the time the earlier ones left
        share = max(0.0, args.seconds - used) / (n_proc - i)
        procs.append(_worker(args, share, i, deadline))
        used += procs[-1]["elapsed_s"]
    records = [r | {"round": (i, r["round"])} for i, p in enumerate(procs) for r in p["records"]]
    failures, compared = _verify(records)
    attempted = len(records)
    untraced = _summary([r for r in records if r["phase"] == "untraced"])
    env = procs[-1]["env"]

    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, 1 client, {n_proc} process(es) in turn")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == args.workload))
    print("env: " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print(f"FAILED {msg}")
    print(f"failed_ops_ratio: {len(failures)}/{attempted} = {len(failures) / attempted:.4g} "
          f"(warm-ups included); determinism: {compared} repeat digests compared")
    print(f"untraced: {untraced['ops']} ops in {untraced['rounds']} rounds; calibration "
          f"kernel p50 {untraced['cal_s_p50']:.4f} s (reference {procs[0]['cal_ref_s']} s); "
          f"wall op_s_p50 {untraced['wall_op_s_p50']:.4f} s, op_s_p90 "
          f"{untraced['wall_op_s_p90']:.4f} s, ops_per_s {untraced['wall_ops_per_s']:.4f}")

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(p["setup_ref_s"] for p in procs),
            "op_s_p50": untraced["op_s_p50"],
            "op_s_p90": untraced["op_s_p90"],
            "ops_per_s": untraced["ops_per_s"],
            "peak_rss_mb": max(p["peak_rss_mb"] for p in procs),
        }
        print("set-up wall s: " + ", ".join(f"{p['setup_s']:.4f}" for p in procs))
        print("end-to-end metrics (times in reference seconds):")
        metrics = _emit(spec["end_to_end"], values)
    else:
        traced = _summary([r for r in records if r["phase"] == "traced"])
        values = _layer_values(procs[0], untraced, traced)
        _report_trace(procs[0], untraced, traced, values)
        print("per-layer metrics (traced phase, wall time per round, median over rounds):")
        metrics = _emit(spec["per_layer"], values)

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


def _worker(args, seconds: float, index: int, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update({k: "1" for k in THREAD_PINS})
    out_dir = HERE / "out" / f"{args.workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace), "--out", str(out_dir)]
    spawned_at = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"perfbench: worker {index} exceeded the {BUDGET_S:g} s budget")
    if proc.returncode != 0 or not stdout.strip():
        raise SystemExit(f"perfbench: worker {index} exited with code {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def _summary(records: list[dict]) -> dict:
    """Op-time statistics, in reference seconds and (``wall_`` keys) in wall seconds.

    ``op_s_p50`` is the median over rounds of each round's median op time:
    every round runs the same inputs, whose times form clusters, and the
    median of all ops would fall in a gap between clusters and jump with
    noise in the two ops beside it.
    """
    rounds: dict[tuple, list[dict]] = defaultdict(list)
    for r in records:
        rounds[r["round"]].append(r)
    steps = sum(r["steps"] for r in records)
    out = {"ops": len(records), "rounds": len(rounds),
           "cal_s_p50": statistics.median(r["cal_s"] for r in records)}
    for prefix, key in (("", "ref_s"), ("wall_", "wall_s")):
        times = [r[key] for r in records]
        out |= {
            prefix + "round_s": statistics.median(
                sum(r[key] for r in rnd) for rnd in rounds.values()
            ),
            prefix + "op_s_p50": statistics.median(
                statistics.median(r[key] for r in rnd) for rnd in rounds.values()
            ),
            prefix + "op_s_p90": statistics.quantiles(times, n=10, method="inclusive")[8],
            prefix + "ops_per_s": len(times) / sum(times),
            prefix + "steps_per_s": (
                steps / sum(r[key] for r in records if r["steps"]) if steps else 0.0
            ),
        }
    return out


def _verify(records: list[dict]) -> tuple[list[str], int]:
    """Failed checks, plus digests that differ from the first run of their input."""
    failures = []
    first: dict[str, str] = {}
    compared = 0
    for r in records:
        if r["failed"]:
            failures.append(f"{r['key']}: {'; '.join(r['failed'])}")
            continue
        if r["key"] not in first:
            first[r["key"]] = r["digest"]
            continue
        compared += 1
        if r["digest"] != first[r["key"]]:
            failures.append(f"{r['key']}: outputs differ from an earlier repeat")
    return failures, compared


def _emit(spec_metrics: list[dict], values: dict) -> dict:
    out = {}
    for m in spec_metrics:
        value = values.get(m["name"], 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}")
    return out


def _layer_values(measured: dict, untraced: dict, traced: dict) -> dict:
    layers = measured["layers"]
    values = dict(layers)
    steps = layers.get("lattice_sim.steps", 0.0)
    if steps:
        integrator = (layers.get("lattice_sim.run.incl_s", 0.0)
                      + layers.get("lattice_sim.run_free_chain.incl_s", 0.0))
        values["lattice_sim.us_per_step"] = 1e6 * integrator / steps
    values["lattice_sim.steps_per_s"] = untraced["wall_steps_per_s"]
    # reference seconds, so that machine-speed drift between the phases cancels
    values["trace.overhead_s"] = traced["op_s_p50"] - untraced["op_s_p50"]
    values["trace.unattributed_s"] = layers.get("op.s", 0.0)
    return values


def _report_trace(measured: dict, untraced: dict, traced: dict, values: dict) -> None:
    layers = measured["layers"]
    print(f"traced: {traced['ops']} ops in {traced['rounds']} rounds; "
          f"spans in {measured['spans_file']}")
    print(f"tracing overhead: op_s_p50 traced {traced['op_s_p50']:.4f} - untraced "
          f"{untraced['op_s_p50']:.4f} = {values['trace.overhead_s']:+.4f} reference s")
    self_sum = sum(v for k, v in layers.items()
                   if k.endswith(".s") and not k.endswith(".incl_s") and k != "op.s")
    overhead_round = traced["round_s"] - untraced["round_s"]
    unattributed = values["trace.unattributed_s"]
    print(f"self-time accounting per round (medians over rounds): layer self times sum to "
          f"{self_sum:.4f} s of {layers['op.wall']:.4f} s traced op wall; the "
          f"{unattributed:.4f} s outside every "
          f"layer span is {'within' if unattributed <= abs(overhead_round) else 'OUTSIDE'} "
          f"the tracing overhead of {overhead_round:+.4f} s per round")

    print("per input, median over its traced repeats of the op wall and inclusive span times:")
    for key, t in sorted(measured["per_input"].items()):
        cols = [f"op {t['wall']:.4f}"] + [
            f"{label} {t[name]:.4f}" for label, name in PER_INPUT_COLUMNS if t.get(name)
        ]
        integrator = t.get("lattice_sim.run", 0.0) + t.get("lattice_sim.run_free_chain", 0.0)
        if t.get("steps"):
            cols.append(f"{1e6 * integrator / t['steps']:.1f} us/step")
        print(f"  {key:<16} " + "  ".join(cols))
    for key, table in ROADMAP_TABLE.items():
        t = measured["per_input"].get(key)
        if t:
            r0 = t["continuum.solve_R0"]
            newton = (t["front_solver.solve_front"] - r0
                      - t.get("front_solver.background_term", 0.0))
            got = (r0, newton, t["front_solver.residual_tent"])
            print(f"  vs ROADMAP {key}: " + ", ".join(
                f"{label} {g:.3f} (table {want})"
                for label, g, want in zip(("R0", "newton+lsmr", "tent"), got, table)))
    if values.get("lattice_sim.us_per_step"):
        print(f"  vs ROADMAP lattice: {values['lattice_sim.us_per_step']:.1f} us/step traced, "
              f"{1e6 / values['lattice_sim.steps_per_s']:.1f} us/step untraced incl. op glue "
              f"(table {ROADMAP_US_PER_STEP:g})")


if __name__ == "__main__":
    sys.exit(main())
