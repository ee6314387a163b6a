"""End-to-end benchmark of the Shogun reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload heavy_tail --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics, or the
per-layer ones with ``--trace 1``).  Everything above it is a report for
people.  See perfbench/README.md for the workloads and metrics.

The command loads the kernel library (compiling it on the first run in
a checkout) and then measures in a fresh child process, so no compiler
run is ever a child of the measuring process.

Other modes: ``--ablation`` (the knob-ablation run), ``--record-digests``
(rewrite perfbench/digests.json from the current program).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"
DIGESTS = ROOT / "perfbench" / "digests.json"

WORKLOADS = ("heavy_tail", "grid_sweep", "serve_mixed")

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("us_per_task", "us"),
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

MACRO_ESCAPES = ("vertex_miss", "inter_miss", "graph_miss", "multi_round",
                 "spans_overflow", "instrumented", "injected")
TREE_ESCAPES = ("instrumented", "pinned_off", "list_span", "cold_path")

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("graph.build_s", "s"),
    ("patterns.schedule_s", "s"),
    ("mining.ref_count_s", "s"),
    ("sim.build_s", "s"),
    ("sim.run_s", "s"),
    ("backend.kernel_calls", "count"),
    ("backend.kernel_s", "s"),
    ("backend.glue_s", "s"),
    ("backend.macro.core_s", "s"),
    ("backend.macro.drained_frac", "frac"),
    *((f"backend.macro.escape.{r}", "count") for r in MACRO_ESCAPES),
    ("core.task_tree.kernel_frac", "frac"),
    ("core.task_tree.kernel_calls", "count"),
    ("core.task_tree.object_calls", "count"),
    ("core.task_tree.kernel_s", "s"),
    *((f"core.task_tree.escape.{r}", "count") for r in TREE_ESCAPES),
    ("orchestrator.cell_s_sum", "s"),
    ("orchestrator.graph_s_sum", "s"),
    ("orchestrator.idle_frac", "frac"),
    ("orchestrator.cells_computed", "count"),
    ("orchestrator.cells_failed", "count"),
    ("orchestrator.cells_retried", "count"),
    ("service.queue_wait_ms", "ms"),
    ("service.run_ms", "ms"),
    ("service.latency_ms.cache", "ms"),
    ("service.latency_ms.computed", "ms"),
    ("service.latency_ms.coalesced", "ms"),
    ("service.cache_hit_frac", "frac"),
    ("service.coalesced_frac", "frac"),
    ("service.rejected", "count"),
    ("sim.tasks", "count"),
    ("sim.cycles", "cycles"),
    ("sim.memory.l1_hit_rate", "frac"),
    ("sim.memory.l2_hit_rate", "frac"),
    ("sim.dram.requests", "count"),
    ("sim.noc.lines", "count"),
    ("sim.fu.iu_utilization", "frac"),
    ("sim.pe.slot_utilization", "frac"),
    ("sim.pe.barrier_idle_frac", "frac"),
    ("core.conservative_frac", "frac"),
    ("core.split_rounds", "count"),
    ("core.merges", "count"),
    ("shogun_speedup", "x"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "frac"),
)


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def hermetic_env(run_dir: Path) -> None:
    """Private caches for this run; nothing from the caller's environment
    that would select another backend or share a cache."""
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["REPRO_CACHE_DIR"] = str(run_dir / "cache")
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def make_workload(name: str, seed: int):
    digests = load_digests()
    if name == "heavy_tail":
        from perfbench.heavy_tail import HeavyTail

        return HeavyTail(seed, digests)
    if name == "grid_sweep":
        from perfbench.grid_sweep import GridSweep

        return GridSweep(seed, digests)
    from perfbench.serve_mixed import ServeMixed

    return ServeMixed(seed, digests)


def load_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def backend_line() -> tuple:
    """(resolution dict, report line); a non-cext backend is flagged."""
    from repro.sim import backend

    resolution = backend.resolution()
    line = (f"backend: {resolution['resolved']} "
            f"(requested {resolution['requested']})")
    if resolution["resolved"] != "cext":
        line += (" -- NOT the compiled backend: this run measures a "
                 "different program than the cext default")
    return resolution, line


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

def end_to_end(passes, setup_s, rss_mb):
    from perfbench.common import tail

    ops = [op for p in passes for op in p.ops]
    latencies = [op.latency_s * 1000.0 for op in ops]
    computed = [op for op in ops if op.tasks > 0]
    tail_ms, tail_label = tail(latencies, min(len(p.ops) for p in passes))
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "us_per_task": 1e6 * sum(p.cpu_s for p in passes)
        / max(1, sum(op.tasks for op in computed)),
        "req_p50_ms": statistics.median(latencies),
        "req_tail_ms": tail_ms,
        "req_per_s": len(ops) / sum(p.wall_s for p in passes),
        "peak_rss_mb": rss_mb,
    }
    return values, tail_label


def per_layer(traced, untraced_wall, tracer):
    """Per-layer metrics of one traced pass (plus the set-up spans)."""
    from perfbench.common import geomean, self_time_by_name

    spans = self_time_by_name(tracer.spans)
    cells = {op.cell for op in traced.ops}
    records = [r for r in traced.records if r["cell"] in cells]
    out = {name: 0.0 for name, _ in PER_LAYER}
    out["graph.build_s"] = spans.get("graph.build", 0.0)
    out["patterns.schedule_s"] = spans.get("patterns.schedule", 0.0)
    out["mining.ref_count_s"] = spans.get("mining.ref_count", 0.0)
    out["sim.build_s"] = sum(r["build"][1] - r["build"][0] for r in records)
    out["sim.run_s"] = sum(r["run"][1] - r["run"][0] for r in records)
    # Compiled time: the set-operation and cache kernels
    # backend.instrument() wraps, the macro core and the tree kernels.
    # These never call one another, so their sum is all compiled time and
    # what is left of the run is Python glue.
    out["backend.macro.core_s"] = sum(r["macro_s"] for r in records)
    out["core.task_tree.kernel_s"] = sum(r["tree_s"] for r in records)
    out["backend.kernel_calls"] = sum(
        r["kernel_calls"] + r["macro_calls"] + r["tree_calls"]["kernel"]
        for r in records)
    out["backend.kernel_s"] = (sum(r["kernel_s"] for r in records)
                               + out["backend.macro.core_s"]
                               + out["core.task_tree.kernel_s"])
    out["backend.glue_s"] = out["sim.run_s"] - out["backend.kernel_s"]
    macro = {}
    for r in records:
        for key, n in r["macro"].items():
            macro[key] = macro.get(key, 0) + n
    bookings = sum(macro.values())
    if bookings:
        out["backend.macro.drained_frac"] = (
            macro.get("fast", 0) + macro.get("partial", 0)) / bookings
    for reason in MACRO_ESCAPES:
        out[f"backend.macro.escape.{reason}"] = macro.get(reason, 0)
    kernel = sum(r["tree_calls"]["kernel"] for r in records)
    obj = sum(r["tree_calls"]["object"] for r in records)
    out["core.task_tree.kernel_calls"] = kernel
    out["core.task_tree.object_calls"] = obj
    if kernel + obj:
        out["core.task_tree.kernel_frac"] = kernel / (kernel + obj)
    for reason in TREE_ESCAPES:
        out[f"core.task_tree.escape.{reason}"] = sum(
            r["tree_escapes"].get(reason, 0) for r in records)
    for key, value in traced.orchestrator.items():
        out[f"orchestrator.{key}"] = value
    for key, value in traced.service.items():
        out[f"service.{key}"] = value

    runs = [op.metrics for op in traced.ops if op.source == "computed" and op.metrics]
    if runs:
        def mean(key):
            return sum(float(m[key]) for m in runs) / len(runs)

        def total(key):
            return sum(m[key] for m in runs)

        out["sim.tasks"] = total("tasks_executed")
        out["sim.cycles"] = total("cycles")
        out["sim.memory.l1_hit_rate"] = mean("l1_hit_rate")
        out["sim.memory.l2_hit_rate"] = mean("l2_hit_rate")
        out["sim.dram.requests"] = total("dram_requests")
        out["sim.noc.lines"] = total("noc_lines")
        out["sim.fu.iu_utilization"] = mean("iu_utilization")
        out["sim.pe.slot_utilization"] = mean("slot_utilization")
        out["sim.pe.barrier_idle_frac"] = mean("barrier_idle_fraction")
        out["core.conservative_frac"] = mean("conservative_fraction")
        out["core.split_rounds"] = total("split_rounds")
        out["core.merges"] = total("merges")
    out["shogun_speedup"] = geomean(shogun_pairs(traced.ops))
    out["trace.overhead_s"] = traced.wall_s - untraced_wall
    out["trace.overhead_frac"] = out["trace.overhead_s"] / untraced_wall
    return out


def shogun_pairs(ops):
    """FINGERS-over-Shogun cycle ratios of every cell pair run in a pass
    (same dataset, pattern and configuration)."""
    cycles = {}
    for op in ops:
        if op.source == "computed" and op.metrics:
            dataset, pattern, policy, config = op.cell.split(":")
            cycles[(dataset, pattern, config, policy)] = op.metrics["cycles"]
    return [
        cycles[key[:3] + ("fingers",)] / shogun
        for key, shogun in cycles.items()
        if key[3] == "shogun" and key[:3] + ("fingers",) in cycles
    ]


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------

def build_then_measure(argv) -> int:
    """Load the kernel library here, compiling it on the first run in a
    checkout, then measure in a fresh child process.

    ``RUSAGE_CHILDREN`` covers every child a process has waited for, so a
    compiler run by the measuring process would count in its peak RSS.
    The child inherits this process's standard output.
    """
    from repro.sim import backend

    backend.activate(None)
    args = sys.argv[1:] if argv is None else list(argv)
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args, "--measure"],
        cwd=os.getcwd(), timeout=170,
    )
    return done.returncode


def run_measure(args, run_dir: Path) -> int:
    from perfbench.common import Tracer, digest, peak_rss_mb

    # Set-up runs from here: the program's import, the kernel library's
    # load (the parent compiled it), and the workload's own set-up.
    setup_start = time.perf_counter()
    from repro.sim import backend

    backend.activate(None)
    if resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss:
        raise RuntimeError("a child process ran before the measurement "
                           "(was the kernel library compiled here?)")
    traced_run = bool(args.trace)
    tracer = Tracer(traced_run)
    workload = make_workload(args.workload, args.seed)
    try:
        with tracer.span("setup", workload=args.workload, seed=args.seed):
            workload.setup(tracer, run_dir)
        setup_s = time.perf_counter() - setup_start

        traced = None
        untraced = Tracer(False)
        measure_start = time.perf_counter()
        passes = [workload.run_pass(untraced, False)]
        # Read after the first pass, which is the same work in every run
        # (a later pass count depends on speed); the pools have been
        # joined, so their workers count.
        rss = peak_rss_mb()
        while time.perf_counter() - measure_start < args.seconds:
            passes.append(workload.run_pass(untraced, False))
        if traced_run:
            with tracer.span(args.workload, seed=args.seed):
                traced = workload.run_pass(tracer, True)
    finally:
        workload.close()

    ops = [op for p in passes + ([traced] if traced else []) for op in p.ops]
    failed = [op for op in ops if not op.ok]
    resolution, line = backend_line()
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced "
          f"pass(es) of {len(passes[0].ops)} operations"
          + (", 1 traced pass" if traced else ""))
    print(line)
    values, tail_label = end_to_end(passes, setup_s, rss)
    for name, unit in END_TO_END:
        extra = f"  [{tail_label}]" if name == "req_tail_ms" else ""
        print(f"  {name:<14} {values[name]:>14.4f} {unit}{extra}")
    print(f"  pass walls (s): {', '.join(f'{p.wall_s:.3f}' for p in passes)}")
    print(f"  failed_frac    {len(failed) / len(ops):>14.4f}")
    speedups = shogun_pairs(passes[0].ops)
    if speedups:
        from perfbench.common import geomean

        print(f"  shogun_speedup {geomean(speedups):>14.4f} x  "
              f"(simulated, {len(speedups)} FINGERS/Shogun pairs)")
    for op in failed[:20]:
        print(f"  FAILED {op.cell}: {'; '.join(op.problems)}")
    unrecorded = sorted({(op.cell, digest(op.metrics)) for op in ops
                         if op.metrics and op.cell not in workload.digests})
    if unrecorded:
        print(f"  digests ({len(unrecorded)} cells without a recorded digest):")
        for cell, value in unrecorded:
            print(f"    {cell} {value}")

    if traced is not None:
        metrics = per_layer(traced, passes[0].wall_s, tracer)
        units = dict(PER_LAYER)
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        write_spans(spans_path, tracer, args, resolution)
        print(f"  traced pass {traced.wall_s:.3f} s vs untraced {passes[0].wall_s:.3f} s: "
              f"overhead {metrics['trace.overhead_s']:+.3f} s "
              f"({100 * metrics['trace.overhead_frac']:+.1f}%)")
        print(f"  spans: {os.path.relpath(spans_path)}")
        print_self_times(tracer)
    else:
        units = dict(END_TO_END)
        metrics = values
    result = {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


def write_spans(path: Path, tracer, args, resolution) -> None:
    from perfbench.common import self_times

    own = self_times(tracer.spans)
    spans = tracer.to_json()
    for span in spans:
        span["self"] = own[span["id"]]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "backend": resolution, "spans": spans}, fh)


def print_self_times(tracer) -> None:
    from perfbench.common import self_time_by_name

    print("  self time by span (s):")
    for name, seconds in sorted(self_time_by_name(tracer.spans).items(),
                                key=lambda item: -item[1]):
        print(f"    {name:<24} {seconds:10.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="heavy_tail")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--ablation", action="store_true",
                        help="knob ablation on the smallest heavy_tail cell")
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite perfbench/digests.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    hermetic_env(run_dir)
    try:
        if args.ablation:
            from perfbench.ablation import run_ablation

            return run_ablation()
        if args.record_digests:
            from perfbench.record import record_digests

            return record_digests(DIGESTS)
        if not args.measure:
            return build_then_measure(argv)
        return run_measure(args, run_dir)
    finally:
        stop_resource_tracker()
        shutil.rmtree(run_dir, ignore_errors=True)


def stop_resource_tracker() -> None:
    """End the helper process multiprocessing starts to track the graph
    arena's shared memory, and wait for it, instead of leaving it to
    exit after this process does."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
