"""Layer counters read from outside the program, per simulated cell.

Everything here goes through public entry points: the ``Accelerator``
class and its ``run()``, ``accel.macro.coverage()``, the task trees'
``op_calls``/``op_escapes``/``op_seconds`` (``task_tree.enable_profiling``)
and ``backend.instrument()``.  The compiled macro core is timed by
wrapping each PE's booking entry (``accel.macro.books``) from outside.
Pool workers of the orchestrator and the service are forked from the
benchmark process, so a probe installed here before the pool starts
runs in the workers too; each process appends one JSON line per cell to
a file the parent reads after the pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List

from repro.core import task_tree
from repro.sim import accelerator as accel_module
from repro.sim import backend


def config_fingerprint(config) -> str:
    fields = {f.name: getattr(config, f.name) for f in dataclasses.fields(config)}
    blob = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:10]


def cell_id(dataset: str, pattern: str, policy: str, config) -> str:
    """Identity of one cell, the key of the recorded digests."""
    return f"{dataset}:{pattern}:{policy}:{config_fingerprint(config)}"


def counters(accel) -> Dict[str, Dict[str, int]]:
    """Macro-core and task-tree counters of one finished simulation."""
    macro = accel.macro.coverage()["counters"] if accel.macro is not None else {}
    calls = {"kernel": 0, "object": 0}
    escapes: Dict[str, int] = {}
    seconds = 0.0
    for pe in accel.pes:
        tree = getattr(pe.policy, "tree", None)
        if tree is None:
            continue
        for op, n in tree.op_calls.items():
            calls["kernel" if op.endswith("_kernel") else "object"] += n
        for reason, n in tree.op_escapes.items():
            escapes[reason] = escapes.get(reason, 0) + n
        # Seconds inside the compiled tree kernels; only trees built
        # while task-tree profiling is on accumulate them.
        seconds += sum(tree.op_seconds.values())
    return {"macro": macro, "tree_calls": calls, "tree_escapes": escapes,
            "tree_s": seconds}


def time_macro_core(accel) -> list:
    """Time every call into ``accel``'s compiled macro core.

    Wraps each PE's booking entry, the one call per task the macro core
    makes into compiled code, and returns the live ``[calls, seconds]``.
    The Python around it (derivation, escapes, replays) stays outside
    the timer, so it lands in the glue.
    """
    record = [0, 0.0]
    macro = accel.macro
    if macro is None:
        return record
    perf = time.perf_counter

    def timed(book):
        def call(*args):
            t0 = perf()
            status = book(*args)
            record[1] += perf() - t0
            record[0] += 1
            return status

        return call

    macro.books = [timed(book) for book in macro.books]
    return record


def run_instrumented(accel, run: Callable) -> tuple:
    """``run()`` (the simulation of ``accel``) under
    ``backend.instrument()`` with its macro core timed; returns
    ``(metrics, record)`` with the run span, compiled-time attribution
    and counters."""
    core = time_macro_core(accel)
    with backend.instrument() as stats:
        start = time.perf_counter()
        metrics = run()
        end = time.perf_counter()
    record = {
        "cell": cell_id(accel.graph.name, accel.schedule.name,
                        accel.policy_name, accel.config),
        "pid": os.getpid(),
        "run": [start, end],
        "kernel_calls": sum(calls for calls, _ in stats.values()),
        "kernel_s": sum(seconds for _, seconds in stats.values()),
        "macro_calls": core[0],
        "macro_s": core[1],
        **counters(accel),
    }
    return metrics, record


def install_probe(out_dir: Path) -> Callable[[], None]:
    """Route every ``Accelerator`` built from now on through a probe that
    records build/run spans and counters to ``out_dir``, and turn on
    task-tree profiling.

    Returns the function that undoes both.  Install it before a pool
    forks so the workers inherit it.
    """
    out_dir.mkdir(exist_ok=True)
    original = accel_module.Accelerator
    task_tree.enable_profiling(True)

    class ProbedAccelerator(original):
        def __init__(self, *args, **kwargs) -> None:
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            self._probe_build = [start, time.perf_counter()]

        def run(self):
            metrics, record = run_instrumented(self, super().run)
            record["build"] = self._probe_build
            path = out_dir / f"probe-{os.getpid()}.jsonl"
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            return metrics

    accel_module.Accelerator = ProbedAccelerator

    def restore() -> None:
        accel_module.Accelerator = original
        task_tree.enable_profiling(False)

    return restore


def add_cell_spans(tracer, record: dict, parent) -> None:
    """Put a probe record's build/run spans under ``parent`` in ``tracer``."""
    for name, key in (("sim.build", "build"), ("sim.run", "run")):
        tracer.add(name, record[key][0], record[key][1], parent,
                   cell=record["cell"], pid=record["pid"])


def read_records(out_dir: Path) -> List[dict]:
    records = []
    for path in sorted(out_dir.glob("probe-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
        path.unlink()
    return records
