"""``grid_sweep``: a seed-drawn sample of the evaluation grid, batch-run.

The sample is drawn from the 32 short (dataset, pattern) pairs of the
evaluation grid at scale 0.3 — those whose FINGERS cell simulates at
most 25k tasks, which leaves out ``heavy_tail``'s cells and the rest of
the tail.  The pairs are ordered by cost and cut into strata of eight;
the seed keeps six pairs of each of the two cheaper strata and all of the
two dearer ones, so every seed sweeps the same spread of cell sizes.
Drawing the pairs freely would move the sweep's work by about 5% from
seed to seed, and drawing from the dearer strata too would move the
latency tail by about 14%, because the 75th-percentile cell falls among
them.  Each kept pair runs as
a FINGERS + Shogun pair (the Figure 9 comparison).  Two fixed cells from
each of the grid's other configurations ride along: splitting on 20 PEs,
merging, a 2 KB L1 at width 8 (a thrashing cache: a quarter or more of
the bookings take the memory-escape paths), and the BFS/DFS baselines.

Each pass runs the whole sample through ``Orchestrator(jobs=2)`` with an
empty result cache, exactly as ``repro experiment`` would.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.runner import eval_config, get_graph, reference_count
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.cells import CellSpec, cell_key
from repro.orchestrator.manifest import RunManifest
from repro.orchestrator.scheduler import Orchestrator
from repro.patterns.graphpi import benchmark_schedule

from . import layers
from .common import Tracer, check_output, children_cpu_s
from .ops import Op, PassResult

SCALE = 0.3
JOBS = 2

#: The short grid pairs, ascending by the measured time of their
#: FINGERS + Shogun pair at scale 0.3 (cext backend, 2-vCPU x86 host).
SHORT_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("wi", "4cl"), ("wi", "tc"), ("wi", "5cl"), ("as", "tc"),
    ("pa", "tc"), ("yo", "4cl"), ("pa", "4cl"), ("yo", "tc"),
    ("pa", "tt_e"), ("pa", "dia_v"), ("pa", "5cl"), ("as", "5cl"),
    ("or", "tc"), ("pa", "tt_v"), ("lj", "tc"), ("pa", "dia_e"),
    ("yo", "5cl"), ("wi", "dia_v"), ("as", "4cl"), ("lj", "4cl"),
    ("wi", "dia_e"), ("wi", "4cyc_v"), ("yo", "dia_e"), ("as", "dia_v"),
    ("as", "dia_e"), ("lj", "dia_v"), ("yo", "dia_v"), ("lj", "dia_e"),
    ("wi", "tt_v"), ("wi", "4cyc_e"), ("pa", "4cyc_v"), ("pa", "4cyc_e"),
)
STRATUM = 8
#: Pairs kept of each stratum, cheapest first.
KEEP = (6, 6, 8, 8)

#: Cells of the grid's other configurations, two per configuration:
#: (dataset, pattern, policy, eval_config overrides).
EXTRAS: Tuple[tuple, ...] = (
    # Splitting on 20 PEs (Figure 11).
    ("wi", "4cl", "shogun", (("num_pes", 20), ("enable_splitting", True))),
    ("wi", "dia_e", "shogun", (("num_pes", 20), ("enable_splitting", True))),
    # Search-tree merging (Figure 12).
    ("yo", "4cl", "shogun", (("enable_merging", True),)),
    ("as", "4cl", "shogun", (("enable_merging", True),)),
    # Width 8 on a 2 KB L1: the cache thrashes.
    ("yo", "4cl", "shogun", (("l1_kb", 2),)),
    ("yo", "4cl", "parallel-dfs", (("l1_kb", 2),)),
    # The BFS and DFS baselines.
    ("lj", "tc", "bfs", ()),
    ("lj", "tc", "dfs", ()),
)


def sample(seed: int) -> List[tuple]:
    """The seed's cells as (dataset, pattern, policy, overrides)."""
    rng = np.random.default_rng((seed, 1))
    cells = []
    for i, keep in enumerate(KEEP):
        stratum = SHORT_PAIRS[i * STRATUM:(i + 1) * STRATUM]
        for j in sorted(rng.choice(len(stratum), keep, replace=False)):
            dataset, pattern = stratum[int(j)]
            cells.append((dataset, pattern, "fingers", ()))
            cells.append((dataset, pattern, "shogun", ()))
    return cells + list(EXTRAS)


def specs_for(cells: List[tuple]) -> Dict[str, CellSpec]:
    specs = {}
    for dataset, pattern, policy, overrides in cells:
        spec = CellSpec(dataset, pattern, policy, SCALE, eval_config(**dict(overrides)))
        specs[cell_key(spec)] = spec
    return specs


def stage(specs: Dict[str, CellSpec], tracer: Tracer) -> Dict[Tuple[str, str], int]:
    """Build graphs, schedules and reference counts in this process.

    The pool workers fork from it and inherit all three, as they do when
    ``repro experiment`` runs a grid whose counts are already known.
    """
    counts = {}
    for spec in specs.values():
        pair = (spec.dataset, spec.pattern)
        if pair in counts:
            continue
        with tracer.span("graph.build", dataset=spec.dataset):
            get_graph(spec.dataset, SCALE)
        with tracer.span("patterns.schedule", pattern=spec.pattern):
            benchmark_schedule(spec.pattern)
        with tracer.span("mining.ref_count", dataset=spec.dataset, pattern=spec.pattern):
            counts[pair] = reference_count(spec.dataset, spec.pattern, scale=SCALE)
    return counts


def spec_cell(spec: CellSpec) -> str:
    return layers.cell_id(spec.dataset, spec.pattern, spec.policy, spec.config)


class GridSweep:
    name = "grid_sweep"

    def __init__(self, seed: int, digests: Dict[str, str]) -> None:
        self.digests = digests
        self.specs = specs_for(sample(seed))
        self.counts: Dict[Tuple[str, str], int] = {}
        self.run_dir = Path(".")
        self.passes = 0

    def setup(self, tracer: Tracer, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.counts = stage(self.specs, tracer)

    def run_pass(self, tracer: Tracer, traced: bool) -> PassResult:
        self.passes += 1
        cache = ResultCache(self.run_dir / f"results-{self.passes}")
        probe_dir = self.run_dir / "probe"
        restore = layers.install_probe(probe_dir) if traced else None
        manifest = RunManifest(jobs=JOBS)
        try:
            cpu0 = children_cpu_s()
            start = time.perf_counter()
            sweep = tracer.begin("orchestrator.run_cells", cells=len(self.specs))
            results, failures = Orchestrator(JOBS, cache=cache).run_cells(
                self.specs, manifest
            )
            tracer.end(sweep)
            wall = time.perf_counter() - start
            # The pool has been joined, so its workers' CPU is counted.
            cpu = children_cpu_s() - cpu0
        finally:
            if restore is not None:
                restore()
        outcomes = {c.key: c for c in manifest.cells}
        ops = []
        for key, spec in self.specs.items():
            cell = spec_cell(spec)
            outcome = outcomes.get(key)
            seconds = outcome.seconds if outcome is not None else 0.0
            metrics = results.get(key)
            if metrics is None:
                error = failures.get(key, {})
                ops.append(Op(cell, seconds, problems=[
                    f"{error.get('type', 'Error')}: {error.get('message', 'no result')}"
                ]))
                continue
            result = metrics.to_dict()
            ops.append(Op(
                cell, seconds, tasks=metrics.tasks_executed,
                metrics=result,
                problems=check_output(
                    result, self.counts[(spec.dataset, spec.pattern)],
                    self.digests.get(cell),
                ),
            ))
        cell_s = sum(c.seconds for c in manifest.cells)
        summary = {
            "cell_s_sum": cell_s,
            "graph_s_sum": sum(
                float((c.worker or {}).get("graph_seconds", 0.0)) for c in manifest.cells
            ),
            "idle_frac": 1.0 - cell_s / (JOBS * wall),
            "cells_computed": manifest.computed,
            "cells_failed": manifest.failed,
            "cells_retried": sum(max(0, c.attempts - 1) for c in manifest.cells),
        }
        records = layers.read_records(probe_dir) if traced else []
        for record in records:
            layers.add_cell_spans(tracer, record, sweep)
        return PassResult(wall, ops, cpu, records, orchestrator=summary)

    def close(self) -> None:
        pass
