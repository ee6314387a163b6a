"""Experiment runner: one evaluation cell = (dataset, pattern, policy).

Centralizes three things every table/figure needs:

* the **evaluation configuration** — Table 3 scaled to the synthetic
  datasets (see :func:`eval_config` for the scaling rationale),
* **memoized runs** — Figure 9 and Figure 10 read the same simulations,
  so results are cached per (dataset, pattern, policy, config) key,
* **count verification** — every simulation's match count is checked
  against the reference miner; a mismatch raises immediately, making the
  completeness/uniqueness invariant a standing assertion of the whole
  harness.
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, Dict, Optional, Tuple

from ..errors import SimulationError
from ..graph.csr import CSRGraph
from ..graph.datasets import load_dataset
from ..mining.engine import count_matches
from ..patterns.graphpi import benchmark_schedule
from ..patterns.schedule import MatchingSchedule
from ..sim.accelerator import simulate
from ..sim.config import SimConfig
from ..sim.metrics import RunMetrics


def default_scale() -> float:
    """Dataset scale factor, read lazily from ``REPRO_SCALE``.

    Reading the environment at call time (not import time) lets tests
    and the CLI set ``REPRO_SCALE`` after ``repro`` is imported and
    still take effect; the default is 1.0.
    """
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def __getattr__(name: str):
    # Deprecated alias: DEFAULT_SCALE was a module constant frozen at
    # import time, which silently ignored later REPRO_SCALE changes.
    if name == "DEFAULT_SCALE":
        warnings.warn(
            "repro.experiments.runner.DEFAULT_SCALE is deprecated; "
            "call default_scale() instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return default_scale()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def eval_config(**overrides) -> SimConfig:
    """The evaluation configuration: Table 3, memory scaled to datasets.

    The synthetic stand-ins are ~1000× smaller than the SNAP graphs, so
    running them against a full-size 32 KB L1 / 4 MB L2 would make every
    working set cache-resident and erase the locality effects the paper
    studies.  The hierarchy is therefore scaled to preserve the paper's
    *ratios* (hub neighbor set vs. L1 capacity, graph size vs. L2):

    * L1 8 KB (the 32 KB analog), L2 256 KB (the 4 MB analog),
    * SPM kept at 16 KB (per-slot staging, Table 3),
    * IU segment throughput scaled down 4× (4-element segments) so the
      compute/overhead balance matches the paper's compute-bound
      characterization despite the smaller vertex sets.

    Everything else (10 PEs, width 8, 178 task-tree entries, 12 dividers,
    24 IUs, 4 DRAM channels, conservative-mode thresholds) is Table 3
    verbatim.
    """
    base = dict(
        l1_kb=8,
        l2_kb=256,
        spm_kb=16,
        segment_elements=4,
        segment_cycles=16,
        lb_check_interval=500,
    )
    base.update(overrides)
    return SimConfig(**base)


_GRAPH_COUNTS: Dict[Tuple[str, str, float], int] = {}
_RUNS: Dict[Tuple, RunMetrics] = {}

#: Cell-interception hook installed by ``repro.orchestrator``: called by
#: :func:`run_cell` with the fully resolved cell before any simulation.
#: Returning a RunMetrics short-circuits the run (cache replay); None
#: falls through to the normal memoize-and-simulate path.
CellHook = Callable[..., Optional[RunMetrics]]
_CELL_HOOK: Optional[CellHook] = None


def set_cell_hook(hook: Optional[CellHook]) -> Optional[CellHook]:
    """Install ``hook`` (or None to uninstall); returns the previous hook."""
    global _CELL_HOOK
    previous = _CELL_HOOK
    _CELL_HOOK = hook
    return previous


def get_graph(dataset: str, scale: Optional[float] = None) -> CSRGraph:
    """The synthetic stand-in graph for a dataset code."""
    return load_dataset(dataset, scale=scale if scale is not None else default_scale())


def get_schedule(pattern: str) -> MatchingSchedule:
    """The GraphPi-style schedule for a benchmark pattern code."""
    return benchmark_schedule(pattern)


def reference_count(dataset: str, pattern: str, *, scale: Optional[float] = None) -> int:
    """Exact match count from the software reference miner (memoized).

    Counts are also persisted in the binary graph store (keyed by the
    graph's content key plus a miner-source salt), so concurrent
    orchestrator workers and later cold runs mine each
    ``(dataset, pattern, scale)`` once instead of once per process.
    """
    scale_val = scale if scale is not None else default_scale()
    key = (dataset, pattern, scale_val)
    if key in _GRAPH_COUNTS:
        return _GRAPH_COUNTS[key]
    from ..graph.store import default_graph_store

    store = default_graph_store()
    if store is not None:
        cached = store.get_count(dataset, scale_val, pattern)
        if cached is not None:
            _GRAPH_COUNTS[key] = cached
            return cached
    count = count_matches(get_graph(dataset, scale), get_schedule(pattern))
    if store is not None:
        try:
            store.put_count(dataset, scale_val, pattern, count)
        except OSError:
            pass
    _GRAPH_COUNTS[key] = count
    return count


def simulate_cell(
    dataset: str,
    pattern: str,
    policy: str,
    *,
    config: Optional[SimConfig] = None,
    scale: Optional[float] = None,
    verify: bool = True,
) -> RunMetrics:
    """Simulate one evaluation cell, bypassing memoization and hooks.

    This is the raw execution path orchestrator workers call in their
    own processes; :func:`run_cell` wraps it with the in-process memo
    and the orchestrator's cache/replay hook.
    """
    cfg = config if config is not None else eval_config()
    scale_val = scale if scale is not None else default_scale()
    metrics = simulate(get_graph(dataset, scale_val), get_schedule(pattern), policy=policy, config=cfg)
    if verify:
        expected = reference_count(dataset, pattern, scale=scale_val)
        if metrics.matches != expected:
            raise SimulationError(
                f"{dataset}-{pattern}/{policy}: simulated {metrics.matches} "
                f"matches but the reference miner found {expected}"
            )
    return metrics


def run_cell(
    dataset: str,
    pattern: str,
    policy: str,
    *,
    config: Optional[SimConfig] = None,
    scale: Optional[float] = None,
    verify: bool = True,
) -> RunMetrics:
    """Simulate one evaluation cell (memoized within the process)."""
    cfg = config if config is not None else eval_config()
    scale_val = scale if scale is not None else default_scale()
    if _CELL_HOOK is not None:
        provided = _CELL_HOOK(
            dataset=dataset, pattern=pattern, policy=policy,
            config=cfg, scale=scale_val, verify=verify,
        )
        if provided is not None:
            return provided
    key = (dataset, pattern, policy, scale_val, cfg)
    if key in _RUNS:
        return _RUNS[key]
    metrics = simulate_cell(
        dataset, pattern, policy, config=cfg, scale=scale_val, verify=verify
    )
    _RUNS[key] = metrics
    return metrics


def clear_run_cache() -> None:
    """Drop memoized runs and counts (tests)."""
    _RUNS.clear()
    _GRAPH_COUNTS.clear()
