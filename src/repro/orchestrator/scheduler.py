"""Cell scheduler: expand experiments into cells, execute on a pool.

Execution is a two-level DAG: every requested experiment depends on the
evaluation cells it reads, and cells are deduplicated *across* the
whole invocation (Figure 9 and Figure 10 share their Shogun runs, so
the pair costs one grid, not two).  The orchestrator runs it in three
phases:

1. **plan** — each plannable experiment runs once with a recording hook
   installed in :func:`repro.experiments.runner.run_cell`; every cell it
   would simulate is captured as a :class:`CellSpec` and the simulation
   itself is skipped (placeholder metrics are returned, never memoized).
   Experiments whose cost is not behind ``run_cell`` (table2's reference
   mining, table3/table4's statistics) are "direct": they skip this
   phase and simply execute inline during render.
2. **execute** — deduplicated cells are satisfied from the persistent
   cache when possible; the rest run on one
   :class:`~repro.orchestrator.executor.PersistentCellExecutor` opened
   for the call — the executor ``repro serve`` and ``repro worker``
   keep warm — or inline on the caller's thread when ``jobs=1``.  Each
   cell gets a wall-clock timeout (pool mode) and a bounded number of
   retries; a cell that exhausts them lands in the manifest's failure
   report instead of aborting the sweep.
3. **render** — each experiment runs for real with a replay hook that
   serves every ``run_cell`` from the in-memory results, so the rendered
   rows are byte-identical to the serial path (the simulator is
   deterministic; see docs/simulator.md).  An experiment that needs a
   failed cell raises :class:`CellExecutionError`, is recorded as
   failed, and the remaining experiments still render.
"""

from __future__ import annotations

import asyncio
import inspect
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..sim.metrics import RunMetrics
from .cache import ResultCache
from .cells import CellSpec, cell_key, graph_key, group_key
from .executor import CellOutcomeTuple, PersistentCellExecutor
from .manifest import CellOutcome, ExperimentOutcome, RunManifest

#: Experiments whose cell set can be recorded without real simulation
#: (every expensive call goes through ``run_cell``).
PLANNABLE_EXPERIMENTS = frozenset({
    "figure3a", "figure3b", "figure9", "figure10", "figure11",
    "figure12", "figure13a", "figure13b", "figure14",
    "table1",
    "ablation_conservative_mode", "ablation_tokens", "ablation_pipeline_throughput",
})


class _InterruptGuard:
    """Convert SIGTERM/SIGINT during a sweep into ``KeyboardInterrupt``.

    ``kill -TERM`` would normally terminate the process between
    bytecodes, skipping every ``finally`` on the stack — including the
    one that closes the executor and shuts its worker pool down.  While
    the guard is active both signals raise in the main thread instead,
    so an interrupted sweep unwinds through the same cleanup path as a
    ^C: in-flight cells are abandoned, queued ones cancelled, and every
    abandoned cell recorded in the manifest.  Off the main thread (the ``repro serve``
    daemon runs sweeps from worker tasks) it is a no-op — the daemon's
    event loop owns signal disposition there.
    """

    def __init__(self) -> None:
        self._previous: Dict[int, object] = {}
        self.signum: Optional[int] = None

    def __enter__(self) -> "_InterruptGuard":
        if threading.current_thread() is not threading.main_thread():
            return self
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[signum] = signal.signal(signum, self._raise)
            except (ValueError, OSError):  # exotic runtimes
                pass
        return self

    def _raise(self, signum, frame) -> None:
        self.signum = signum
        raise KeyboardInterrupt(signal.Signals(signum).name)

    def __exit__(self, *exc) -> bool:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
        return False


class CellExecutionError(RuntimeError):
    """A rendered experiment needed a cell that failed to execute."""

    def __init__(self, label: str, error: Dict[str, str]) -> None:
        self.label = label
        self.error = error
        super().__init__(
            f"cell {label} failed: {error.get('type', 'Error')}: "
            f"{error.get('message', '')}"
        )


@dataclass
class ExperimentRun:
    """Result of one orchestrated invocation."""

    names: List[str]
    rendered: Dict[str, str] = field(default_factory=dict)
    results: Dict[str, object] = field(default_factory=dict)
    manifest: RunManifest = field(default_factory=RunManifest)

    @property
    def ok(self) -> bool:
        return all(e.status == "ok" for e in self.manifest.experiments)


# ----------------------------------------------------------------------
# experiment invocation helpers
# ----------------------------------------------------------------------

def _call_experiment(name: str, scale: Optional[float], overrides: Optional[dict] = None):
    from .. import experiments

    fn = getattr(experiments, name)
    kwargs = dict(overrides or {})
    if scale is not None and "scale" in inspect.signature(fn).parameters:
        kwargs.setdefault("scale", scale)
    return fn(**kwargs)


def _placeholder_metrics(policy: str) -> RunMetrics:
    # cycles=1.0 keeps every speedup/normalization expression finite
    # while an experiment runs against recorded placeholders.
    return RunMetrics(policy=policy, cycles=1.0)


def plan_experiment(
    name: str,
    scale: Optional[float] = None,
    overrides: Optional[dict] = None,
) -> Dict[str, CellSpec]:
    """The deduplicated cells one experiment would simulate.

    Returns ``{}`` for direct (non-plannable) experiments; their work
    happens inline at render time.
    """
    from ..experiments import runner

    if name not in PLANNABLE_EXPERIMENTS:
        return {}
    recorded: Dict[str, CellSpec] = {}

    def recorder(*, dataset, pattern, policy, config, scale, verify):
        spec = CellSpec(dataset, pattern, policy, scale, config, verify)
        recorded.setdefault(cell_key(spec), spec)
        return _placeholder_metrics(policy)

    previous = runner.set_cell_hook(recorder)
    try:
        _call_experiment(name, scale, overrides)
    finally:
        runner.set_cell_hook(previous)
    return recorded


# ----------------------------------------------------------------------
# the orchestrator
# ----------------------------------------------------------------------

async def _run_slots(executor: PersistentCellExecutor, queue, record) -> None:
    """Drain ``queue`` through ``executor.jobs`` concurrent slot loops."""
    cells = iter(queue)

    async def slot() -> None:
        for key, spec in cells:
            record(key, spec, await executor.run_cell(spec, key))

    await asyncio.gather(*(slot() for _ in range(executor.jobs)))


class Orchestrator:
    """Executes deduplicated evaluation cells and renders experiments.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default) runs every cell inline on
        the caller's thread; higher values run them on a
        :class:`~repro.orchestrator.executor.PersistentCellExecutor`
        pool opened for the sweep.
    cache:
        A :class:`ResultCache`, or None to run uncached.
    timeout:
        Per-cell wall-clock limit in seconds (pool mode only — a single
        process cannot preempt itself).  A timed-out cell is recorded as
        failed with ``TimeoutError``.
    retries:
        Extra attempts a failed cell is granted before it lands in the
        failure report.
    progress:
        Optional ``callable(str)`` receiving one line per cell event.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        progress: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.progress = progress

    # ------------------------------------------------------------------
    def _report(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    # ------------------------------------------------------------------
    def run_cells(
        self,
        specs: Dict[str, CellSpec],
        manifest: Optional[RunManifest] = None,
    ) -> Tuple[Dict[str, RunMetrics], Dict[str, dict]]:
        """Execute deduplicated cells; returns (results, failures) by key.

        Cache hits are recorded first, the rest go to :meth:`_execute`
        (the one step the distributed orchestrator overrides), so both
        paths record cache hits and interrupts identically.  An
        interrupt marks every unresolved cell ``Interrupted`` before it
        propagates.
        """
        manifest = manifest if manifest is not None else RunManifest(jobs=self.jobs)
        results: Dict[str, RunMetrics] = {}
        failures: Dict[str, dict] = {}
        pending: Dict[str, CellSpec] = {}
        for key, spec in specs.items():
            entry = self.cache.get(key) if self.cache is not None else None
            if entry is None:
                pending[key] = spec
                continue
            results[key] = entry.metrics
            manifest.cells.append(
                CellOutcome(key, spec.label(), "cached", entry.seconds)
            )
            self._report(f"[cache hit] {spec.label()}")
        attempts = dict.fromkeys(pending, 0)
        guard = _InterruptGuard()
        try:
            with guard:
                if pending:
                    self._execute(pending, attempts, results, failures,
                                  manifest, total=len(specs))
        except KeyboardInterrupt:
            name = signal.Signals(guard.signum).name if guard.signum else "SIGINT"
            self._report(f"{name}: draining — abandoning in-flight cells")
            for key, spec in pending.items():
                if key in results or key in failures:
                    continue
                failures[key] = {
                    "type": "Interrupted",
                    "message": f"sweep interrupted by {name}",
                    "traceback": "",
                }
                manifest.cells.append(
                    CellOutcome(key, spec.label(), "failed",
                                0.0, attempts[key], failures[key])
                )
            raise
        return results, failures

    def _execute(
        self,
        pending: Dict[str, CellSpec],
        attempts: Dict[str, int],
        results: Dict[str, RunMetrics],
        failures: Dict[str, dict],
        manifest: RunManifest,
        *,
        total: int,
    ) -> None:
        """Run the pending cells on one executor, retrying in waves.

        Each wave is queued largest ``(dataset, pattern, scale)`` group
        first, each group's cells next to each other.  With one job the
        cells run inline on this thread; otherwise ``jobs`` slot loops
        keep at most ``jobs`` cells in flight on the executor's pool, so
        a pool rebuilt after a timeout cancels no queued cell.
        """
        executor = PersistentCellExecutor(
            min(self.jobs, len(pending)), timeout=self.timeout
        )
        retry: Dict[str, CellSpec] = {}

        def record(key: str, spec: CellSpec, outcome: CellOutcomeTuple) -> None:
            metrics, error, seconds, worker = outcome
            attempts[key] += 1
            if metrics is not None:
                results[key] = metrics
            status = "ok" if metrics is not None else "FAILED"
            self._report(
                f"[{len(results)}/{total}] {spec.label()} {status} ({seconds:.2f}s)"
            )
            if metrics is not None:
                manifest.cells.append(
                    CellOutcome(key, spec.label(), "computed",
                                seconds, attempts[key], worker=worker)
                )
                if self.cache is not None:
                    self.cache.put(spec, key, metrics, seconds)
            elif attempts[key] <= self.retries:
                self._report(
                    f"[retry {attempts[key]}/{self.retries}] {spec.label()}: "
                    f"{(error or {}).get('type', 'Error')}"
                )
                retry[key] = spec
            else:
                failures[key] = error or {}
                manifest.cells.append(
                    CellOutcome(key, spec.label(), "failed",
                                seconds, attempts[key], error, worker)
                )

        try:
            # Stage each distinct graph once, here, before the pool
            # forks: inline cells and forked workers then find it in the
            # dataset memo.  Best-effort: a graph that fails to build is
            # left for its cells to report.
            for code, scale in dict.fromkeys(map(graph_key, pending.values())):
                staged = dict(executor.stage(code, scale))
                manifest.staging.append(staged)
                self._report(
                    f"[stage] {code}@{scale}: {staged['source']} "
                    f"({staged['seconds']:.2f}s)"
                )
            wave = pending
            while wave:
                groups: Dict[Tuple[str, str, float], List[str]] = {}
                for key, spec in wave.items():
                    groups.setdefault(group_key(spec), []).append(key)
                queue = [
                    (key, wave[key])
                    for keys in sorted(groups.values(), key=len, reverse=True)
                    for key in keys
                ]
                retry = {}
                if executor.jobs == 1:
                    for key, spec in queue:
                        record(key, spec, executor.run_inline(spec, key))
                else:
                    asyncio.run(_run_slots(executor, queue, record))
                wave = retry
            # Join the pool so its workers are reaped on return.
            executor.close(cancel=False)
        finally:
            # Segments must never outlive the sweep — success, cell
            # failure, timeout, a broken pool or an interrupt all land
            # here before the exception (if any) propagates.
            executor.close()

    # ------------------------------------------------------------------
    def run_experiments(
        self,
        names: Sequence[str],
        *,
        scale: Optional[float] = None,
        overrides: Optional[Dict[str, dict]] = None,
    ) -> ExperimentRun:
        """Plan, execute and render ``names``; never raises per-cell errors.

        ``overrides`` maps an experiment name to extra keyword arguments
        for its entry point (tests use it to shrink grids).
        """
        from ..experiments import runner

        start = time.perf_counter()
        manifest = RunManifest(jobs=self.jobs)
        run = ExperimentRun(names=list(names), manifest=manifest)

        specs: Dict[str, CellSpec] = {}
        per_experiment = overrides or {}
        for name in names:
            for key, spec in plan_experiment(
                name, scale, per_experiment.get(name)
            ).items():
                specs.setdefault(key, spec)
        self._report(
            f"planned {len(specs)} unique cells across {len(names)} experiment(s)"
        )

        results, failures = self.run_cells(specs, manifest)

        def replay(*, dataset, pattern, policy, config, scale, verify):
            key = cell_key(CellSpec(dataset, pattern, policy, scale, config, verify))
            if key in results:
                return results[key]
            if key in failures:
                spec = CellSpec(dataset, pattern, policy, scale, config, verify)
                raise CellExecutionError(spec.label(), failures[key])
            return None  # unplanned cell: compute inline

        previous = runner.set_cell_hook(replay)
        try:
            for name in names:
                try:
                    result = _call_experiment(name, scale, per_experiment.get(name))
                    run.results[name] = result
                    run.rendered[name] = result.render()
                    manifest.experiments.append(ExperimentOutcome(name, "ok"))
                except Exception as exc:
                    manifest.experiments.append(
                        ExperimentOutcome(
                            name, "failed", f"{type(exc).__name__}: {exc}"
                        )
                    )
                    self._report(f"experiment {name} failed: {exc}")
        finally:
            runner.set_cell_hook(previous)

        manifest.wall_seconds = time.perf_counter() - start
        if self.cache is not None:
            try:
                manifest.save(self.cache.root / "last-run.json")
            except OSError:
                pass
        return run


# ----------------------------------------------------------------------
# standing cache attachment (benchmark sessions)
# ----------------------------------------------------------------------

def attach_persistent_cache(
    cache: Optional[ResultCache] = None,
) -> Callable[[], None]:
    """Route every ``run_cell`` through the on-disk cache; returns a detach.

    Used by ``benchmarks/conftest.py``: the first benchmark session
    pays the simulations and fills ``.repro-cache/``; later sessions
    (and ``repro experiment`` invocations sharing the directory) replay
    them.  Honors ``REPRO_CACHE=0`` by attaching nothing.
    """
    from ..experiments import runner
    from .cache import cache_enabled

    if cache is None:
        if not cache_enabled():
            return lambda: None
        cache = ResultCache()
    memo: Dict[str, RunMetrics] = {}

    def hook(*, dataset, pattern, policy, config, scale, verify):
        spec = CellSpec(dataset, pattern, policy, scale, config, verify)
        key = cell_key(spec)
        if key in memo:
            return memo[key]
        entry = cache.get(key)
        if entry is not None:
            memo[key] = entry.metrics
            return entry.metrics
        start = time.perf_counter()
        metrics = runner.simulate_cell(
            dataset, pattern, policy, config=config, scale=scale, verify=verify
        )
        cache.put(spec, key, metrics, time.perf_counter() - start)
        memo[key] = metrics
        return metrics

    previous = runner.set_cell_hook(hook)

    def detach() -> None:
        runner.set_cell_hook(previous)

    return detach
