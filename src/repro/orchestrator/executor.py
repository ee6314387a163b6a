"""Awaitable per-cell execution on a long-lived warm pool.

Every execution plane runs its cells through :class:`PersistentCellExecutor`:
the batch :class:`~repro.orchestrator.scheduler.Orchestrator` opens one
per sweep, and ``repro serve`` (:mod:`repro.service`) and ``repro
worker`` (:mod:`repro.distributed.worker`) keep one warm for their
whole lifetime.  The executor owns the expensive state — the worker
pool — and answers individual cells as they arrive, concurrently:

* ``stage(dataset, scale)`` materializes a graph once into the
  process-local dataset memo (writing the binary graph store on a
  rebuild); a pool forked afterwards inherits the memo, and a worker
  that meets a graph staged after it forked loads it from the store;
* ``run_cell(spec, key)`` is an **awaitable**: it dispatches one cell
  to the warm pool (or an in-process worker thread when ``jobs=1``)
  and resolves to a ``(metrics, error, seconds, worker)`` outcome
  tuple with structured error isolation — a failing cell returns an
  error report, it never poisons the pool;
* a worker that dies hard (``BrokenProcessPool``) or exceeds its
  timeout is replaced: the pool is rebuilt behind the same executor so
  the next cell still finds it warm;
* a process pool that cannot start its workers — at construction or,
  under fork, inside its first ``submit()`` — is swapped for one
  in-process worker thread;
* ``close()`` drains or cancels outstanding work and shuts the pool
  down (idempotent, also a context manager).

Every plane runs the one worker body, :func:`_execute_staged_cell`
(around :func:`_execute_cell`), which is what keeps batch-run,
daemon-served and worker-computed metrics byte-identical.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import sys
import threading
import time
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Dict, Optional, Tuple

from ..sim.metrics import RunMetrics
from .cache import ResultCache
from .cells import CellSpec, cell_key

#: Outcome of one cell: (metrics, error, seconds, worker record).
CellOutcomeTuple = Tuple[Optional[RunMetrics], Optional[dict], float, Optional[dict]]


#: Errors that mean "no process pool here": at construction, or — with
#: fork — when the first ``submit()`` starts the workers.
_POOL_START_ERRORS = (OSError, ImportError, NotImplementedError)


def _thread_fallback(exc: BaseException) -> ThreadPoolExecutor:
    print(
        f"process pool unavailable ({type(exc).__name__}: {exc}); "
        "falling back to one in-process worker thread",
        file=sys.stderr,
    )
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-cell")


# ----------------------------------------------------------------------
# worker entry points (top level so they pickle under any start method)
# ----------------------------------------------------------------------

def _execute_cell(payload: Tuple) -> Tuple[str, Optional[dict], Optional[dict], float]:
    """Run one cell; returns (key, metrics_dict | None, error | None, seconds).

    Exceptions never propagate: they come back as structured error
    dictionaries so one bad cell cannot poison the pool or the sweep.
    Metrics cross the process boundary as plain dicts
    (``RunMetrics.to_dict``), the same form the cache stores.
    """
    key, dataset, pattern, policy, config, scale, verify = payload
    start = time.perf_counter()
    try:
        from ..experiments.runner import simulate_cell

        metrics = simulate_cell(
            dataset, pattern, policy, config=config, scale=scale, verify=verify
        )
        return (key, metrics.to_dict(), None, time.perf_counter() - start)
    except KeyboardInterrupt:
        # An interrupt is aimed at the sweep, not the cell: let it
        # unwind (the batch _InterruptGuard converts SIGTERM into this).
        raise
    except BaseException as exc:  # structured failure report, not a crash
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        return (key, None, error, time.perf_counter() - start)


def _spec_payload(key: str, spec: CellSpec) -> Tuple:
    return (key, spec.dataset, spec.pattern, spec.policy,
            spec.config, spec.scale, spec.verify)


def _execute_staged_cell(payload: Tuple):
    """Worker body: resolve the cell's graph, then run the cell.

    The graph comes from
    :func:`~repro.graph.datasets.load_dataset_with_source`: the process
    memo (inherited on fork), then the binary store, then a rebuild.
    Resolution is best-effort: on any failure the cell falls back to its
    own load path and still reports a proper structured error.
    """
    code, scale = payload[1], payload[5]
    source, graph_seconds = "unresolved", 0.0
    start = time.perf_counter()
    try:
        from ..graph.datasets import load_dataset_with_source

        _, source = load_dataset_with_source(code, scale=scale)
        graph_seconds = time.perf_counter() - start
    except Exception:  # an interrupt still unwinds the inline path
        pass
    key, metrics_dict, error, seconds = _execute_cell(payload)
    from ..sim import backend as kernel_backend

    resolution = kernel_backend.resolution()
    worker = {
        "pid": os.getpid(),
        "dataset_source": source,
        "graph_seconds": round(graph_seconds, 6),
        # Resolution observed after the cell ran (the cell's config /
        # REPRO_BACKEND drove activation); surfaces silent fallbacks.
        "backend": resolution["resolved"],
        **(
            {"backend_fallback": resolution["fallback"]}
            if resolution["fallback"]
            else {}
        ),
    }
    return key, metrics_dict, error, seconds, worker


def _outcome_of(result: Tuple) -> CellOutcomeTuple:
    """The worker body's 5-tuple as a ``(metrics, error, seconds, worker)`` outcome."""
    _key, metrics_dict, error, seconds, worker = result
    metrics = RunMetrics.from_dict(metrics_dict) if metrics_dict else None
    return metrics, error, seconds, worker


class PersistentCellExecutor:
    """Warm pool + staged graphs behind awaitable per-cell dispatch.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` runs cells on a single in-process
        worker thread (deterministic, fast to start — the test and
        in-proc-transport default); higher values use a fork-context
        ``ProcessPoolExecutor`` kept alive across cells, or the single
        worker thread if no process pool can be created here.
    cache:
        Optional :class:`ResultCache` consulted by :meth:`lookup` and
        written through by callers; the executor itself never consults
        it (the service owns read-through policy).
    timeout:
        Per-cell wall-clock limit in seconds.  A timed-out cell returns
        a ``TimeoutError`` report and, in pool mode, the pool is
        rebuilt so the abandoned worker cannot absorb a later cell.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.timeout = timeout
        self._lock = threading.Lock()
        self._pool: "ProcessPoolExecutor | ThreadPoolExecutor | None" = None
        self._staged: Dict[Tuple[str, float], dict] = {}
        self._closed = False
        self._close_done = threading.Event()
        self._close_owner: Optional[int] = None
        #: Real simulations dispatched (coalescing tests read this).
        self.executions = 0

    # ------------------------------------------------------------------
    # staging
    # ------------------------------------------------------------------
    def stage(self, dataset: str, scale: float) -> dict:
        """Materialize one graph once; returns its staging record.

        Safe to call repeatedly and from executor threads: the first
        call builds (or binary-loads) the graph into the process-local
        memo, and a rebuild writes the binary store; later calls return
        the memoized record.
        """
        key = (dataset, float(scale))
        with self._lock:
            record = self._staged.get(key)
            if record is not None:
                return record
            if self._closed:
                raise RuntimeError("executor is closed")
            from ..graph.datasets import load_dataset_with_source

            start = time.perf_counter()
            record = {"dataset": dataset, "scale": float(scale)}
            try:
                graph, source = load_dataset_with_source(dataset, scale=scale)
                record["source"] = source
                record["vertices"] = graph.num_vertices
                record["edges"] = graph.num_edges
            except Exception as exc:
                record["source"] = "error"
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["seconds"] = round(time.perf_counter() - start, 6)
            self._staged[key] = record
            return record

    def staging(self) -> list:
        """Every staging record so far (the service's ``jobs`` view)."""
        with self._lock:
            return [dict(r) for r in self._staged.values()]

    def is_staged(self, dataset: str, scale: float) -> bool:
        """Whether :meth:`stage` has already resolved this graph."""
        return (dataset, float(scale)) in self._staged

    # ------------------------------------------------------------------
    # pool lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is None:
                self._pool = self._make_pool()
            return self._pool

    def _make_pool(self):
        if self.jobs > 1:
            context = None
            if "fork" in multiprocessing.get_all_start_methods():
                # fork inherits sys.path, loaded modules and the parent's
                # dataset memo — workers start warm.
                context = multiprocessing.get_context("fork")
            try:
                return ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)
            except _POOL_START_ERRORS as exc:
                return _thread_fallback(exc)
        return ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-cell")

    def _retire_unstartable_pool(self, pool, exc: BaseException):
        """Swap a process pool whose workers failed to start for the thread.

        With fork, ``ProcessPoolExecutor`` starts its workers inside the
        first ``submit()``, so a fork failure (``EAGAIN``) surfaces there
        rather than at construction.  Returns the pool to submit to.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("executor is closed")
            if self._pool is pool or self._pool is None:
                self._pool = _thread_fallback(exc)
            replacement = self._pool
        # Workers forked before the failure would otherwise block exit.
        for proc in (getattr(pool, "_processes", None) or {}).values():
            proc.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        return replacement

    def _rebuild_pool(self, pool) -> None:
        """Replace a broken/abandoned pool so the next cell stays warm.

        Only ``pool`` — the one the failed cell ran on — is retired: a
        second slot reporting the same broken pool must not tear down
        the fresh one the first slot already dispatched to.
        """
        with self._lock:
            if self._pool is not pool:
                return
            self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def lookup(self, key: str):
        """Read-through consult of the persistent cache (or None)."""
        if self.cache is None:
            return None
        return self.cache.get(key)

    def submit(self, spec: CellSpec, key: Optional[str] = None) -> Future:
        """Dispatch one cell to the warm pool; returns its Future."""
        return self._submit(spec, key)[1]

    def _submit(self, spec: CellSpec, key: Optional[str]):
        key = key if key is not None else cell_key(spec)
        payload = _spec_payload(key, spec)
        pool = self._ensure_pool()
        self.executions += 1
        try:
            return pool, pool.submit(_execute_staged_cell, payload)
        except _POOL_START_ERRORS as exc:
            pool = self._retire_unstartable_pool(pool, exc)
            return pool, pool.submit(_execute_staged_cell, payload)

    def run_inline(
        self, spec: CellSpec, key: Optional[str] = None
    ) -> CellOutcomeTuple:
        """Run one cell on the calling thread: no pool, no thread, no timeout.

        The batch ``jobs=1`` path.  A blocking caller has no event loop
        to keep free, and running here keeps SIGINT/SIGTERM prompt.
        """
        key = key if key is not None else cell_key(spec)
        self.executions += 1
        return _outcome_of(_execute_staged_cell(_spec_payload(key, spec)))

    async def run_cell(
        self, spec: CellSpec, key: Optional[str] = None
    ) -> CellOutcomeTuple:
        """Awaitable per-cell execution with structured error isolation.

        Never raises for a failing *cell* (the worker body converts any
        exception into an error report); executor-level faults — a dead
        worker process, a per-cell timeout — also come back as error
        reports, after the pool has been rebuilt.
        """
        start = time.perf_counter()
        try:
            pool, future = self._submit(spec, key)
        except RuntimeError as exc:
            error = {"type": type(exc).__name__, "message": str(exc),
                     "traceback": ""}
            return None, error, 0.0, None
        wrapped = asyncio.wrap_future(future)
        try:
            if self.timeout is not None:
                outcome = await asyncio.wait_for(wrapped, self.timeout)
            else:
                outcome = await wrapped
        except asyncio.TimeoutError:
            future.cancel()
            self._rebuild_pool(pool)
            error = {
                "type": "TimeoutError",
                "message": f"cell exceeded {self.timeout:.0f}s",
                "traceback": "",
            }
            return None, error, time.perf_counter() - start, None
        except Exception as exc:  # e.g. BrokenProcessPool
            self._rebuild_pool(pool)
            error = {"type": type(exc).__name__, "message": str(exc),
                     "traceback": ""}
            return None, error, time.perf_counter() - start, None
        return _outcome_of(outcome)

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, *, cancel: bool = True) -> None:
        """Shut the pool down.

        Idempotent *and* convergent: exactly one invocation performs
        the teardown, and every other invocation — a drain path and a
        ``finally`` block closing concurrently, a second close from
        another thread — blocks until that teardown has finished, so no
        caller can observe a "closed" executor whose pool is still
        shutting down.  A re-entrant call from the closing thread itself
        (a ``finally`` on the same stack as the failing close) returns
        immediately instead of deadlocking on its own completion.
        """
        with self._lock:
            if self._closed:
                if self._close_owner == threading.get_ident():
                    return  # re-entrant from the closing thread's own stack
                wait_for_owner = True
            else:
                self._closed = True
                self._close_owner = threading.get_ident()
                wait_for_owner = False
                pool, self._pool = self._pool, None
                self._staged = {}
        if wait_for_owner:
            self._close_done.wait()
            return
        try:
            if pool is not None:
                pool.shutdown(wait=not cancel, cancel_futures=cancel)
        finally:
            # Waiters are released only once the teardown has finished,
            # whatever it raised.
            self._close_done.set()

    def __enter__(self) -> "PersistentCellExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
