"""The ``repro serve`` daemon: a persistent async simulation service.

One long-lived asyncio process stands the expensive state up once — a
:class:`~repro.orchestrator.executor.PersistentCellExecutor` holding a
warm worker pool and the staged graphs it forks with — and then answers
experiment cells over any number of transports.  The request path:

1. **read-through** — a submitted cell whose key is already in the
   persistent ``.repro-cache/`` is answered immediately from disk
   (``source: "cache"``), byte-identical to the run that produced it;
2. **coalescing** — a cell already in flight gains a subscriber instead
   of a second execution; every subscriber receives the same terminal
   payload when the one execution lands (and writes through to the
   cache, so the *next* daemon or batch run is a read-through too);
3. **bounded queue** — anything else becomes a job in a bounded queue
   (reject-with-``QueueFull`` backpressure, never blocking the accept
   loop) and walks ``queued → staging → running → done/failed`` with
   every transition streamed to watching subscribers.

A failing cell produces a structured ``failed`` event and leaves the
pool warm; a worker that dies hard is replaced behind the executor.
Graceful shutdown (client ``shutdown`` op or SIGINT/SIGTERM via the
CLI) drains or cancels in-flight jobs, then closes the executor, which
shuts its worker pool down.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..orchestrator.cache import ResultCache
from ..orchestrator.cells import cell_key
from ..orchestrator.executor import PersistentCellExecutor
from . import protocol
from .jobs import Job, JobBoard, Subscriber
from .transports import InProcListener


class ReproService:
    """Transport-agnostic server core (see module docstring).

    Parameters
    ----------
    jobs:
        Worker parallelism of the underlying executor (``1`` = a single
        in-process worker thread — the in-proc-transport default).
    cache:
        A :class:`ResultCache` for read-through and write-through, or
        None to serve uncached (every submit executes).
    queue_limit:
        Maximum jobs queued-or-running before submits are rejected.
    timeout:
        Optional per-cell wall-clock limit (see the executor).
    log:
        Optional ``callable(str)`` receiving one line per server event
        (the CI smoke job captures this as its artifact).
    """

    def __init__(
        self,
        *,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        queue_limit: int = 64,
        history_limit: int = 256,
        timeout: Optional[float] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.cache = cache
        self.executor = PersistentCellExecutor(jobs, cache=cache, timeout=timeout)
        self.board = JobBoard(queue_limit, history_limit)
        self._queue: "asyncio.Queue[Optional[Job]]" = asyncio.Queue()
        self._listeners: List[object] = []
        self._workers: List[asyncio.Task] = []
        self._dispatches: "set[asyncio.Task]" = set()
        self._stopping = False
        self._stopped = asyncio.Event()
        self._shutdown_task: Optional[asyncio.Task] = None
        self._log = log if log is not None else (lambda line: None)
        self._started = time.time()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, listeners: List[object]) -> None:
        """Begin accepting on every listener and spin up the job workers."""
        self._listeners = list(listeners)
        for listener in self._listeners:
            await listener.start(self.handle_connection)
        for index in range(max(1, self.executor.jobs)):
            self._workers.append(
                asyncio.get_running_loop().create_task(
                    self._worker_loop(), name=f"repro-serve-worker-{index}"
                )
            )
        self._log(f"serving with jobs={self.executor.jobs}, "
                  f"queue_limit={self.board.queue_limit}, "
                  f"cache={'on' if self.cache is not None else 'off'}")

    async def serve_forever(self) -> None:
        """Block until a shutdown completes."""
        await self._stopped.wait()

    def initiate_shutdown(self, drain: bool = True) -> "asyncio.Task":
        """Idempotently begin shutdown; returns the owning task."""
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown(drain=drain)
            )
        return self._shutdown_task

    async def shutdown(self, drain: bool = True) -> None:
        """Stop serving: cancel the queue, drain or cancel running cells,
        close the executor (shutting its pool down), then the listeners."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._log(f"shutdown requested (drain={drain})")

        # Queued-but-not-running jobs are cancelled and notified.
        pending: List[Job] = []
        while True:
            try:
                job = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if job is not None:
                pending.append(job)
        for job in pending:
            job.mark(protocol.CANCELLED)
            self.board.stats["cancelled"] += 1
            await self._broadcast(job)
            self.board.retire(job)

        if drain:
            # Let cells already handed to the executor finish and
            # deliver their terminal events.
            while self.board.inflight:
                await asyncio.sleep(0.02)

        for _ in self._workers:
            self._queue.put_nowait(None)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []

        # Executor close cancels anything still running (non-drain path)
        # and shuts the worker pool down.
        self.executor.close(cancel=not drain)

        for listener in self._listeners:
            with contextlib.suppress(Exception):
                await listener.close()
        for task in list(self._dispatches):
            task.cancel()
        self._log("shutdown complete")
        self._stopped.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def handle_connection(self, connection) -> None:
        """Per-peer loop: each request is dispatched as its own task so a
        long submit cannot block later requests on the same connection."""
        while True:
            try:
                message = await connection.recv()
            except protocol.ProtocolError as exc:
                await self._send(connection, protocol.error_reply(
                    "ProtocolError", str(exc)
                ))
                continue
            if message is None:
                return
            task = asyncio.get_running_loop().create_task(
                self._dispatch(message, connection)
            )
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, message: dict, connection) -> None:
        op = message.get("op")
        req_id = message.get("id")
        try:
            if op == "ping":
                await self._send(connection, protocol.ok_reply(
                    req_id,
                    server=protocol.SERVER_NAME,
                    protocol=protocol.PROTOCOL_VERSION,
                    uptime=round(time.time() - self._started, 3),
                ))
            elif op == "submit":
                await self._handle_submit(message, connection)
            elif op == "jobs":
                await self._send(connection, protocol.ok_reply(
                    req_id,
                    jobs=self.board.describe(),
                    staging=self.executor.staging(),
                ))
            elif op == "stats":
                await self._send(connection, protocol.ok_reply(
                    req_id,
                    stats=dict(self.board.stats),
                    inflight=len(self.board.inflight),
                    queue_limit=self.board.queue_limit,
                    executions=self.executor.executions,
                ))
            elif op == "shutdown":
                drain = bool(message.get("drain", True))
                await self._send(connection, protocol.ok_reply(
                    req_id, stopping=True, drain=drain
                ))
                self.initiate_shutdown(drain=drain)
            else:
                await self._send(connection, protocol.error_reply(
                    "UnknownOp", f"unknown op: {op!r}", req_id
                ))
        except Exception as exc:  # a handler bug must not kill the loop
            self._log(f"dispatch error for op={op!r}: {type(exc).__name__}: {exc}")
            with contextlib.suppress(Exception):
                await self._send(connection, protocol.error_reply(
                    type(exc).__name__, str(exc), req_id
                ))

    async def _send(self, connection, message: dict) -> bool:
        try:
            await connection.send(message)
            return True
        except (ConnectionError, OSError):
            return False  # peer is gone; its subscriptions just lapse

    # ------------------------------------------------------------------
    # submit path: read-through -> coalesce -> enqueue
    # ------------------------------------------------------------------
    async def _handle_submit(self, message: dict, connection) -> None:
        req_id = message.get("id")
        try:
            spec = protocol.cell_from_wire(message.get("cell"))
        except protocol.ProtocolError as exc:
            await self._send(connection, protocol.error_reply(
                "ProtocolError", str(exc), req_id
            ))
            return
        key = cell_key(spec)
        self.board.stats["submitted"] += 1
        subscriber = Subscriber(
            req_id=req_id, send=connection.send,
            watch=bool(message.get("watch", False)),
        )

        entry = self.executor.lookup(key)
        if entry is not None:
            self.board.stats["cache_hits"] += 1
            self._log(f"cache hit {spec.label()}")
            await self._send(connection, protocol.job_event(
                protocol.DONE, job_id="cache", key=key, req_id=req_id,
                source="cache", seconds=entry.seconds,
                metrics=entry.metrics.to_dict(),
            ))
            return

        live = self.board.coalesce(key)
        if live is not None and not live.done:
            subscriber.coalesced = True
            live.subscribers.append(subscriber)
            self._log(f"coalesced {spec.label()} onto {live.id}")
            if subscriber.watch:  # catch the late subscriber up
                await self._send(connection, protocol.job_event(
                    live.state, job_id=live.id, key=key, req_id=req_id,
                    ts=live.timing.get(live.state, 0.0), coalesced=True,
                ))
            return

        if self._stopping:
            await self._send(connection, protocol.job_event(
                protocol.FAILED, job_id="rejected", key=key, req_id=req_id,
                error={"type": "ShuttingDown",
                       "message": "server is shutting down"},
            ))
            return

        job = self.board.accept(key, spec)
        if job is None:
            self._log(f"rejected {spec.label()} (queue full)")
            await self._send(connection, protocol.job_event(
                protocol.FAILED, job_id="rejected", key=key, req_id=req_id,
                error={
                    "type": "QueueFull",
                    "message": (
                        f"job queue is at its limit "
                        f"({self.board.queue_limit}); retry later"
                    ),
                },
            ))
            return

        job.subscribers.append(subscriber)
        job.mark(protocol.QUEUED)
        self._log(f"accepted {job.id} {spec.label()}")
        await self._broadcast(job)
        self._queue.put_nowait(job)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            if job is None:
                return
            if job.done:  # cancelled while queued
                continue
            try:
                await self._run_job(job)
            except Exception as exc:  # defensive: never lose a worker
                job.error = {"type": type(exc).__name__, "message": str(exc),
                             "traceback": ""}
                self.board.stats["failed"] += 1
                job.mark(protocol.FAILED)
                await self._broadcast(job)
                self.board.retire(job)

    async def _run_job(self, job: Job) -> None:
        spec = job.spec
        if not self.executor.is_staged(spec.dataset, spec.scale):
            job.mark(protocol.STAGING)
            await self._broadcast(job)
            record = await asyncio.get_running_loop().run_in_executor(
                None, self.executor.stage, spec.dataset, spec.scale
            )
            self._log(
                f"staged {spec.dataset}@{spec.scale:g}: "
                f"{record.get('source')} ({record.get('seconds')}s)"
            )

        job.mark(protocol.RUNNING)
        await self._broadcast(job)
        metrics, error, seconds, worker = await self.executor.run_cell(
            spec, job.key
        )
        job.seconds = seconds
        job.worker = worker
        if metrics is not None:
            job.metrics = metrics.to_dict()
            job.source = "computed"
            self.board.stats["executed"] += 1
            if self.cache is not None:
                try:
                    self.cache.put(spec, job.key, metrics, seconds)
                except OSError:
                    pass
            job.mark(protocol.DONE)
            self._log(f"done {job.id} {spec.label()} ({seconds:.2f}s)")
        else:
            job.error = error
            self.board.stats["failed"] += 1
            job.mark(protocol.FAILED)
            self._log(
                f"failed {job.id} {spec.label()}: "
                f"{(error or {}).get('type')}: {(error or {}).get('message')}"
            )
        await self._broadcast(job)
        self.board.retire(job)

    async def _broadcast(self, job: Job) -> None:
        """Send the job's current state to its subscribers.

        Intermediate states reach only watching subscribers; terminal
        states reach everyone, with the full payload.  A subscriber
        whose connection has died is dropped.
        """
        state = job.state
        terminal = job.done
        alive: List[Subscriber] = []
        for subscriber in job.subscribers:
            if not terminal and not subscriber.watch:
                alive.append(subscriber)
                continue
            event = protocol.job_event(
                state, job_id=job.id, key=job.key, req_id=subscriber.req_id,
                ts=job.timing.get(state, 0.0),
            )
            if subscriber.coalesced:
                event["coalesced"] = True
            if terminal:
                event["timing"] = dict(job.timing)
                if state == protocol.DONE:
                    event["source"] = job.source
                    event["seconds"] = job.seconds
                    event["metrics"] = job.metrics
                elif state == protocol.FAILED:
                    event["error"] = job.error
                if job.worker is not None:
                    event["worker"] = job.worker
            if await self._send_to(subscriber, event):
                alive.append(subscriber)
        job.subscribers = alive

    async def _send_to(self, subscriber: Subscriber, event: dict) -> bool:
        try:
            await subscriber.send(event)
            return True
        except (ConnectionError, OSError):
            return False


# ----------------------------------------------------------------------
# embedding helpers
# ----------------------------------------------------------------------

@contextlib.asynccontextmanager
async def serve_inproc(**kwargs):
    """A running service on an in-process listener (tests, benchmarks).

    Yields ``(service, listener)``; connect clients with
    ``AsyncServiceClient.inproc(listener)``.  Shuts down (drain) on
    exit if the body did not already do so.
    """
    service = ReproService(**kwargs)
    listener = InProcListener()
    await service.start([listener])
    try:
        yield service, listener
    finally:
        if not service._stopped.is_set():
            await service.shutdown(drain=False)


async def serve(
    addresses: List[str],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    queue_limit: int = 64,
    timeout: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    install_signal_handlers: bool = True,
    ready: Optional[Callable[[List[object]], None]] = None,
) -> Dict[str, int]:
    """Run a daemon on socket addresses until shut down; the CLI entry.

    Returns the final stats dictionary.  ``ready`` (if given) receives
    the started listeners — the TCP listener resolves port 0 by then.
    """
    from .transports import listener_for

    service = ReproService(
        jobs=jobs, cache=cache, queue_limit=queue_limit,
        timeout=timeout, log=log,
    )
    listeners = [listener_for(address) for address in addresses]
    await service.start(listeners)
    if ready is not None:
        ready(listeners)

    removers: List[Tuple[object, int]] = []
    if install_signal_handlers:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, service.initiate_shutdown, True
                )
                removers.append((loop, signum))
            except (NotImplementedError, RuntimeError):
                pass
    try:
        await service.serve_forever()
    finally:
        for loop, signum in removers:
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(signum)
    return dict(service.board.stats)
