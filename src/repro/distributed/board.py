"""The scheduler's brain: a pure, deterministic cell-placement board.

:class:`CellBoard` owns every scheduling decision of the distributed
sweep — locality-aware placement, work stealing, heartbeat liveness,
failure-domain retries, first-result-wins deduplication — as a plain
synchronous state machine with an injectable clock.  The asyncio
scheduler (:mod:`repro.distributed.scheduler`) is a thin transport
shell around it; the property tests
(``tests/test_distributed_board.py``) drive the board directly with
scripted event orders, which is what makes statements like "a straggler
loses exactly its queued cells" provable instead of probabilistic.

Placement
---------
Cells are grouped by :func:`~repro.orchestrator.cells.group_key`
(``(dataset, pattern, scale)``) — the grouping the batch scheduler
queues its cells by — ordered largest-first (key as the
tie-break, so the order is deterministic).  A worker that pulls with an
empty queue is handed a whole unassigned group, preferring one whose
graph it has already staged; the group's graph is then considered
staged on that worker, so every later cell of the group lands where its
graph lives.

Stealing
--------
A worker with nothing queued, no unassigned group and a live sweep
steals **all queued cells** from the straggler with the deepest queue
(preferring a victim whose cells' graph the thief already staged; the
victim's running cells are never touched).  The stolen cells keep their
group identity, so the thief stages the graph once and runs them all.

Failure semantics
-----------------
A worker is declared dead when its heartbeats go silent past the
timeout, when its connection drops, or when the transport layer reports
it killed.  Death reclaims its queued cells instantly (they were never
started — free requeue) and retries each *running* cell elsewhere,
appending the dead worker to the cell's failure-domain list.  A cell
that keeps killing workers is failed with a ``WorkerLost`` report
naming every domain.  Cell-level errors (the structured reports the
worker body already produces) spend the ordinary retry budget, exactly
as in the batch scheduler.  Results are first-wins: once a cell is
resolved, any later result for it — from a resurrected worker, a
severed-and-retried delivery, a stale queue entry — is counted as a
duplicate and discarded, so a severed connection can produce neither a
lost cell nor a double-counted one.
"""

from __future__ import annotations

import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..orchestrator.cells import CellSpec, graph_key, group_key
from .protocol import BUSY, DEAD, DRAINING, IDLE, JOINING, LIVE_STATES, SUSPECT

GroupKey = Tuple[str, str, float]


@dataclass
class WorkerEntry:
    """Scheduler-side record of one registered worker."""

    worker_id: str
    name: str
    pid: int
    slots: int = 1
    state: str = JOINING
    registered_at: float = 0.0
    last_heartbeat: float = 0.0
    #: Cells assigned but not yet pulled into execution.
    queued: Deque[str] = field(default_factory=deque)
    #: Cells pulled and presumed executing, key -> pull time.
    running: Dict[str, float] = field(default_factory=dict)
    #: Graphs this worker has (or is about to have) staged.
    staged: Set[Tuple[str, float]] = field(default_factory=set)
    completed: int = 0
    cause: Optional[str] = None
    #: Kernel backend the worker process resolved at startup, and the
    #: fallback detail when its request could not be honored.  The
    #: one-time "toolchain missing" warning is easy to lose in worker
    #: processes; recording the resolution here keeps a silent
    #: cext→pure downgrade visible in the run manifest roster.
    backend: Optional[str] = None
    backend_fallback: Optional[str] = None

    @property
    def live(self) -> bool:
        return self.state in LIVE_STATES

    def record(self) -> Dict[str, object]:
        """Manifest roster entry for this worker."""
        return {
            "worker": self.worker_id,
            "name": self.name,
            "pid": self.pid,
            "slots": self.slots,
            "state": DEAD if self.state == DEAD else "drained",
            "completed": self.completed,
            "staged": sorted(f"{d}@{s:g}" for d, s in self.staged),
            **({"cause": self.cause} if self.cause else {}),
            **({"backend": self.backend} if self.backend else {}),
            **(
                {"backend_fallback": self.backend_fallback}
                if self.backend_fallback
                else {}
            ),
        }


@dataclass
class DeathReport:
    """What one worker death did to the schedule."""

    worker: WorkerEntry
    cause: str
    #: Queued (never started) cells returned to the unassigned pool.
    reclaimed: List[str] = field(default_factory=list)
    #: Running cells requeued for another worker (failure domain noted).
    retried: List[str] = field(default_factory=list)
    #: Running cells that exhausted their death budget -> WorkerLost.
    failed: List[str] = field(default_factory=list)


class CellBoard:
    """Deterministic scheduling state for one distributed sweep.

    Parameters
    ----------
    specs:
        The pending cells, by content-addressed key (cache hits are
        resolved before the board is built).
    retries:
        Extra attempts a cell whose *execution* failed is granted —
        identical semantics to the batch scheduler.
    death_retries:
        Extra attempts a cell is granted after the worker running it
        died (tracked separately: a worker crash is not the cell's
        fault, but a cell that kills every host it touches must still
        converge to a failure).  Defaults to ``max(1, retries)``.
    heartbeat_timeout:
        Seconds of heartbeat silence after which a worker is dead.
    clock:
        Injectable monotonic clock (property tests drive virtual time).
    """

    def __init__(
        self,
        specs: Dict[str, CellSpec],
        *,
        retries: int = 1,
        death_retries: Optional[int] = None,
        heartbeat_timeout: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.specs: Dict[str, CellSpec] = dict(specs)
        self.retries = max(0, int(retries))
        self.death_retries = (
            max(1, self.retries) if death_retries is None else max(0, death_retries)
        )
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._clock = clock

        grouped: Dict[GroupKey, List[str]] = {}
        for key in sorted(self.specs):
            grouped.setdefault(group_key(self.specs[key]), []).append(key)
        order = sorted(grouped, key=lambda g: (-len(grouped[g]), g))
        #: Unassigned cells by group, largest group first.
        self._unassigned: "OrderedDict[GroupKey, Deque[str]]" = OrderedDict(
            (g, deque(grouped[g])) for g in order
        )

        self.workers: Dict[str, WorkerEntry] = {}
        self._ids = 0
        #: Keys resolved successfully (payloads live with the caller).
        self.resolved: Set[str] = set()
        #: Keys that exhausted their budgets, with structured errors.
        self.failures: Dict[str, dict] = {}
        #: Execution attempts per key (results received, ok or not).
        self.attempts: Dict[str, int] = {}
        #: Worker deaths charged to each key.
        self.death_attempts: Dict[str, int] = {}
        #: Failure domains: every dead worker a key was running on.
        self.domains: Dict[str, List[str]] = {}
        self.stats: Dict[str, int] = {
            "registered": 0, "heartbeats": 0, "pulls": 0, "steals": 0,
            "stolen_cells": 0, "reclaimed": 0, "death_retries": 0,
            "retries": 0, "duplicates": 0, "expired": 0, "disconnected": 0,
        }
        #: Last register/heartbeat/result time (idle-scheduler watchdog).
        self.last_activity: float = self._clock()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return len(self.resolved) + len(self.failures) == len(self.specs)

    def pending(self) -> List[str]:
        """Keys not yet resolved or failed, in deterministic order."""
        return [
            key for key in sorted(self.specs)
            if key not in self.resolved and key not in self.failures
        ]

    def live_workers(self) -> List[WorkerEntry]:
        return [w for w in self.workers.values() if w.live]

    def describe(self) -> List[Dict[str, object]]:
        """Worker roster for the manifest, in registration order."""
        return [self.workers[wid].record() for wid in sorted(
            self.workers, key=lambda wid: int(wid[1:])
        )]

    def _now(self, now: Optional[float]) -> float:
        return self._clock() if now is None else now

    def _resolved(self, key: str) -> bool:
        return key in self.resolved or key in self.failures

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        pid: int,
        slots: int = 1,
        backend: Optional[str] = None,
        backend_fallback: Optional[str] = None,
        now: Optional[float] = None,
    ) -> WorkerEntry:
        now = self._now(now)
        self._ids += 1
        worker = WorkerEntry(
            worker_id=f"w{self._ids}", name=str(name), pid=int(pid),
            slots=max(1, int(slots)), registered_at=now, last_heartbeat=now,
            backend=str(backend) if backend else None,
            backend_fallback=str(backend_fallback) if backend_fallback else None,
        )
        self.workers[worker.worker_id] = worker
        self.stats["registered"] += 1
        self.last_activity = now
        return worker

    def heartbeat(self, worker_id: str, now: Optional[float] = None) -> bool:
        """Refresh one worker's liveness; False if it is already dead."""
        worker = self.workers.get(worker_id)
        self.stats["heartbeats"] += 1
        if worker is None or worker.state == DEAD:
            return False
        now = self._now(now)
        worker.last_heartbeat = now
        self.last_activity = now
        if worker.state == SUSPECT:
            worker.state = BUSY if worker.running else IDLE
        return True

    def pull(
        self, worker_id: str, now: Optional[float] = None
    ) -> Tuple[str, Optional[str]]:
        """One worker asks for work: ``("cell", key)`` / ``("wait", None)``
        / ``("drain", None)``.

        Deliberately does **not** refresh liveness — only heartbeats do
        (see the protocol doc), so a worker with a wedged heartbeat
        task cannot stay scheduled just by polling.
        """
        worker = self.workers.get(worker_id)
        self.stats["pulls"] += 1
        if worker is None or worker.state in (DEAD, DRAINING):
            return ("drain", None)
        self._prune(worker)
        while not worker.queued:
            if not (self._acquire_group(worker) or self._steal_for(worker)):
                break
            self._prune(worker)
        if worker.queued:
            key = worker.queued.popleft()
            worker.running[key] = self._now(now)
            worker.state = BUSY
            return ("cell", key)
        if self.done:
            worker.state = DRAINING
            return ("drain", None)
        if worker.state != SUSPECT:
            worker.state = BUSY if worker.running else IDLE
        return ("wait", None)

    def complete(
        self,
        worker_id: str,
        key: str,
        *,
        ok: bool,
        error: Optional[dict] = None,
        now: Optional[float] = None,
    ) -> str:
        """A result arrived: ``recorded`` / ``retry`` / ``failed`` /
        ``duplicate``.  First result wins; callers only persist payloads
        for ``recorded`` and only report failure for ``failed``."""
        if key not in self.specs:
            raise KeyError(f"unknown cell key: {key}")
        now = self._now(now)
        self.last_activity = now
        worker = self.workers.get(worker_id)
        if worker is not None:
            worker.running.pop(key, None)
            if worker.state == BUSY and not worker.running and not worker.queued:
                worker.state = IDLE
        if self._resolved(key):
            self.stats["duplicates"] += 1
            return "duplicate"
        self.attempts[key] = self.attempts.get(key, 0) + 1
        if ok:
            self.resolved.add(key)
            if worker is not None:
                worker.completed += 1
            return "recorded"
        if self.attempts[key] <= self.retries:
            self._requeue(key)
            self.stats["retries"] += 1
            return "retry"
        report = dict(error or {})
        report.setdefault("type", "Error")
        if self.domains.get(key):
            report["domains"] = list(self.domains[key])
        self.failures[key] = report
        return "failed"

    def expire(self, now: Optional[float] = None) -> List[DeathReport]:
        """Declare heartbeat-silent workers dead; mark overdue ones suspect."""
        now = self._now(now)
        reports: List[DeathReport] = []
        for worker in list(self.workers.values()):
            if not worker.live:
                continue
            silence = now - worker.last_heartbeat
            if silence > self.heartbeat_timeout:
                self.stats["expired"] += 1
                reports.append(self._kill(worker, "heartbeat-expired"))
            elif silence > self.heartbeat_timeout / 2 and worker.state in (IDLE, BUSY):
                worker.state = SUSPECT
        return reports

    def disconnect(self, worker_id: str) -> Optional[DeathReport]:
        """A worker's connection dropped.

        A draining worker leaving is the expected end of its life — as
        is any worker leaving once the sweep is done (the scheduler may
        close listeners before a worker collects its drain reply); any
        other disconnect is a death (the transport saw EOF before the
        scheduler saw a drain)."""
        worker = self.workers.get(worker_id)
        if worker is None or worker.state in (DEAD, DRAINING):
            return None
        if self.done:
            worker.state = DRAINING
            return None
        self.stats["disconnected"] += 1
        return self._kill(worker, "disconnected")

    def fail_pending(self, error: dict) -> List[str]:
        """Fail every unresolved cell (no workers left / interrupted)."""
        failed = []
        for key in self.pending():
            report = dict(error)
            if self.domains.get(key):
                report["domains"] = list(self.domains[key])
            self.failures[key] = report
            failed.append(key)
        for worker in self.workers.values():
            worker.queued.clear()
            worker.running.clear()
        self._unassigned.clear()
        return failed

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _prune(self, worker: WorkerEntry) -> None:
        """Drop queued keys that were resolved while waiting (a stale
        retry whose original result arrived first, for example)."""
        while worker.queued and self._resolved(worker.queued[0]):
            worker.queued.popleft()

    def _acquire_group(self, worker: WorkerEntry) -> bool:
        """Hand the worker an unassigned group, preferring staged graphs."""
        chosen: Optional[GroupKey] = None
        for group in self._unassigned:
            if (group[0], group[2]) in worker.staged:
                chosen = group
                break
        if chosen is None and self._unassigned:
            chosen = next(iter(self._unassigned))
        if chosen is None:
            return False
        keys = self._unassigned.pop(chosen)
        live = [key for key in keys if not self._resolved(key)]
        if not live:
            return bool(self._unassigned) and self._acquire_group(worker)
        worker.queued.extend(live)
        worker.staged.add((chosen[0], chosen[2]))
        return True

    def _steal_for(self, thief: WorkerEntry) -> bool:
        """Move a straggler's entire queue to an idle thief.

        The victim keeps what it is running; it loses exactly the
        queued cells.  Victim choice is deterministic: staged-graph
        match first, then deepest queue, then lowest worker id."""
        victims = []
        for worker in self.workers.values():
            if worker is thief or not worker.live:
                continue
            self._prune(worker)
            if worker.queued:
                victims.append(worker)
        if not victims:
            return False

        def rank(victim: WorkerEntry):
            head = victim.queued[0]
            affinity = 1 if graph_key(self.specs[head]) in thief.staged else 0
            return (-affinity, -len(victim.queued), int(victim.worker_id[1:]))

        victim = sorted(victims, key=rank)[0]
        stolen = list(victim.queued)
        victim.queued.clear()
        if victim.state == BUSY and not victim.running:
            victim.state = IDLE
        thief.queued.extend(stolen)
        for key in stolen:
            thief.staged.add(graph_key(self.specs[key]))
        self.stats["steals"] += 1
        self.stats["stolen_cells"] += len(stolen)
        return True

    def _requeue(self, key: str) -> None:
        """Return a cell to the unassigned pool, at the front.

        Front placement keeps retries prompt, and going through the
        pool (instead of pinning to a worker) lets the staged-graph
        preference pick the best surviving home."""
        group = group_key(self.specs[key])
        queue = self._unassigned.get(group)
        if queue is None:
            queue = deque()
            self._unassigned[group] = queue
        queue.appendleft(key)
        self._unassigned.move_to_end(group, last=False)

    def _kill(self, worker: WorkerEntry, cause: str) -> DeathReport:
        report = DeathReport(worker=worker, cause=cause)
        worker.state = DEAD
        worker.cause = cause
        for key in list(worker.queued):
            if not self._resolved(key):
                self._requeue(key)
                report.reclaimed.append(key)
                self.stats["reclaimed"] += 1
        worker.queued.clear()
        for key in list(worker.running):
            if self._resolved(key):
                continue
            self.domains.setdefault(key, []).append(worker.worker_id)
            self.death_attempts[key] = self.death_attempts.get(key, 0) + 1
            if self.death_attempts[key] > self.death_retries:
                self.failures[key] = {
                    "type": "WorkerLost",
                    "message": (
                        f"cell died with {self.death_attempts[key]} worker(s); "
                        f"last: {worker.name} ({cause})"
                    ),
                    "traceback": "",
                    "domains": list(self.domains[key]),
                }
                report.failed.append(key)
            else:
                self._requeue(key)
                report.retried.append(key)
                self.stats["death_retries"] += 1
        worker.running.clear()
        return report
