"""``serve_mixed``: a closed loop of two clients against ``repro serve``.

An in-process ``ReproService(jobs=2)`` with its own result cache listens
on a unix socket; two ``AsyncServiceClient`` connections each send their
next request only after the previous one completed.  The seed draws the
request stream over a pool of small cells (the 16 shortest grid pairs
under four policies):

* new — a cell nobody asked for yet: compute, then cache write;
* repeat — a cell this client already got back: a cache read;
* duplicate — both clients wait for each other, then submit the same new
  cell at once, so one computes and the other is coalesced onto it.

Every pass computes each cell of the pool exactly once.  The duplicated
cells are the Shogun cell of every pair, so the coalesced work is the
same whatever the seed (a seed-drawn duplicate set moved the pass wall
time by about 13% from seed to seed).  The seed orders the request kinds,
one order both clients follow, the duplicates and each client's new
requests, and picks the repeats.  Per pass, 53% of
the requests compute, 33% read the cache and 13% coalesce.  Every pass
starts a fresh service with an empty cache; starting it is set-up, not
pass time.
"""

from __future__ import annotations

import asyncio
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.runner import eval_config, get_graph, reference_count
from repro.orchestrator.cache import ResultCache
from repro.orchestrator.cells import CellSpec
from repro.patterns.graphpi import benchmark_schedule
from repro.service import protocol
from repro.service.client import AsyncServiceClient
from repro.service.server import ReproService
from repro.service.transports import UnixListener

from . import layers
from .common import Tracer, check_output, children_cpu_s
from .grid_sweep import SHORT_PAIRS
from .ops import Op, PassResult

SCALE = 0.3
JOBS = 2
PAIRS = SHORT_PAIRS[:16]
POLICIES = ("fingers", "shogun", "bfs", "parallel-dfs")
#: Requests of each kind per client; 2 * 24 new + 16 duplicated cells
#: (the Shogun cell of each pair) is the whole pool of 64 cells.
PER_CLIENT = {"new": 24, "dup": 16, "repeat": 20}

#: Two cells outside the stream, sent during set-up so both pool
#: workers exist before the first timed request.
WARMUP = (("wi", "tc", "fingers"), ("wi", "tc", "shogun"))
WARMUP_CONFIG = (("l1_kb", 16),)

Cell = Tuple[str, str, str]


def stream(seed: int) -> List[List[tuple]]:
    """Both clients' scripts: lists of ``(kind, cell[, dup_index])``."""
    rng = np.random.default_rng((seed, 2))
    dups = [(d, p, "shogun") for d, p in PAIRS]
    dups = [dups[int(i)] for i in rng.permutation(len(dups))]
    rest = [(d, p, policy) for d, p in PAIRS for policy in POLICIES
            if (d, p, policy) not in dups]
    fresh = iter([rest[int(i)] for i in rng.permutation(len(rest))])
    # One order of request kinds for both clients: they reach each
    # duplicate after the same number of requests, so how long one waits
    # for the other at the barrier does not hinge on the shuffle.
    kinds = [k for k, n in PER_CLIENT.items() for _ in range(n)]
    rng.shuffle(kinds)
    first = next(i for i, k in enumerate(kinds) if k != "repeat")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    scripts = []
    for _client in range(2):
        script, returned, dup_index = [], [], 0
        for kind in kinds:
            if kind == "new":
                cell = next(fresh)
                script.append(("new", cell))
                returned.append(cell)
            elif kind == "dup":
                script.append(("dup", dups[dup_index], dup_index))
                returned.append(dups[dup_index])
                dup_index += 1
            else:
                script.append(("repeat", returned[int(rng.integers(len(returned)))]))
        scripts.append(script)
    return scripts


def wire(cell: Cell, overrides: tuple = ()) -> dict:
    dataset, pattern, policy = cell
    spec = CellSpec(dataset, pattern, policy, SCALE, eval_config(**dict(overrides)))
    return protocol.cell_to_wire(spec)


class _PairBarrier:
    def __init__(self) -> None:
        self.arrived = 0
        self.event = asyncio.Event()

    async def wait(self) -> None:
        self.arrived += 1
        if self.arrived == 2:
            self.event.set()
        await self.event.wait()


class ServeMixed:
    name = "serve_mixed"

    def __init__(self, seed: int, digests: Dict[str, str]) -> None:
        self.digests = digests
        self.scripts = stream(seed)
        self.wires = {item[1]: wire(item[1]) for script in self.scripts for item in script}
        self.config = eval_config()
        self.counts: Dict[Tuple[str, str], int] = {}
        self.run_dir = Path(".")
        self.loop = asyncio.new_event_loop()
        self.service: Optional[ReproService] = None
        self.services = 0
        self.socket = ""
        self._cpu0 = 0.0
        self._computed_spans: Dict[str, Optional[int]] = {}

    # ------------------------------------------------------------------
    def setup(self, tracer: Tracer, run_dir: Path) -> None:
        self.run_dir = run_dir
        for dataset, pattern in PAIRS:
            with tracer.span("graph.build", dataset=dataset):
                get_graph(dataset, SCALE)
            with tracer.span("patterns.schedule", pattern=pattern):
                benchmark_schedule(pattern)
            with tracer.span("mining.ref_count", dataset=dataset, pattern=pattern):
                self.counts[(dataset, pattern)] = reference_count(
                    dataset, pattern, scale=SCALE
                )
        with tracer.span("service.start"):
            self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self._cpu0 = children_cpu_s()
        self.services += 1
        # Relative, so the path stays under the unix-socket length limit
        # however deep the checkout is.
        self.socket = os.path.relpath(self.run_dir / f"serve-{self.services}.sock")
        service = ReproService(
            jobs=JOBS, cache=ResultCache(self.run_dir / f"serve-cache-{self.services}")
        )
        for dataset in sorted({d for d, _ in PAIRS}):
            service.executor.stage(dataset, SCALE)
        await service.start([UnixListener(self.socket)])
        self.service = service
        clients = [await self._connect() for _ in WARMUP]
        try:
            finals = await asyncio.gather(*(
                client.submit(wire(cell, WARMUP_CONFIG))
                for client, cell in zip(clients, WARMUP)
            ))
        finally:
            for client in clients:
                await client.close()
        for final in finals:
            if final.get("event") != protocol.DONE:
                raise RuntimeError(f"warm-up request failed: {final.get('error')}")

    async def _connect(self) -> AsyncServiceClient:
        return await AsyncServiceClient.connect(f"unix:{self.socket}", timeout=10.0)

    async def _stop(self) -> None:
        if self.service is not None:
            service, self.service = self.service, None
            await service.shutdown(drain=True)

    # ------------------------------------------------------------------
    def run_pass(self, tracer: Tracer, traced: bool) -> PassResult:
        probe_dir = self.run_dir / "probe"
        if self.service is not None and traced:
            # The probe must be in place before the pool forks.
            self.loop.run_until_complete(self._stop())
        restore = layers.install_probe(probe_dir) if traced else None
        try:
            if self.service is None:
                self.loop.run_until_complete(self._start())
            ops, stats, wall = self.loop.run_until_complete(self._drive(tracer))
            self.loop.run_until_complete(self._stop())
            # The stopped service joined its pool, so the workers' CPU
            # since it started (the stream plus two warm-up cells) counts.
            cpu = children_cpu_s() - self._cpu0
        finally:
            if restore is not None:
                restore()
        records = layers.read_records(probe_dir) if traced else []
        for record in records:
            if record["cell"] in self._computed_spans:
                layers.add_cell_spans(tracer, record, self._computed_spans[record["cell"]])
        return PassResult(wall, ops, cpu, records, service=service_summary(ops, stats))

    async def _drive(self, tracer: Tracer) -> Tuple[List[Op], dict, float]:
        """Both clients' scripts; returns the ops, the service's counters
        and the wall time of the stream."""
        barriers = [_PairBarrier() for _ in range(PER_CLIENT["dup"])]
        self._computed_spans = {}
        clients = [await self._connect() for _ in self.scripts]
        try:
            span = tracer.begin("service.stream")
            start = time.perf_counter()
            per_client = await asyncio.gather(*(
                self._client(client, script, barriers, tracer, span)
                for client, script in zip(clients, self.scripts)
            ))
            wall = time.perf_counter() - start
            tracer.end(span)
            stats = (await clients[0].stats()).get("stats", {})
        finally:
            for client in clients:
                await client.close()
        return [op for ops in per_client for op in ops], stats, wall

    async def _client(self, client, script, barriers, tracer: Tracer, parent) -> List[Op]:
        ops = []
        for item in script:
            kind, cell = item[0], item[1]
            if kind == "dup":
                await barriers[item[2]].wait()
            request = self.wires[cell]
            start = time.perf_counter()
            final = await client.submit(request)
            end = time.perf_counter()
            ops.append(self._op(cell, final, end - start))
            span = tracer.add("request", start, end, parent, kind=kind,
                              cell=ops[-1].cell, source=ops[-1].source)
            # Job state timings count from acceptance, which follows the
            # send by a few hundred microseconds; anchor them at the send.
            timing = final.get("timing") or {}
            states = [s for s in (protocol.QUEUED, protocol.STAGING, protocol.RUNNING,
                                  protocol.DONE) if s in timing]
            for state, after in zip(states, states[1:]):
                state_span = tracer.add(f"service.{state}", start + timing[state],
                                        start + timing[after], span)
                if state == protocol.RUNNING and ops[-1].source == "computed":
                    self._computed_spans[ops[-1].cell] = state_span
        return ops

    def _op(self, cell: Cell, final: dict, latency: float) -> Op:
        dataset, pattern, policy = cell
        cell_name = layers.cell_id(dataset, pattern, policy, self.config)
        if final.get("event") != protocol.DONE:
            error = final.get("error") or {}
            return Op(cell_name, latency, problems=[
                f"{error.get('type', 'Error')}: {error.get('message', 'request failed')}"
            ])
        metrics = final.get("metrics") or {}
        source = "coalesced" if final.get("coalesced") else final.get("source", "computed")
        computed = source == "computed"
        return Op(
            cell_name, latency, source=source,
            tasks=int(metrics.get("tasks_executed", 0)) if computed else 0,
            metrics=metrics,
            problems=check_output(metrics, self.counts[(dataset, pattern)],
                                  self.digests.get(cell_name)),
            timing=dict(final.get("timing") or {}),
        )

    def close(self) -> None:
        try:
            self.loop.run_until_complete(self._stop())
        finally:
            self.loop.close()


def service_summary(ops: List[Op], stats: dict) -> Dict[str, float]:
    """Per-state job timings and request mix of one pass."""
    from statistics import median

    def med(values):
        return median(values) * 1000.0 if values else 0.0

    computed = [op for op in ops if op.source == "computed" and op.ok]
    waits = [op.timing[protocol.RUNNING] - op.timing[protocol.QUEUED]
             for op in computed if protocol.RUNNING in op.timing]
    runs = [op.timing[protocol.DONE] - op.timing[protocol.RUNNING]
            for op in computed if protocol.RUNNING in op.timing]
    by_source = {
        source: [op.latency_s for op in ops if op.source == source]
        for source in ("cache", "computed", "coalesced")
    }
    total = max(1, len(ops))
    return {
        "queue_wait_ms": med(waits),
        "run_ms": med(runs),
        **{f"latency_ms.{s}": med(v) for s, v in by_source.items()},
        "cache_hit_frac": len(by_source["cache"]) / total,
        "coalesced_frac": len(by_source["coalesced"]) / total,
        "rejected": float(stats.get("rejected", 0)),
    }
