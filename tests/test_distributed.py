"""Chaos and integration tests for distributed sweep execution.

Covers the acceptance criteria of docs/distributed.md: a distributed
sweep is byte-identical to a serial one (rendered output and cache
entries), a worker SIGKILLed mid-cell has its cells retried elsewhere
with the death recorded as a failure domain and no ``/dev/shm``
residue, a heartbeat-silent worker is expired and its queued cells
reclaimed, and a connection severed between computing a result and
delivering it produces neither a lost nor a double-counted cell.

Everything deterministic runs on the in-process transport — the
scheduler, monitor and worker agents on one event loop, with fault
injection through :class:`~repro.service.faults.FaultInjector` plans
and the :class:`~repro.service.faults.FaultyConnection` wrapper.  The
process-level chaos (real SIGKILL, real EOF) runs spawned
``python -m repro worker`` subprocesses over a unix socket, driven by
``REPRO_FAULTS`` plans injected into the first worker only.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.distributed import (
    DistributedOrchestrator,
    DistributedScheduler,
    WorkerAgent,
)
from repro.experiments import clear_run_cache, eval_config, figure3a
from repro.experiments.runner import simulate_cell
from repro.orchestrator import CellSpec, Orchestrator, ResultCache, cell_key
from repro.orchestrator.executor import PersistentCellExecutor
from repro.service import (
    AsyncServiceClient,
    FaultInjector,
    FaultPlan,
    FaultSpecError,
    FaultyConnection,
    InProcListener,
)
from tests.conftest import live_segment_names

SCALE = 0.05
OVERRIDES = {"figure3a": {"widths": (1, 2)}}  # 4 cells, fast


@pytest.fixture(autouse=True)
def _clean_memo():
    clear_run_cache()
    yield
    clear_run_cache()


def _grid_specs():
    """Four cells in two placement groups (two datasets, two policies)."""
    specs = {}
    for dataset in ("wi", "as"):
        for policy in ("shogun", "bfs"):
            spec = CellSpec(dataset, "tc", policy, SCALE, eval_config(), True)
            specs[cell_key(spec)] = spec
    return specs


def _one_group_specs():
    """Four cells in a single placement group (a config-width sweep)."""
    specs = {}
    for pes in (1, 2, 4, 8):
        spec = CellSpec("wi", "tc", "shogun", SCALE, eval_config(num_pes=pes), True)
        specs[cell_key(spec)] = spec
    return specs


def _cache_keys(root):
    """Content-addressed entry names in one cache tree (layout-free)."""
    return {
        path.name for path in root.rglob("*.json")
        if path.name != "last-run.json"
    }


# ----------------------------------------------------------------------
# fault plan parsing and injector semantics
# ----------------------------------------------------------------------

class TestFaultPlans:
    def test_parse_all_directives(self):
        plan = FaultPlan.parse(
            "kill:cell:2, sever:result:1; mute:heartbeat:3, delay:heartbeat:0.5"
        )
        assert plan.kill_at_cell == 2
        assert plan.sever_at_result == 1
        assert plan.mute_heartbeats_after == 3
        assert plan.heartbeat_delay == 0.5

    def test_empty_and_none_parse_to_noop(self):
        assert FaultPlan.parse(None).empty
        assert FaultPlan.parse("  ").empty
        assert not FaultPlan.parse("mute:heartbeat").empty

    def test_unknown_directive_fails_loudly(self):
        with pytest.raises(FaultSpecError, match="unknown"):
            FaultPlan.parse("kill:worker:1")
        with pytest.raises(FaultSpecError, match="malformed"):
            FaultPlan.parse("kill:cell:soon")

    def test_from_env(self):
        injector = FaultInjector.from_env({"REPRO_FAULTS": "sever:result:2"})
        assert not injector.should_sever_result()  # result 1
        assert injector.should_sever_result()  # result 2

    def test_mute_after_n_heartbeats(self):
        injector = FaultInjector(FaultPlan(mute_heartbeats_after=1))
        assert not injector.drop_heartbeat()  # the one allowed beat
        assert injector.drop_heartbeat()
        assert injector.drop_heartbeat()

    def test_empty_plan_is_inert(self):
        injector = FaultInjector()
        injector.on_cell_start()  # must not SIGKILL the test runner
        assert not injector.should_sever_result()
        assert not injector.drop_heartbeat()
        assert injector.heartbeat_delay() == 0.0


class TestFaultyConnection:
    def test_drops_and_severs_by_op(self):
        class Recorder:
            def __init__(self):
                self.sent, self.closed = [], False

            async def send(self, message):
                self.sent.append(message)

            async def close(self):
                self.closed = True

        async def main():
            inner = Recorder()
            conn = FaultyConnection(
                inner, drop_ops=("heartbeat",), sever_on="result", sever_at=2
            )
            await conn.send({"op": "heartbeat"})
            await conn.send({"op": "heartbeat"})
            await conn.send({"op": "pull"})
            await conn.send({"op": "result"})  # first result passes
            with pytest.raises(ConnectionError, match="severed"):
                await conn.send({"op": "result"})
            assert conn.dropped == {"heartbeat": 2}
            assert [m["op"] for m in inner.sent] == ["pull", "result"]
            assert inner.closed

        asyncio.run(main())


# ----------------------------------------------------------------------
# in-process end-to-end: sweep completion and byte identity
# ----------------------------------------------------------------------

async def _start_scheduler(specs, **kwargs):
    listener = InProcListener()
    scheduler = DistributedScheduler(specs, **kwargs)
    task = asyncio.ensure_future(scheduler.run(listeners=[listener]))
    await asyncio.sleep(0)  # let the listener start accepting
    return scheduler, listener, task


class TestInProcSweep:
    def test_two_workers_identical_to_direct_with_locality(self):
        specs = _grid_specs()

        async def main():
            scheduler, listener, task = await _start_scheduler(
                specs, heartbeat_interval=0.1, heartbeat_timeout=5.0
            )
            agents = [
                WorkerAgent(client=AsyncServiceClient.inproc(listener),
                            name=f"local-{i}")
                for i in (1, 2)
            ]
            summaries = await asyncio.gather(*(a.run() for a in agents))
            results, failures = await asyncio.wait_for(task, 60)
            return scheduler, summaries, results, failures

        scheduler, summaries, results, failures = asyncio.run(main())
        assert not failures and set(results) == set(specs)
        assert sum(s["completed"] for s in summaries) == len(specs)

        # Locality: two groups, two workers — each worker got a group
        # (so staged at least one graph); a fast worker may also have
        # stolen into the second graph, which is stealing working as
        # intended, not a placement miss.
        roster = scheduler.board.describe()
        assert [w["state"] for w in roster] == ["drained", "drained"]
        assert all(len(w["staged"]) >= 1 for w in roster)
        staged_union = set()
        for w in roster:
            staged_union.update(w["staged"])
        assert staged_union == {f"wi@{SCALE:g}", f"as@{SCALE:g}"}

        # Byte identity: the wire-round-tripped metrics equal a direct
        # in-process execution of the same cells.
        clear_run_cache()
        for key, spec in specs.items():
            direct = simulate_cell(
                spec.dataset, spec.pattern, spec.policy,
                config=spec.config, scale=spec.scale, verify=spec.verify,
            )
            assert results[key].to_dict() == direct.to_dict()

    def test_heartbeat_silent_worker_expires_and_cells_are_rescued(self):
        specs = _one_group_specs()

        async def main():
            scheduler, listener, task = await _start_scheduler(
                specs, heartbeat_interval=0.1, heartbeat_timeout=0.5,
            )
            # A protocol-level zombie: registers, takes the whole group,
            # then never heartbeats and never finishes anything.
            zombie = AsyncServiceClient.inproc(listener)
            reply = await zombie.request(
                "register", name="zombie", pid=111, slots=1
            )
            assert reply["ok"]
            pulled = await zombie.request("pull", worker=reply["worker"])
            assert pulled["ok"] and "cell" in pulled

            deadline = time.monotonic() + 20
            while scheduler.board.stats["expired"] < 1:
                assert time.monotonic() < deadline, "worker never expired"
                await asyncio.sleep(0.02)

            rescuer = WorkerAgent(
                client=AsyncServiceClient.inproc(listener), name="rescuer"
            )
            summary = await rescuer.run()
            results, failures = await asyncio.wait_for(task, 60)
            await zombie.close()
            return scheduler, summary, results, failures

        scheduler, summary, results, failures = asyncio.run(main())
        assert not failures and set(results) == set(specs)
        stats = scheduler.board.stats
        # The zombie held 1 running + 3 queued cells: expiry reclaimed
        # the queued ones for free and death-retried the running one.
        assert stats["expired"] == 1
        assert stats["reclaimed"] == 3
        assert stats["death_retries"] == 1
        assert summary["completed"] == len(specs)
        dead = [w for w in scheduler.board.describe() if w["state"] == "dead"]
        assert [w["cause"] for w in dead] == ["heartbeat-expired"]

    def test_muted_worker_agent_expires_mid_sweep(self, monkeypatch):
        # The same expiry semantics, but through the real WorkerAgent
        # with a mute:heartbeat fault plan — proving the agent keeps
        # pulling while its (muted) heartbeat lane is what kills it.
        specs = _one_group_specs()
        orig = PersistentCellExecutor.run_cell

        async def slow_run_cell(self, spec, key=None):
            await asyncio.sleep(0.25)  # outlive the heartbeat timeout
            return await orig(self, spec, key)

        monkeypatch.setattr(PersistentCellExecutor, "run_cell", slow_run_cell)

        async def main():
            scheduler, listener, task = await _start_scheduler(
                specs, heartbeat_interval=0.1, heartbeat_timeout=0.4,
            )
            muted = WorkerAgent(
                client=AsyncServiceClient.inproc(listener), name="muted",
                faults=FaultInjector(FaultPlan(mute_heartbeats_after=0)),
            )
            muted_task = asyncio.ensure_future(muted.run())
            deadline = time.monotonic() + 20
            while scheduler.board.stats["expired"] < 1:
                assert time.monotonic() < deadline, "worker never expired"
                await asyncio.sleep(0.02)
            healthy = WorkerAgent(
                client=AsyncServiceClient.inproc(listener), name="healthy"
            )
            healthy_summary = await healthy.run()
            results, failures = await asyncio.wait_for(task, 60)
            await asyncio.wait_for(muted_task, 60)  # drains once declared dead
            return scheduler, healthy_summary, results, failures

        scheduler, healthy_summary, results, failures = asyncio.run(main())
        assert not failures and set(results) == set(specs)
        stats = scheduler.board.stats
        assert stats["expired"] == 1
        assert stats["reclaimed"] >= 2  # queued cells rescued for free
        assert stats["death_retries"] == 1  # the in-flight cell, retried
        # First-result-wins: nothing was recorded twice.
        assert len(scheduler.results) == len(specs)


# ----------------------------------------------------------------------
# subprocess chaos over a real unix socket
# ----------------------------------------------------------------------

def _distributed_orchestrator(tmp_path, **kwargs):
    sock = tmp_path / "d.sock"
    kwargs.setdefault("spawn_workers", 2)
    kwargs.setdefault("heartbeat_interval", 0.2)
    kwargs.setdefault("heartbeat_timeout", 2.0)
    kwargs.setdefault("cache", ResultCache(tmp_path / "dist-cache"))
    return DistributedOrchestrator(f"unix:{sock}", **kwargs), sock


class TestSubprocessSweeps:
    def test_byte_identical_to_serial_including_cache(self, tmp_path):
        serial_cache = ResultCache(tmp_path / "serial-cache")
        serial = Orchestrator(jobs=1, cache=serial_cache).run_experiments(
            ["figure3a"], scale=SCALE, overrides=OVERRIDES
        )
        assert serial.ok

        clear_run_cache()
        orch, sock = _distributed_orchestrator(tmp_path)
        run = orch.run_experiments(["figure3a"], scale=SCALE, overrides=OVERRIDES)
        assert run.ok
        assert run.manifest.computed == run.manifest.total == 4
        assert run.rendered["figure3a"] == serial.rendered["figure3a"]
        # Write-through produced the identical content-addressed entries.
        assert _cache_keys(tmp_path / "dist-cache") == _cache_keys(
            tmp_path / "serial-cache"
        )
        roster = run.manifest.workers
        assert len(roster) == 2
        assert all(w["state"] == "drained" for w in roster)
        assert not sock.exists()  # listener unlinked its socket

        # Warm rerun: everything read through before any worker spawns.
        clear_run_cache()
        orch2, _ = _distributed_orchestrator(
            tmp_path, cache=ResultCache(tmp_path / "dist-cache")
        )
        warm = orch2.run_experiments(
            ["figure3a"], scale=SCALE, overrides=OVERRIDES
        )
        assert warm.manifest.cached == warm.manifest.total == 4
        assert warm.rendered["figure3a"] == serial.rendered["figure3a"]

    def test_sigkilled_worker_cells_retried_elsewhere(self, tmp_path):
        before = live_segment_names()
        orch, sock = _distributed_orchestrator(
            tmp_path, spawn_faults="kill:cell:1"
        )
        run = orch.run_experiments(["figure3a"], scale=SCALE, overrides=OVERRIDES)
        assert run.ok
        assert run.manifest.computed == 4 and run.manifest.failed == 0
        assert run.rendered["figure3a"]  # the sweep still rendered

        board = orch.last_scheduler.board
        # spawn-1 died at its first cell; that cell was death-retried on
        # the survivor, with the dead worker recorded as its domain.
        assert board.stats["death_retries"] >= 1
        assert not board.failures
        dead = [w for w in run.manifest.workers if w["state"] == "dead"]
        assert [w["name"] for w in dead] == ["spawn-1"]
        dead_id = dead[0]["worker"]
        assert any(dead_id in domains for domains in board.domains.values())
        # SIGKILL left nothing behind: no socket, no new shm segments.
        assert not sock.exists()
        assert live_segment_names() <= before

    def test_severed_result_is_neither_lost_nor_double_counted(self, tmp_path):
        orch, sock = _distributed_orchestrator(
            tmp_path, spawn_faults="sever:result:1"
        )
        run = orch.run_experiments(["figure3a"], scale=SCALE, overrides=OVERRIDES)
        assert run.ok
        assert run.manifest.computed == 4 and run.manifest.failed == 0

        board = orch.last_scheduler.board
        # The computed-but-undelivered cell was retried elsewhere...
        assert board.stats["death_retries"] >= 1
        # ...and recorded exactly once: no duplicates slipped through,
        # and the manifest holds each key exactly once.
        assert board.stats["duplicates"] == 0
        computed_keys = [
            c.key for c in run.manifest.cells if c.status == "computed"
        ]
        assert len(computed_keys) == len(set(computed_keys)) == 4
        dead = [w for w in run.manifest.workers if w["state"] == "dead"]
        assert [w["name"] for w in dead] == ["spawn-1"]


# ----------------------------------------------------------------------
# executor close: idempotent, convergent, re-entrant (regression)
# ----------------------------------------------------------------------

class TestExecutorClose:
    def test_double_close_is_idempotent(self):
        executor = PersistentCellExecutor(jobs=1)
        executor.stage("wi", SCALE)
        executor.close()
        executor.close()  # the worker agent's drain + finally pattern
        assert executor.closed

    def test_close_clears_staging_and_rejects_new_work(self):
        executor = PersistentCellExecutor(jobs=1)
        executor.stage("wi", SCALE)
        assert executor.is_staged("wi", SCALE)
        executor.close()
        assert not executor.is_staged("wi", SCALE)
        with pytest.raises(RuntimeError, match="closed"):
            executor.stage("wi", SCALE)
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit(CellSpec("wi", "tc", "shogun", SCALE,
                                     eval_config(), True))

    def test_concurrent_close_waits_for_teardown(self):
        executor = PersistentCellExecutor(jobs=1)
        torn_down = threading.Event()

        class SlowPool:
            def shutdown(self, wait=True, cancel_futures=False):
                time.sleep(0.3)
                torn_down.set()

        executor._pool = SlowPool()
        closer = threading.Thread(target=executor.close)
        closer.start()
        while not executor.closed:  # let the thread take ownership
            time.sleep(0.005)
        executor.close()  # must block until the slow teardown finishes
        assert torn_down.is_set()
        closer.join()

    def test_reentrant_close_from_teardown_does_not_deadlock(self):
        executor = PersistentCellExecutor(jobs=1)
        calls = []

        class ReentrantPool:
            def shutdown(self, wait=True, cancel_futures=False):
                calls.append("shutdown")
                executor.close()  # a finally on the closing stack itself

        executor._pool = ReentrantPool()
        executor.close()
        assert calls == ["shutdown"]
        assert executor.closed

    def test_stale_rebuild_keeps_the_fresh_pool(self):
        """Two slots failing on one pool retire it once, not its successor."""
        executor = PersistentCellExecutor(jobs=1)
        try:
            broken = executor._ensure_pool()
            executor._rebuild_pool(broken)  # the first slot's report
            fresh = executor._ensure_pool()
            executor._rebuild_pool(broken)  # the second slot's, same pool
            assert executor._ensure_pool() is fresh
        finally:
            executor.close()
