"""Tests for the ``repro serve`` subsystem (docs/service.md).

Covers the acceptance criteria: daemon-served metrics byte-identical
to direct execution (cold and cached), K concurrent identical
submissions coalescing onto exactly one execution, structured failure
events that leave the pool warm, reject-based backpressure, graceful
shutdown without shared-memory residue, atomic cache writes under
racing writers, and SIGTERM/SIGINT draining in the batch scheduler.

Everything that can run on the in-process transport does — it is
deterministic and carries the exact message dictionaries the socket
transports serialize (the codec round-trip is enforced by the
transport itself).  One test exercises a real unix socket end to end.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import clear_run_cache, eval_config
from repro.experiments.runner import simulate_cell
from repro.orchestrator import CellSpec, ResultCache, cell_key
from repro.orchestrator import executor as executor_mod
from repro.service import (
    AsyncServiceClient,
    InProcListener,
    ReproService,
    cell_from_wire,
    cell_to_wire,
    protocol,
    serve_inproc,
)
from repro.service.transports import UnixListener, parse_address
from tests.conftest import live_segment_names

SCALE = 0.05
CELL = {"dataset": "wi", "pattern": "tc", "policy": "shogun",
        "scale": SCALE, "verify": True}


@pytest.fixture(autouse=True)
def _clean_memo():
    clear_run_cache()
    yield
    clear_run_cache()


def run(coro):
    return asyncio.run(coro)


def _spec() -> CellSpec:
    return CellSpec("wi", "tc", "shogun", SCALE, eval_config(), True)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "id": "r1", "cell": dict(CELL)}
        assert protocol.decode(protocol.encode(message).strip()) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]")  # not an object

    def test_cell_wire_roundtrip_preserves_key(self):
        spec = _spec()
        assert cell_key(cell_from_wire(cell_to_wire(spec))) == cell_key(spec)

    def test_partial_config_is_eval_overrides(self):
        spec = cell_from_wire({**CELL, "config": {"num_pes": 8}})
        assert spec.config == eval_config(num_pes=8)

    def test_absent_config_addresses_experiment_cells(self):
        assert cell_key(cell_from_wire(dict(CELL))) == cell_key(_spec())

    def test_missing_coordinates_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="missing"):
            cell_from_wire({"dataset": "wi"})

    def test_unknown_config_field_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="unknown config"):
            cell_from_wire({**CELL, "config": {"num_pse": 8}})

    def test_invalid_config_value_rejected(self):
        with pytest.raises(protocol.ProtocolError, match="invalid cell"):
            cell_from_wire({**CELL, "config": {"num_pes": -3}})

    def test_parse_address(self):
        assert parse_address("unix:/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("./x.sock") == ("unix", "./x.sock")
        assert parse_address("tcp:127.0.0.1:7777") == ("tcp", "127.0.0.1", 7777)
        with pytest.raises(protocol.ProtocolError):
            parse_address("tcp:no-port")


# ----------------------------------------------------------------------
# the acceptance criteria, on the in-process transport
# ----------------------------------------------------------------------

class TestServiceRoundtrip:
    def test_daemon_metrics_byte_identical_to_direct(self):
        direct = simulate_cell("wi", "tc", "shogun", config=eval_config(),
                               scale=SCALE, verify=True)

        async def main():
            async with serve_inproc(jobs=1, cache=None) as (_service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    return await client.submit_metrics(dict(CELL))

        final = run(main())
        assert final["source"] == "computed"
        canon = lambda d: json.dumps(d, sort_keys=True)
        assert canon(final["metrics"]) == canon(direct.to_dict())

    def test_streams_full_lifecycle(self):
        async def main():
            events = []
            async with serve_inproc(jobs=1, cache=None) as (_service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    final = await client.submit(
                        dict(CELL), watch=True,
                        on_event=lambda m: events.append(m["event"]),
                    )
            return events, final

        events, final = run(main())
        assert events == ["queued", "staging", "running", "done"]
        assert final["timing"].keys() >= {"queued", "running", "done"}
        assert final["worker"]["pid"] == os.getpid()  # jobs=1: in-process

    def test_cache_read_through_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")

        async def submit_once():
            async with serve_inproc(jobs=1, cache=cache) as (service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    final = await client.submit_metrics(dict(CELL))
            return final, service.executor.executions

        cold, cold_execs = run(submit_once())
        assert cold["source"] == "computed" and cold_execs == 1
        # A fresh daemon over the same cache must not execute at all.
        warm, warm_execs = run(submit_once())
        assert warm["source"] == "cache" and warm_execs == 0
        canon = lambda d: json.dumps(d, sort_keys=True)
        assert canon(warm["metrics"]) == canon(cold["metrics"])

    def test_concurrent_identical_submissions_coalesce(self, monkeypatch):
        release = threading.Event()
        real = executor_mod._execute_cell

        def gated(payload):
            release.wait(timeout=30)
            return real(payload)

        monkeypatch.setattr(executor_mod, "_execute_cell", gated)
        K = 5

        async def main():
            async with serve_inproc(jobs=1, cache=None) as (service, listener):
                clients = [AsyncServiceClient.inproc(listener) for _ in range(K)]
                tasks = [asyncio.ensure_future(c.submit(dict(CELL)))
                         for c in clients]
                # Wait until all K submissions are attached to one job,
                # then let the single gated execution proceed.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    jobs = list(service.board.inflight.values())
                    if jobs and len(jobs[0].subscribers) == K:
                        break
                    await asyncio.sleep(0.01)
                else:
                    pytest.fail("submissions never coalesced")
                assert len(service.board.inflight) == 1
                release.set()
                finals = await asyncio.gather(*tasks)
                for client in clients:
                    await client.close()
                return finals, service.executor.executions, dict(service.board.stats)

        finals, executions, stats = run(main())
        assert executions == 1  # K submissions, exactly one execution
        assert stats["coalesced"] == K - 1
        payloads = {json.dumps(f["metrics"], sort_keys=True) for f in finals}
        assert len(payloads) == 1
        assert sum(1 for f in finals if f.get("coalesced")) == K - 1

    def test_failing_cell_leaves_pool_warm(self):
        async def main():
            async with serve_inproc(jobs=1, cache=None) as (_service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    bad = await client.submit(
                        {**CELL, "policy": "no-such-policy"}
                    )
                    good = await client.submit_metrics(dict(CELL))
            return bad, good

        bad, good = run(main())
        assert bad["event"] == "failed"
        assert bad["error"]["type"]  # structured, not a dropped connection
        assert "no-such-policy" in bad["error"]["message"]
        assert good["source"] == "computed"  # same daemon still serves

    def test_queue_full_rejection(self, monkeypatch):
        release = threading.Event()
        real = executor_mod._execute_cell

        def gated(payload):
            release.wait(timeout=30)
            return real(payload)

        monkeypatch.setattr(executor_mod, "_execute_cell", gated)

        async def main():
            async with serve_inproc(
                jobs=1, cache=None, queue_limit=1
            ) as (service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    first = asyncio.ensure_future(client.submit(dict(CELL)))
                    while not service.board.inflight:
                        await asyncio.sleep(0.01)
                    # A *different* cell now exceeds the bound.
                    rejected = await client.submit({**CELL, "pattern": "4cl"})
                    release.set()
                    done = await first
            return rejected, done

        rejected, done = run(main())
        assert rejected["event"] == "failed"
        assert rejected["error"]["type"] == "QueueFull"
        assert done["event"] == "done"  # the admitted job was untouched

    def test_submit_during_shutdown_rejected(self):
        async def main():
            async with serve_inproc(jobs=1, cache=None) as (service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    service._stopping = True
                    try:
                        return await client.submit(dict(CELL))
                    finally:
                        # let the context manager's real shutdown proceed
                        service._stopping = False

        final = run(main())
        assert final["error"]["type"] == "ShuttingDown"

    def test_jobs_and_stats_ops(self):
        async def main():
            async with serve_inproc(jobs=1, cache=None) as (_service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    await client.submit_metrics(dict(CELL))
                    return await client.jobs(), await client.stats()

        jobs_reply, stats_reply = run(main())
        (job,) = jobs_reply["jobs"]
        assert job["state"] == "done" and job["source"] == "computed"
        assert jobs_reply["staging"][0]["dataset"] == "wi"
        assert stats_reply["stats"]["executed"] == 1
        assert stats_reply["executions"] == 1

    def test_unknown_op_and_bad_cell_replies(self):
        async def main():
            async with serve_inproc(jobs=1, cache=None) as (_service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    unknown = await client.request("frobnicate")
                    bad = await client.request("submit", cell={"dataset": "wi"})
            return unknown, bad

        unknown, bad = run(main())
        assert unknown["ok"] is False
        assert unknown["error"]["type"] == "UnknownOp"
        assert bad["error"]["type"] == "ProtocolError"


# ----------------------------------------------------------------------
# shutdown hygiene
# ----------------------------------------------------------------------

class TestShutdown:
    def test_client_shutdown_op_stops_daemon(self):
        async def main():
            service = ReproService(jobs=1, cache=None)
            listener = InProcListener()
            await service.start([listener])
            client = AsyncServiceClient.inproc(listener)
            reply = await client.shutdown(drain=True)
            await asyncio.wait_for(service.serve_forever(), timeout=10)
            await client.close()
            return reply

        reply = run(main())
        assert reply["stopping"] is True

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs /dev/shm"
    )
    def test_pool_daemon_leaves_no_shm_segments(self):
        before = live_segment_names()

        async def main():
            async with serve_inproc(jobs=2, cache=None) as (service, listener):
                async with AsyncServiceClient.inproc(listener) as client:
                    final = await client.submit_metrics(dict(CELL))
                await service.shutdown(drain=True)
            return final

        final = run(main())
        assert final["event"] == "done"
        assert live_segment_names() <= before  # nothing leaked

    def test_unix_socket_end_to_end(self, tmp_path):
        path = tmp_path / "svc.sock"

        async def main():
            service = ReproService(jobs=1, cache=None)
            listener = UnixListener(path)
            await service.start([listener])
            try:
                client = await AsyncServiceClient.connect(str(path), timeout=5)
                pong = await client.ping()
                final = await client.submit_metrics(dict(CELL))
                await client.close()
            finally:
                await service.shutdown(drain=True)
            return pong, final

        pong, final = run(main())
        assert pong["server"] == "repro-serve"
        assert final["source"] == "computed"
        assert not path.exists()  # listener unlinked its socket


# ----------------------------------------------------------------------
# satellite: cache write atomicity under racing writers
# ----------------------------------------------------------------------

def _hammer_cache(root: str, key: str, rounds: int) -> None:
    from repro.experiments import eval_config
    from repro.orchestrator import CellSpec, ResultCache
    from repro.sim.metrics import RunMetrics

    cache = ResultCache(root)
    spec = CellSpec("wi", "tc", "shogun", 0.05, eval_config(), True)
    for i in range(rounds):
        metrics = RunMetrics(policy="shogun", cycles=float(i + 1))
        cache.put(spec, key, metrics, seconds=0.001 * i)


class TestCacheAtomicity:
    def test_racing_writers_never_tear_an_entry(self, tmp_path):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        key = cell_key(_spec())
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        writers = [
            context.Process(target=_hammer_cache, args=(str(root), key, 150))
            for _ in range(4)
        ]
        for process in writers:
            process.start()
        observed = 0
        torn = []
        deadline = time.monotonic() + 30
        while any(p.is_alive() for p in writers) and time.monotonic() < deadline:
            # get() treats corrupt entries as misses; read the raw file
            # too so a torn write cannot hide behind that tolerance.
            path = cache.path_for(key)
            try:
                raw = path.read_text(encoding="utf-8")
            except (FileNotFoundError, OSError):
                continue
            if raw:
                try:
                    payload = json.loads(raw)
                    assert payload["key"] == key
                    observed += 1
                except ValueError:
                    torn.append(raw[:80])
        for process in writers:
            process.join(timeout=30)
            assert process.exitcode == 0
        assert not torn, f"observed torn cache writes: {torn[:3]}"
        assert observed > 0  # the loop actually raced the writers
        entry = cache.get(key)
        assert entry is not None and entry.metrics.cycles == 150.0

    def test_atomic_write_cleans_tmp_on_failure(self, tmp_path):
        from repro.ioutil import atomic_open

        target = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            with atomic_open(target, "w") as handle:
                handle.write("partial")
                raise RuntimeError("mid-write crash")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []  # no orphaned temp file


# ----------------------------------------------------------------------
# satellite: SIGTERM/SIGINT drain in the batch scheduler
# ----------------------------------------------------------------------

_INTERRUPT_SCRIPT = r"""
import glob, os, signal, sys, time
from repro.experiments import eval_config
from repro.orchestrator import CellSpec, Orchestrator, RunManifest, cell_key
from repro.orchestrator import executor

JOBS = int(sys.argv[1])
specs = {}
for pattern in ("tc", "4cl", "tt_e"):
    spec = CellSpec("wi", pattern, "shogun", 0.05, eval_config(), True)
    specs[cell_key(spec)] = spec

real = executor._execute_staged_cell

def hooked(payload):
    # The tc cell signals the sweep: its own process when inline, the
    # parent from a pool worker.  The others wait, so none resolves first.
    if payload[2] == "tc":
        os.kill(os.getpid() if JOBS == 1 else os.getppid(), signal.SIGTERM)
    else:
        time.sleep(1.0)
    return real(payload)

executor._execute_staged_cell = hooked
manifest = RunManifest(jobs=JOBS)
orchestrator = Orchestrator(jobs=JOBS, cache=None, retries=1)
try:
    orchestrator.run_cells(specs, manifest)
    print("status:no-interrupt")
except KeyboardInterrupt:
    interrupted = [c for c in manifest.cells
                   if (c.error or {}).get("type") == "Interrupted"]
    print(f"status:interrupted cells:{len(manifest.cells)} "
          f"marked:{len(interrupted)}")
print(f"leaked:{len(glob.glob('/dev/shm/repro-arena-*'))}")
"""


def _interrupted_sweep(jobs: int) -> None:
    result = subprocess.run(
        [sys.executable, "-c", _INTERRUPT_SCRIPT, str(jobs)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src",
        )},
    )
    assert result.returncode == 0, result.stderr
    assert "status:interrupted" in result.stdout
    # All three cells were pending; every one is accounted for.
    assert "marked:3" in result.stdout
    assert "leaked:0" in result.stdout


class TestSchedulerInterrupt:
    def test_sigterm_drains_and_records_cells(self):
        _interrupted_sweep(jobs=1)

    def test_sigterm_from_pool_worker_drains_sweep(self):
        _interrupted_sweep(jobs=2)

    def test_guard_restores_previous_handlers(self):
        from repro.orchestrator.scheduler import _InterruptGuard

        before_term = signal.getsignal(signal.SIGTERM)
        before_int = signal.getsignal(signal.SIGINT)
        with pytest.raises(KeyboardInterrupt):
            with _InterruptGuard() as guard:
                os.kill(os.getpid(), signal.SIGTERM)
        assert guard.signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is before_term
        assert signal.getsignal(signal.SIGINT) is before_int

    def test_guard_is_noop_off_main_thread(self):
        from repro.orchestrator.scheduler import _InterruptGuard

        before = signal.getsignal(signal.SIGTERM)
        seen = []

        def body():
            with _InterruptGuard():
                seen.append(signal.getsignal(signal.SIGTERM))

        worker = threading.Thread(target=body)
        worker.start()
        worker.join()
        assert seen == [before]  # handler untouched from a worker thread
