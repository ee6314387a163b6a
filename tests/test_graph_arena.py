"""Tests for dataset staging: binary graph store + shared-memory arena.

Covers the acceptance criteria of the staging work: store round-trips
are bit-identical, content keys react to the source salt, arena
attachment yields the same CSR arrays and byte-identical RunMetrics,
the full golden grid matches through the jobs=2 arena path, and no
``/dev/shm`` segment survives the scheduler — on success or when a
worker dies mid-cell.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pytest

from repro.experiments import clear_run_cache, eval_config
from repro.experiments.runner import simulate_cell
from repro.graph import arena as arena_module
from repro.graph import datasets
from repro.graph.arena import (
    ArenaHandle,
    GraphArena,
    GraphStore,
    arena_enabled,
    count_salt,
    dataset_graph_key,
    graph_salt,
    resolve_graph,
    store_enabled,
)
from repro.graph.datasets import load_dataset, load_dataset_with_source
from repro.orchestrator import CellSpec, Orchestrator, RunManifest, cell_key
from repro.orchestrator import executor as executor_module
from repro.validate.golden import (
    diff_values,
    golden_matrix,
    load_snapshot,
    snapshot_path,
)

SCALE = 0.12

needs_shm = pytest.mark.skipif(
    not GraphArena.available(), reason="no usable shared memory here"
)


def _leaked_segments():
    return glob.glob("/dev/shm/repro-arena-*")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private cache root and clean process memos."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_run_cache()
    datasets.clear_cache()
    arena_module._reset_local()
    yield
    clear_run_cache()
    datasets.clear_cache()
    arena_module._reset_local()


class TestGraphStore:
    def test_round_trip_bit_identical(self):
        graph = load_dataset("wi", scale=SCALE)
        store = GraphStore()
        store.put("wi", SCALE, graph)
        loaded = store.get("wi", SCALE)
        assert loaded is not None
        assert np.array_equal(loaded.indptr, graph.indptr)
        assert np.array_equal(loaded.indices, graph.indices)
        assert loaded.name == "wi"

    def test_load_dataset_sources(self):
        first, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "rebuilt"
        second, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "memo" and second is first
        datasets.clear_cache()
        third, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "binary-cache"
        assert np.array_equal(third.indptr, first.indptr)
        assert np.array_equal(third.indices, first.indices)

    def test_content_key_reacts_to_salt(self, monkeypatch):
        base = dataset_graph_key("wi", SCALE)
        assert base == dataset_graph_key("wi", SCALE)
        assert base != dataset_graph_key("wi", SCALE * 2)
        assert base != dataset_graph_key("as", SCALE)
        monkeypatch.setenv("REPRO_CACHE_SALT", "other-code-version")
        graph_salt.cache_clear()
        count_salt.cache_clear()
        try:
            assert dataset_graph_key("wi", SCALE) != base
        finally:
            monkeypatch.delenv("REPRO_CACHE_SALT")
            graph_salt.cache_clear()
            count_salt.cache_clear()

    def test_counts_round_trip_and_salt(self, monkeypatch):
        store = GraphStore()
        assert store.get_count("wi", SCALE, "tc") is None
        store.put_count("wi", SCALE, "tc", 123)
        store.put_count("wi", SCALE, "4cl", 45)  # merges into the sidecar
        assert store.get_count("wi", SCALE, "tc") == 123
        assert store.get_count("wi", SCALE, "4cl") == 45
        monkeypatch.setenv("REPRO_CACHE_SALT", "new-miner")
        graph_salt.cache_clear()
        count_salt.cache_clear()
        try:
            assert store.get_count("wi", SCALE, "tc") is None  # stale = miss
        finally:
            monkeypatch.delenv("REPRO_CACHE_SALT")
            graph_salt.cache_clear()
            count_salt.cache_clear()

    def test_corrupt_entry_is_a_miss(self):
        graph = load_dataset("wi", scale=SCALE)
        store = GraphStore()
        store.put("wi", SCALE, graph)
        path = store.path_for(dataset_graph_key("wi", SCALE))
        path.write_bytes(b"not an npz")
        assert store.get("wi", SCALE) is None
        assert not path.exists()  # corrupt file removed

    def test_info_and_clear(self):
        store = GraphStore()
        store.put("wi", SCALE, load_dataset("wi", scale=SCALE))
        store.put_count("wi", SCALE, "tc", 1)
        info = store.info()
        assert info.graphs == 1 and info.counts == 1 and info.bytes > 0
        assert store.clear() == 2
        assert store.info().graphs == 0

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_STORE", "0")
        assert not store_enabled()
        _, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "rebuilt"
        datasets.clear_cache()
        _, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "rebuilt"  # nothing was stored


@needs_shm
class TestGraphArena:
    def test_stage_attach_identical_csr(self):
        graph = load_dataset("wi", scale=SCALE)
        with GraphArena() as arena:
            handle = arena.stage("wi", SCALE, graph)
            assert arena.stage("wi", SCALE, graph) is handle  # idempotent
            arena_module._reset_local()
            datasets.clear_cache()
            attached, source, _ = resolve_graph("wi", SCALE, handle)
            assert source == "arena"
            assert np.array_equal(attached.indptr, graph.indptr)
            assert np.array_equal(attached.indices, graph.indices)
            assert not attached.indptr.flags.writeable
            assert not attached.indices.flags.writeable
            # load_dataset now resolves to the attached graph.
            assert load_dataset("wi", scale=SCALE) is attached
            arena_module._reset_local()
        assert not _leaked_segments()

    def test_close_is_idempotent_and_cleans_segments(self):
        arena = GraphArena()
        arena.stage("wi", SCALE, load_dataset("wi", scale=SCALE))
        assert _leaked_segments()
        arena.close()
        arena.close()
        assert not _leaked_segments()
        with pytest.raises(RuntimeError):
            arena.stage("wi", SCALE, load_dataset("wi", scale=SCALE))

    def test_arena_metrics_bit_identical(self):
        direct = simulate_cell("wi", "tc", "shogun", scale=SCALE)
        graph = load_dataset("wi", scale=SCALE)
        with GraphArena() as arena:
            handle = arena.stage("wi", SCALE, graph)
            clear_run_cache()
            datasets.clear_cache()
            arena_module._reset_local()
            _, source, _ = resolve_graph("wi", SCALE, handle)
            assert source == "arena"
            staged = simulate_cell("wi", "tc", "shogun", scale=SCALE)
            arena_module._reset_local()
        assert staged.to_dict() == direct.to_dict()

    def test_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ARENA", "0")
        assert not arena_enabled()
        assert not GraphArena.available()


class TestOrchestratorStaging:
    def test_staging_recorded_in_manifest(self):
        spec = CellSpec("wi", "tc", "shogun", SCALE, eval_config(), True)
        manifest = RunManifest()
        results, failures = Orchestrator(jobs=1).run_cells(
            {cell_key(spec): spec}, manifest
        )
        assert not failures
        assert len(manifest.staging) == 1
        record = manifest.staging[0]
        assert record["dataset"] == "wi" and record["scale"] == SCALE
        assert record["source"] in ("rebuilt", "binary-cache", "memo")
        [outcome] = manifest.cells
        assert outcome.worker is not None
        assert outcome.worker["pid"] == os.getpid()
        assert "staged 1 graph(s)" in manifest.render()

    @needs_shm
    def test_golden_grid_through_arena(self):
        """The committed golden matrix, byte-identical via jobs=2 + arena."""
        config = eval_config()
        specs = {}
        for dataset, pattern, policy, scale in golden_matrix():
            spec = CellSpec(dataset, pattern, policy, scale, config, True)
            specs[cell_key(spec)] = spec
        manifest = RunManifest(jobs=2)
        results, failures = Orchestrator(jobs=2).run_cells(specs, manifest)
        assert not failures
        assert any("arena" in record for record in manifest.staging)
        sources = {
            outcome.worker["dataset_source"] for outcome in manifest.cells
        }
        assert "arena" in sources
        for dataset, pattern, policy, scale in golden_matrix():
            spec = CellSpec(dataset, pattern, policy, scale, config, True)
            snapshot = load_snapshot(snapshot_path(dataset, pattern, policy, scale))
            metrics = results[cell_key(spec)]
            diffs = diff_values(snapshot["metrics"], metrics.to_dict())
            assert not diffs, f"{spec.label()}: {diffs[:5]}"
        assert not _leaked_segments()

    @needs_shm
    def test_broken_pool_leaves_no_segments(self, monkeypatch):
        monkeypatch.setattr(
            executor_module, "_execute_staged_cell", _exit_cell
        )
        config = eval_config()
        specs = {}
        for pattern in ("tc", "4cl"):  # two pending cells so the pool engages
            spec = CellSpec("wi", pattern, "shogun", SCALE, config, True)
            specs[cell_key(spec)] = spec
        manifest = RunManifest(jobs=2)
        orch = Orchestrator(jobs=2, retries=0)
        results, failures = orch.run_cells(specs, manifest)
        assert len(failures) == 2
        assert manifest.failed == 2
        assert not _leaked_segments()

    @needs_shm
    def test_timed_out_cell_fails_alone(self, monkeypatch):
        monkeypatch.setattr(
            executor_module, "_execute_staged_cell", _hang_on_tc
        )
        config = eval_config()
        specs = {}
        for pattern in ("tc", "4cl", "5cl", "tt_e"):
            spec = CellSpec("wi", pattern, "shogun", SCALE, config, True)
            specs[cell_key(spec)] = spec
        manifest = RunManifest(jobs=2)
        orch = Orchestrator(jobs=2, timeout=_HANG_TIMEOUT, retries=0)
        results, failures = orch.run_cells(specs, manifest)
        [(failed_key, error)] = failures.items()
        assert specs[failed_key].pattern == "tc"
        assert error["type"] == "TimeoutError"
        assert set(results) == set(specs) - {failed_key}
        assert manifest.computed == 3 and manifest.failed == 1
        assert not _leaked_segments()


_REAL_BODY = executor_module._execute_staged_cell
_HANG_TIMEOUT = 5.0


def _exit_cell(payload, handle):  # pool target for the broken-pool test
    os._exit(9)


def _hang_on_tc(payload, handle):  # pool target for the timeout test
    if payload[2] == "tc":
        time.sleep(2 * _HANG_TIMEOUT)
    return _REAL_BODY(payload, handle)
