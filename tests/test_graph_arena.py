"""Tests for dataset staging: the process memo and the binary graph store.

Store round-trips are bit-identical, content keys react to the source
salt, malformed entries are misses, memoized graphs are read-only and
store-loaded graphs give byte-identical RunMetrics.  Through the
orchestrator, the full golden grid matches on the jobs=2 pool with every
worker resolving its graph from the fork-inherited memo; a graph staged
after a warm pool forked reaches its workers through the store (or a
rebuild); and no ``/dev/shm`` segment survives the scheduler — on
success or when a worker dies mid-cell.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np
import pytest

from repro.experiments import clear_run_cache, eval_config
from repro.experiments.runner import simulate_cell
from repro.graph import datasets
from repro.graph.datasets import load_dataset, load_dataset_with_source
from repro.graph.store import (
    GraphStore,
    count_salt,
    dataset_graph_key,
    graph_salt,
    store_enabled,
)
from repro.orchestrator import CellSpec, Orchestrator, RunManifest, cell_key
from repro.orchestrator import executor as executor_module
from repro.orchestrator.executor import PersistentCellExecutor
from repro.validate.golden import (
    diff_values,
    golden_matrix,
    load_snapshot,
    snapshot_path,
)
from tests.conftest import live_segment_names

SCALE = 0.12


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Every test gets a private cache root and clean process memos."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_run_cache()
    datasets.clear_cache()
    yield
    clear_run_cache()
    datasets.clear_cache()


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

    @pytest.mark.parametrize("defect", ["tail", "decreasing", "out_of_range"])
    def test_malformed_entry_is_a_miss(self, defect):
        graph = load_dataset("wi", scale=SCALE)
        indptr, indices = graph.indptr.copy(), graph.indices.copy()
        if defect == "tail":  # indptr[-1] != len(indices)
            indices = indices[:-1]
        elif defect == "decreasing":
            indptr[1], indptr[2] = indptr[2], indptr[1] - 1
        else:
            indices[0] = graph.num_vertices
        store = GraphStore()
        path = store.path_for(dataset_graph_key("wi", SCALE))
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(handle, indptr=indptr, indices=indices)
        assert store.get("wi", SCALE) is None
        assert not path.exists()  # malformed file removed
        datasets.clear_cache()
        _, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "rebuilt"

    def test_memo_and_store_graphs_are_frozen(self):
        rebuilt, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "rebuilt"
        datasets.clear_cache()
        loaded, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "binary-cache"
        assert np.array_equal(loaded.indptr, rebuilt.indptr)
        assert np.array_equal(loaded.indices, rebuilt.indices)
        for graph in (rebuilt, loaded):
            assert not graph.indptr.flags.writeable
            assert not graph.indices.flags.writeable
        # load_dataset now resolves to the store-loaded graph.
        assert load_dataset("wi", scale=SCALE) is loaded

    def test_store_metrics_bit_identical(self):
        direct = simulate_cell("wi", "tc", "shogun", scale=SCALE)
        clear_run_cache()
        datasets.clear_cache()
        _, source = load_dataset_with_source("wi", scale=SCALE)
        assert source == "binary-cache"
        staged = simulate_cell("wi", "tc", "shogun", scale=SCALE)
        assert staged.to_dict() == direct.to_dict()


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

    def test_golden_grid_through_pool(self):
        """The committed golden matrix, byte-identical via the jobs=2 pool."""
        config = eval_config()
        specs = {}
        for dataset, pattern, policy, scale in golden_matrix():
            spec = CellSpec(dataset, pattern, policy, scale, config, True)
            specs[cell_key(spec)] = spec
        manifest = RunManifest(jobs=2)
        results, failures = Orchestrator(jobs=2).run_cells(specs, manifest)
        assert not failures
        # Every graph was staged before the pool forked, so every worker
        # finds it in the inherited memo.
        sources = {
            outcome.worker["dataset_source"] for outcome in manifest.cells
        }
        assert sources == {"memo"}
        for dataset, pattern, policy, scale in golden_matrix():
            spec = CellSpec(dataset, pattern, policy, scale, config, True)
            snapshot = load_snapshot(snapshot_path(dataset, pattern, policy, scale))
            metrics = results[cell_key(spec)]
            diffs = diff_values(snapshot["metrics"], metrics.to_dict())
            assert not diffs, f"{spec.label()}: {diffs[:5]}"
        assert not live_segment_names()

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
        assert not live_segment_names()

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
        assert not live_segment_names()

    @pytest.mark.parametrize(
        "store, expected", [("1", "binary-cache"), ("0", "rebuilt")]
    )
    def test_graph_staged_after_fork(self, monkeypatch, store, expected):
        """A warm pool meets a graph staged after it forked: its worker
        loads it from the store (or rebuilds it), with the same metrics
        as the inline run."""
        monkeypatch.setenv("REPRO_GRAPH_STORE", store)
        config = eval_config()
        warm = CellSpec("wi", "tc", "shogun", SCALE, config, True)
        late = CellSpec("as", "tc", "shogun", SCALE, config, True)

        async def main():
            with PersistentCellExecutor(jobs=2) as executor:
                executor.stage(warm.dataset, warm.scale)
                first = await executor.run_cell(warm)  # forks the pool
                executor.stage(late.dataset, late.scale)
                pooled = await executor.run_cell(late)
                inline = executor.run_inline(late)
            return first, pooled, inline

        first, pooled, inline = asyncio.run(main())
        assert first[3]["dataset_source"] == "memo"
        metrics, error, _, worker = pooled
        assert error is None
        assert worker["pid"] != os.getpid()
        assert worker["dataset_source"] == expected
        assert inline[3]["dataset_source"] == "memo"
        assert metrics.to_dict() == inline[0].to_dict()


_REAL_BODY = executor_module._execute_staged_cell
_HANG_TIMEOUT = 5.0


def _exit_cell(payload):  # pool target for the broken-pool test
    os._exit(9)


def _hang_on_tc(payload):  # pool target for the timeout test
    if payload[2] == "tc":
        time.sleep(2 * _HANG_TIMEOUT)
    return _REAL_BODY(payload)
