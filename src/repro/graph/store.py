"""Binary graph store: content-addressed CSR arrays on disk.

:class:`GraphStore` caches CSR arrays under ``<cache-root>/graphs/``.  A
dataset's key digests its code, scale and the source of every
graph-defining module, so repeated cold runs skip the synthetic
generators (and edge-list text parsing) entirely while a behavioural
change to the generators still turns the store cold.  The store also
persists exact reference match counts per ``(graph, pattern)``, keyed by
a wider salt that includes the miner.

The store is the second rung of
:func:`repro.graph.datasets.load_dataset_with_source`: the process memo
first, then the store, then a rebuild (see docs/orchestrator.md,
"Dataset staging").  It is a pure cache of immutable inputs: every graph
it serves is bit-identical to the one the builders produce, which keeps
every accounted simulator metric byte-stable (tests/golden is the
referee).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..ioutil import atomic_open, atomic_write_json
from .csr import CSRGraph

#: Bump when the on-disk graph entry format changes; part of every key,
#: so old entries become misses instead of needing a migration.
STORE_SCHEMA = 1

#: Modules whose source defines what a *graph* is (generation, CSR
#: normalization, parsing).  Editing any of them invalidates every
#: stored graph.
GRAPH_SALT_SOURCES = ("csr.py", "builders.py", "generators.py", "datasets.py", "io.py")

#: Additional package subtrees that define what a *match count* is.
COUNT_SALT_SOURCES = ("mining", "patterns")


# ----------------------------------------------------------------------
# environment knobs
# ----------------------------------------------------------------------

def _env_flag(name: str, default: str = "1") -> bool:
    return os.environ.get(name, default).lower() not in ("0", "false", "off")


def store_enabled() -> bool:
    """Whether the binary graph store is on (``REPRO_CACHE`` and
    ``REPRO_GRAPH_STORE`` must both be unset or truthy)."""
    return _env_flag("REPRO_CACHE") and _env_flag("REPRO_GRAPH_STORE")


def _cache_root() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


# ----------------------------------------------------------------------
# content salts
# ----------------------------------------------------------------------

def _digest_sources(rels: Tuple[str, ...], package_root: Path) -> "hashlib._Hash":
    digest = hashlib.sha256()
    for rel in rels:
        path = package_root / rel
        sources = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for source in sources:
            digest.update(str(source.relative_to(package_root)).encode())
            digest.update(source.read_bytes())
    return digest


@lru_cache(maxsize=1)
def graph_salt() -> str:
    """Digest of the graph-defining source (or ``REPRO_CACHE_SALT``)."""
    env = os.environ.get("REPRO_CACHE_SALT")
    if env:
        return f"graph-{env}"
    package_root = Path(__file__).resolve().parent  # src/repro/graph
    digest = _digest_sources(GRAPH_SALT_SOURCES, package_root)
    digest.update(str(STORE_SCHEMA).encode())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=1)
def count_salt() -> str:
    """Digest of the count-defining source: graphs plus the miner."""
    env = os.environ.get("REPRO_CACHE_SALT")
    if env:
        return f"count-{env}"
    package_root = Path(__file__).resolve().parents[1]  # src/repro
    digest = _digest_sources(COUNT_SALT_SOURCES, package_root)
    digest.update(graph_salt().encode())
    return digest.hexdigest()[:16]


def dataset_graph_key(code: str, scale: float) -> str:
    """Content-addressed key for one registry dataset at one scale."""
    blob = json.dumps(
        {"code": code, "scale": repr(float(scale)), "salt": graph_salt()},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def edge_list_key(data: bytes, name: str) -> str:
    """Content-addressed key for a parsed edge-list file."""
    digest = hashlib.sha256()
    digest.update(b"edge-list\0")
    digest.update(name.encode("utf-8", "replace") + b"\0")
    digest.update(graph_salt().encode())
    digest.update(data)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# binary graph store
# ----------------------------------------------------------------------

def _csr_shape_ok(indptr: np.ndarray, indices: np.ndarray) -> bool:
    """The structural CSR invariants, checked in a few vectorized calls.

    They guarantee that every row slice and every neighbor id stays
    inside the graph's own arrays.  Row sortedness and self loops need
    the per-vertex walk of :meth:`CSRGraph._validate` and are not
    checked here.
    """
    if indptr.ndim != 1 or indices.ndim != 1 or len(indptr) == 0:
        return False
    if indptr[0] != 0 or indptr[-1] != len(indices):
        return False
    if np.any(indptr[1:] < indptr[:-1]):
        return False
    return not len(indices) or (
        indices.min() >= 0 and indices.max() < len(indptr) - 1
    )


@dataclass
class GraphStoreInfo:
    """Aggregate statistics for ``repro cache graphs info``."""

    root: str
    graphs: int
    counts: int
    bytes: int
    salt: str

    def render(self) -> str:
        return (
            f"graph store:  {self.root}\n"
            f"graphs:       {self.graphs}\n"
            f"count files:  {self.counts}\n"
            f"size:         {self.bytes} bytes\n"
            f"graph salt:   {self.salt}"
        )


class GraphStore:
    """Content-addressed binary CSR cache (``<cache-root>/graphs/``).

    Layout mirrors the result cache: ``<root>/<key[:2]>/<key>.npz`` for
    graphs and ``<key>.counts.json`` sidecars for exact match counts.
    Writes are atomic (temp file + ``os.replace``); corrupt, malformed
    or stale-salt entries read as misses and are removed.
    """

    def __init__(self, root: "os.PathLike | str | None" = None) -> None:
        self.root = Path(root) if root is not None else _cache_root() / "graphs"

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.npz"

    def counts_path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.counts.json"

    # ------------------------------------------------------------------
    def get_key(self, key: str, *, name: str) -> Optional[CSRGraph]:
        """Load one graph by key, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                indptr = np.ascontiguousarray(data["indptr"], dtype=np.int64)
                indices = np.ascontiguousarray(data["indices"], dtype=np.int64)
            if not _csr_shape_ok(indptr, indices):
                raise ValueError(f"malformed CSR entry {path.name}")
            return CSRGraph(indptr, indices, name=name, validate=False)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError):
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put_key(self, key: str, graph: CSRGraph) -> None:
        """Atomically persist one graph under ``key``."""
        with atomic_open(self.path_for(key), "wb") as handle:
            np.savez(handle, indptr=graph.indptr, indices=graph.indices)

    def get(self, code: str, scale: float) -> Optional[CSRGraph]:
        """Load one registry dataset, or None."""
        return self.get_key(dataset_graph_key(code, scale), name=code)

    def put(self, code: str, scale: float, graph: CSRGraph) -> None:
        """Persist one registry dataset."""
        self.put_key(dataset_graph_key(code, scale), graph)

    # ------------------------------------------------------------------
    # exact reference counts (sidecar per graph key)
    # ------------------------------------------------------------------
    def get_count(self, code: str, scale: float, pattern: str) -> Optional[int]:
        """Persisted exact match count, or None (stale salt = miss)."""
        path = self.counts_path_for(dataset_graph_key(code, scale))
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            entry = data[pattern]
            if entry.get("salt") != count_salt():
                return None
            return int(entry["count"])
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            return None

    def put_count(self, code: str, scale: float, pattern: str, count: int) -> None:
        """Merge one exact count into the dataset's sidecar (atomic)."""
        path = self.counts_path_for(dataset_graph_key(code, scale))
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(data, dict):
                data = {}
        except (OSError, ValueError):
            data = {}
        data[pattern] = {"count": int(count), "salt": count_salt()}
        atomic_write_json(path, data)

    # ------------------------------------------------------------------
    def _entry_paths(self):
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield from sorted(shard.glob("*.npz"))
                yield from sorted(shard.glob("*.counts.json"))

    def info(self) -> GraphStoreInfo:
        graphs = counts = size = 0
        for path in self._entry_paths():
            if path.name.endswith(".npz"):
                graphs += 1
            else:
                counts += 1
            try:
                size += path.stat().st_size
            except OSError:
                pass
        return GraphStoreInfo(
            root=str(self.root), graphs=graphs, counts=counts,
            bytes=size, salt=graph_salt(),
        )

    def clear(self) -> int:
        """Remove every stored graph and count file; returns the count."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for shard in list(self.root.iterdir()) if self.root.is_dir() else []:
            if shard.is_dir() and len(shard.name) == 2:
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return removed


def default_graph_store() -> Optional[GraphStore]:
    """The environment-configured store, or None when disabled."""
    if not store_enabled():
        return None
    return GraphStore()
