"""Compressed sparse row (CSR) graph representation.

The entire library operates on undirected simple graphs stored in CSR
form with the adjacency of every vertex sorted by ascending vertex index.
Sorted adjacency is a standing assumption of pattern-aware graph mining
(GraphPi, FlexMiner, FINGERS all require it): symmetry-breaking turns into
a bounded scan, and set intersection/subtraction run as sorted merges.

The CSR graph also carries the *byte address map* used by the accelerator
simulator.  Following the paper, graph data lives in a dedicated region of
the physical address space (it is streamed through the L2 only); the
neighbor set of vertex ``v`` occupies the byte range
``[graph_base + 4 * indptr[v], graph_base + 4 * indptr[v + 1])``
where 4 is the size of one vertex id in bytes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import GraphError

#: Size in bytes of one vertex id as stored in the accelerator memory.
VERTEX_BYTES = 4

#: Base byte address of the graph (CSR) region in the simulated address
#: space.  Intermediate-result regions are allocated below this base so the
#: two kinds of traffic can never alias.
GRAPH_REGION_BASE = 1 << 40


class NeighborArena:
    """Pre-sliced, read-only neighbor views for one CSR graph.

    The hot paths of the miner and the simulator fetch the same neighbor
    slices over and over (once per set-operation input).  Creating a
    numpy view per call is cheap but not free; the arena materializes
    every per-vertex slice **once** — as zero-copy views of a read-only
    alias of ``indices`` — so a fetch is a single list index.  Read-only
    views make the shared adjacency immune to accidental mutation by any
    kernel downstream.
    """

    __slots__ = ("slices", "degrees")

    def __init__(self, graph: "CSRGraph") -> None:
        frozen = graph.indices.view()
        frozen.flags.writeable = False
        indptr = graph.indptr.tolist()
        self.slices: List[np.ndarray] = [
            frozen[indptr[v] : indptr[v + 1]] for v in range(graph.num_vertices)
        ]
        self.degrees: List[int] = graph.degrees.tolist()

    def __getitem__(self, v: int) -> np.ndarray:
        return self.slices[v]

    def __len__(self) -> int:
        return len(self.slices)


class CSRGraph:
    """An immutable undirected simple graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; row pointer.
    indices:
        ``int32``/``int64`` array of length ``2 * num_undirected_edges``;
        concatenated sorted adjacency lists.
    validate:
        When true (the default) the constructor checks all CSR invariants;
        pass ``False`` only for arrays produced by trusted builders.
    """

    __slots__ = ("indptr", "indices", "_degrees", "_arena", "name")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        *,
        name: str = "graph",
        validate: bool = True,
    ) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        self.name = name
        self._degrees = np.diff(self.indptr)
        self._arena: "NeighborArena | None" = None
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.indptr.ndim != 1 or self.indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional")
        if len(self.indptr) == 0:
            raise GraphError("indptr must have at least one entry")
        if self.indptr[0] != 0:
            raise GraphError("indptr[0] must be 0")
        if self.indptr[-1] != len(self.indices):
            raise GraphError("indptr[-1] must equal len(indices)")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr must be non-decreasing")
        n = self.num_vertices
        if len(self.indices) and (self.indices.min() < 0 or self.indices.max() >= n):
            raise GraphError("indices contain out-of-range vertex ids")
        for v in range(n):
            row = self.neighbors(v)
            if len(row) > 1 and np.any(np.diff(row) <= 0):
                raise GraphError(f"adjacency of vertex {v} is not strictly sorted")
            if np.any(row == v):
                raise GraphError(f"vertex {v} has a self loop")

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of *undirected* edges (each stored twice in CSR)."""
        return len(self.indices) // 2

    @property
    def degrees(self) -> np.ndarray:
        """Array of vertex degrees (read-only view)."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """Largest degree in the graph (0 for an empty graph)."""
        return int(self._degrees.max()) if self.num_vertices else 0

    @property
    def average_degree(self) -> float:
        """Mean degree; 0.0 for the empty graph."""
        if self.num_vertices == 0:
            return 0.0
        return float(len(self.indices)) / self.num_vertices

    def degree(self, v: int) -> int:
        """Degree of vertex ``v``."""
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor array of vertex ``v`` (zero-copy view)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def freeze(self) -> "CSRGraph":
        """Mark both CSR arrays read-only (shared graphs stay immutable)."""
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        return self

    def arena(self) -> NeighborArena:
        """The memoized :class:`NeighborArena` of pre-built slices."""
        if self._arena is None:
            self._arena = NeighborArena(self)
        return self._arena

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``{u, v}`` exists (binary search)."""
        if u == v:
            return False
        # Search in the smaller adjacency for speed.
        if self.degree(u) > self.degree(v):
            u, v = v, u
        row = self.neighbors(u)
        pos = int(np.searchsorted(row, v))
        return pos < len(row) and row[pos] == v

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate undirected edges as ``(u, v)`` with ``u < v``."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                if u < v:
                    yield (u, int(v))

    def vertices(self) -> range:
        """Range over all vertex ids."""
        return range(self.num_vertices)

    # ------------------------------------------------------------------
    # simulator address map
    # ------------------------------------------------------------------
    def neighbor_set_bytes(self, v: int) -> int:
        """Size in bytes of the neighbor set of ``v``."""
        return self.degree(v) * VERTEX_BYTES

    def neighbor_set_address(self, v: int) -> int:
        """Base byte address of the neighbor set of ``v`` in the graph region."""
        return GRAPH_REGION_BASE + int(self.indptr[v]) * VERTEX_BYTES

    # ------------------------------------------------------------------
    # dunder / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSRGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )

    def to_edge_list(self) -> List[Tuple[int, int]]:
        """Materialize the undirected edge list with ``u < v``."""
        return list(self.edges())

    def subgraph_degrees(self, vertices: Sequence[int]) -> List[int]:
        """Degrees of ``vertices`` restricted to the induced subgraph."""
        vset = set(int(v) for v in vertices)
        out = []
        for v in vertices:
            out.append(sum(1 for w in self.neighbors(v) if int(w) in vset))
        return out

    def is_isomorphic_embedding(self, vertices: Sequence[int], adjacency: Sequence[Sequence[int]]) -> bool:
        """Check that mapping pattern vertex ``i`` to ``vertices[i]`` embeds
        ``adjacency`` (pattern adjacency lists) edge-for-edge.

        Used by tests and the naive miner; not performance critical.
        """
        for i, nbrs in enumerate(adjacency):
            for j in nbrs:
                if not self.has_edge(int(vertices[i]), int(vertices[j])):
                    return False
        return True


def empty_graph(num_vertices: int = 0) -> CSRGraph:
    """A graph with ``num_vertices`` vertices and no edges."""
    if num_vertices < 0:
        raise GraphError("num_vertices must be non-negative")
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    return CSRGraph(indptr, np.empty(0, dtype=np.int64), validate=False)
