"""Registry of the six evaluated datasets (Table 4) as synthetic stand-ins.

The paper evaluates Wiki-Vote, AstroPh, Youtube, Patents, LiveJournal and
Orkut.  Offline we substitute seeded synthetic graphs that preserve the
properties the evaluation narrative depends on (see DESIGN.md §1):

======  ==================  =============================================
code    paper dataset       stand-in character
======  ==================  =============================================
``wi``  Wiki-Vote           small, fairly dense, skewed degrees
``as``  AstroPh             small collaboration graph, high clustering
``yo``  Youtube             sparse, *very* skewed, low diameter
``pa``  Patents             sparse, low degree variance
``lj``  LiveJournal         larger, moderate skew, higher degree
``or``  Orkut               high average degree (memory-bandwidth bound)
======  ==================  =============================================

Graphs are scaled so a Python event simulator can run the full evaluation
grid; a ``scale`` knob lets benchmarks grow or shrink every dataset
proportionally.  All graphs are relabelled by descending degree, the
canonical order assumed by the symmetry-breaking restrictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ..errors import GraphError
from .csr import CSRGraph
from .generators import (
    degree_sorted,
    powerlaw_cluster,
    powerlaw_configuration,
    random_regularish,
)

#: Dataset codes in the order the paper tables list them.
DATASET_CODES: Tuple[str, ...] = ("wi", "as", "yo", "pa", "lj", "or")


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one evaluated dataset."""

    code: str
    paper_name: str
    paper_vertices: str
    paper_edges: str
    builder: Callable[[float], CSRGraph]
    notes: str


def _scaled(n: int, scale: float, minimum: int = 32) -> int:
    return max(minimum, int(round(n * scale)))


def _build_wi(scale: float) -> CSRGraph:
    # Wiki-Vote is a core-periphery graph: a densely interconnected set
    # of high-degree vertices drives both its clique counts and the task
    # runtime variance behind the paper's 20-PE load-imbalance study
    # (Figure 11).  The stand-in plants a random dense core over the
    # hubs of a skewed configuration-model graph.
    import numpy as np

    n = _scaled(360, scale)
    g = powerlaw_configuration(
        n,
        target_avg_degree=14.0,
        exponent=2.0,
        seed=101,
        max_degree=max(16, n // 2),
        name="wi",
    )
    hubs = list(np.argsort(-g.degrees)[: max(12, n // 15)])
    rng = np.random.default_rng(1101)
    extra = [
        (int(hubs[i]), int(hubs[j]))
        for i in range(len(hubs))
        for j in range(i + 1, len(hubs))
        if rng.random() < 0.6
    ]
    from .builders import from_edges

    combined = from_edges(
        list(g.edges()) + extra, num_vertices=n, name="wi"
    )
    return degree_sorted(combined)


def _build_as(scale: float) -> CSRGraph:
    g = powerlaw_cluster(
        _scaled(900, scale),
        edges_per_vertex=6,
        triangle_prob=0.6,
        seed=202,
        name="as",
    )
    return degree_sorted(g)


def _build_yo(scale: float) -> CSRGraph:
    n = _scaled(2600, scale)
    g = powerlaw_configuration(
        n,
        target_avg_degree=4.0,
        exponent=1.8,
        seed=303,
        max_degree=max(8, n // 3),
        name="yo",
    )
    return degree_sorted(g)


def _build_pa(scale: float) -> CSRGraph:
    g = random_regularish(
        _scaled(3400, scale),
        degree=6,
        seed=404,
        jitter=0.3,
        name="pa",
    )
    return degree_sorted(g)


def _build_lj(scale: float) -> CSRGraph:
    g = powerlaw_configuration(
        _scaled(2200, scale),
        target_avg_degree=10.0,
        exponent=2.3,
        seed=505,
        name="lj",
    )
    return degree_sorted(g)


def _build_or(scale: float) -> CSRGraph:
    g = powerlaw_configuration(
        _scaled(1000, scale),
        target_avg_degree=20.0,
        exponent=2.5,
        seed=606,
        name="or",
    )
    return degree_sorted(g)


REGISTRY: Dict[str, DatasetSpec] = {
    "wi": DatasetSpec(
        "wi", "Wiki-Vote", "7.12 K", "100.37 K", _build_wi,
        "small graph, fully on-chip cacheable; skewed degrees",
    ),
    "as": DatasetSpec(
        "as", "AstroPh", "18.77 K", "198.11 K", _build_as,
        "small collaboration graph with high clustering",
    ),
    "yo": DatasetSpec(
        "yo", "Youtube", "1.13 M", "2.99 M", _build_yo,
        "medium, very low average degree, very high skew",
    ),
    "pa": DatasetSpec(
        "pa", "Patents", "3.77 M", "16.52 M", _build_pa,
        "medium, very low average degree, low skew",
    ),
    "lj": DatasetSpec(
        "lj", "LiveJournal", "4.00 M", "34.68 M", _build_lj,
        "large, memory-bound neighbor-set access",
    ),
    "or": DatasetSpec(
        "or", "Orkut", "3.07 M", "117.19 M", _build_or,
        "large, highest average degree",
    ),
}

_CACHE: Dict[Tuple[str, float], CSRGraph] = {}


def dataset_codes() -> List[str]:
    """Dataset codes in the paper's order."""
    return list(DATASET_CODES)


def get_spec(code: str) -> DatasetSpec:
    """Look up the :class:`DatasetSpec` for a dataset code."""
    try:
        return REGISTRY[code]
    except KeyError:
        raise GraphError(
            f"unknown dataset {code!r}; known: {sorted(REGISTRY)}"
        ) from None


def load_dataset(code: str, *, scale: float = 1.0) -> CSRGraph:
    """Build (and memoize) the synthetic stand-in for a dataset code.

    ``scale`` multiplies the vertex count; the same seeds are used at all
    scales, so results at a given scale are fully reproducible.  Cold
    processes consult the binary graph store first (see
    :mod:`repro.graph.store`), so repeated runs skip generation.
    """
    return load_dataset_with_source(code, scale=scale)[0]


def load_dataset_with_source(code: str, *, scale: float = 1.0) -> Tuple[CSRGraph, str]:
    """Like :func:`load_dataset`, also reporting how the graph arrived.

    The source is ``"memo"`` (in-process cache, inherited by forked pool
    workers), ``"binary-cache"`` (the content-addressed
    :class:`~repro.graph.store.GraphStore`) or ``"rebuilt"`` (the
    synthetic generator ran; the result is persisted to the store when
    one is enabled).  Every memoized graph is frozen: its CSR arrays are
    shared by every consumer in the process, so an in-place write
    raises instead of corrupting later cells.
    """
    if scale <= 0:
        raise GraphError("scale must be positive")
    key = (code, float(scale))
    if key in _CACHE:
        return _CACHE[key], "memo"
    spec = get_spec(code)  # validates the code before any store probe
    from .store import default_graph_store

    store = default_graph_store()
    if store is not None:
        graph = store.get(code, float(scale))
        if graph is not None:
            _CACHE[key] = graph.freeze()
            return graph, "binary-cache"
    graph = spec.builder(float(scale))
    _CACHE[key] = graph.freeze()
    if store is not None:
        try:
            store.put(code, float(scale), graph)
        except OSError:  # a read-only checkout must not break loading
            pass
    return graph, "rebuilt"


def clear_cache() -> None:
    """Drop memoized graphs (mainly for tests)."""
    _CACHE.clear()
