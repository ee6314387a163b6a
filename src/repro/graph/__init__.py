"""Graph substrate: CSR graphs, builders, synthetic datasets, statistics."""

from .builders import (
    from_adjacency,
    from_edge_array,
    from_edges,
    from_networkx,
    induced_subgraph,
    relabel_by_degree,
)
from .csr import GRAPH_REGION_BASE, VERTEX_BYTES, CSRGraph, NeighborArena, empty_graph
from .datasets import (
    DatasetSpec,
    dataset_codes,
    get_spec,
    load_dataset,
    load_dataset_with_source,
)
from .generators import (
    degree_sorted,
    rmat,
    erdos_renyi_gnm,
    powerlaw_cluster,
    powerlaw_configuration,
    random_regularish,
)
from .io import load_edge_list, load_edge_list_reference, save_edge_list
from .stats import GraphStats, compute_stats, degree_skewness, global_clustering, triangle_count
from .store import GraphStore, default_graph_store

__all__ = [
    "CSRGraph",
    "GraphStore",
    "NeighborArena",
    "DatasetSpec",
    "GraphStats",
    "GRAPH_REGION_BASE",
    "VERTEX_BYTES",
    "compute_stats",
    "default_graph_store",
    "dataset_codes",
    "degree_skewness",
    "degree_sorted",
    "empty_graph",
    "erdos_renyi_gnm",
    "from_adjacency",
    "from_edge_array",
    "from_edges",
    "from_networkx",
    "get_spec",
    "global_clustering",
    "induced_subgraph",
    "load_dataset",
    "load_dataset_with_source",
    "load_edge_list",
    "load_edge_list_reference",
    "powerlaw_cluster",
    "powerlaw_configuration",
    "random_regularish",
    "relabel_by_degree",
    "rmat",
    "save_edge_list",
    "triangle_count",
]
