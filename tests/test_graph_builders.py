"""Unit tests for graph builders (normalization to canonical form)."""

import pytest

from repro.errors import GraphError
from repro.graph import from_adjacency, from_edges, from_networkx


class TestFromEdges:
    def test_dedup(self):
        g = from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_edges_dropped(self):
        g = from_edges([(0, 0), (0, 1), (2, 2)])
        assert g.num_edges == 1
        assert g.num_vertices == 3  # vertex 2 kept as isolated

    def test_num_vertices_inferred(self):
        g = from_edges([(0, 5)])
        assert g.num_vertices == 6

    def test_num_vertices_explicit(self):
        g = from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10
        assert g.degree(9) == 0

    def test_num_vertices_too_small(self):
        with pytest.raises(GraphError):
            from_edges([(0, 5)], num_vertices=3)

    def test_negative_vertex(self):
        with pytest.raises(GraphError):
            from_edges([(-1, 2)])

    def test_bad_edge_shape(self):
        with pytest.raises(GraphError):
            from_edges([(1,)])

    def test_empty(self):
        g = from_edges([])
        assert g.num_vertices == 0
        assert g.num_edges == 0

    def test_symmetry(self):
        g = from_edges([(2, 7), (7, 3)])
        assert g.has_edge(7, 2) and g.has_edge(2, 7)
        assert g.has_edge(3, 7) and g.has_edge(7, 3)

    def test_name(self):
        assert from_edges([(0, 1)], name="zap").name == "zap"


class TestFromAdjacency:
    def test_mapping(self):
        g = from_adjacency({0: [1, 2], 1: [2]})
        assert g.num_edges == 3

    def test_list(self):
        g = from_adjacency([[1], [0, 2], [1]])
        assert g.num_edges == 2

    def test_asymmetric_input_symmetrized(self):
        g = from_adjacency({0: [1]})  # no reverse listed
        assert g.has_edge(1, 0)

    def test_forward_reference_grows(self):
        g = from_adjacency({0: [9]})
        assert g.num_vertices == 10


class TestFromNetworkx:
    def test_roundtrip(self):
        nx = pytest.importorskip("networkx")
        nxg = nx.karate_club_graph()
        g = from_networkx(nxg)
        assert g.num_vertices == nxg.number_of_nodes()
        assert g.num_edges == nxg.number_of_edges()

    def test_relabeling(self):
        nx = pytest.importorskip("networkx")
        nxg = nx.Graph()
        nxg.add_edge("b", "a")
        g = from_networkx(nxg)
        assert g.num_vertices == 2
        assert g.has_edge(0, 1)
