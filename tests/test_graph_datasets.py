"""Unit tests for the dataset registry (Table 4 stand-ins)."""

import pytest

from repro.errors import GraphError
from repro.graph import dataset_codes, get_spec, load_dataset
from repro.graph.datasets import REGISTRY, clear_cache
from repro.graph.stats import degree_skewness


class TestRegistry:
    def test_codes_order(self):
        assert dataset_codes() == ["wi", "as", "yo", "pa", "lj", "or"]

    def test_all_specs_present(self):
        for code in dataset_codes():
            spec = get_spec(code)
            assert spec.code == code
            assert spec.paper_name

    def test_unknown_code(self):
        with pytest.raises(GraphError):
            get_spec("zz")

    def test_registry_complete(self):
        assert set(REGISTRY) == set(dataset_codes())


class TestLoading:
    def test_memoized(self):
        a = load_dataset("wi", scale=0.2)
        b = load_dataset("wi", scale=0.2)
        assert a is b

    def test_scale_changes_size(self):
        small = load_dataset("wi", scale=0.2)
        big = load_dataset("wi", scale=0.4)
        assert big.num_vertices > small.num_vertices

    def test_bad_scale(self):
        with pytest.raises(GraphError):
            load_dataset("wi", scale=0)

    def test_clear_cache(self):
        a = load_dataset("as", scale=0.2)
        clear_cache()
        b = load_dataset("as", scale=0.2)
        assert a is not b

    def test_memoized_graph_is_read_only(self):
        graph = load_dataset("wi", scale=0.3)
        with pytest.raises(ValueError):
            graph.indices[0] = graph.indices[0]
        with pytest.raises(ValueError):
            graph.indptr[-1] += 1

    def test_names_match_codes(self):
        for code in dataset_codes():
            assert load_dataset(code, scale=0.2).name == code


class TestCharacter:
    """The properties the paper's analysis relies on (DESIGN.md §1)."""

    def test_degree_sorted(self):
        g = load_dataset("yo", scale=0.25)
        degs = list(g.degrees)
        assert all(degs[i] >= degs[i + 1] for i in range(len(degs) - 1))

    def test_yo_most_skewed(self):
        skews = {c: degree_skewness(load_dataset(c, scale=0.25)) for c in ("yo", "pa")}
        assert skews["yo"] > skews["pa"] + 1.0

    def test_or_highest_degree(self):
        degrees = {
            c: load_dataset(c, scale=0.25).average_degree
            for c in ("yo", "pa", "or")
        }
        assert degrees["or"] > degrees["yo"]
        assert degrees["or"] > degrees["pa"]

    def test_size_ordering(self):
        wi = load_dataset("wi", scale=0.25)
        pa = load_dataset("pa", scale=0.25)
        assert pa.num_vertices > wi.num_vertices
