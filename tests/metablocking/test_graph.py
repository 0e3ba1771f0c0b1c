"""Tests for the blocking graph."""

from __future__ import annotations

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.metablocking.graph import BlockingGraph
from repro.metablocking.weighting import ARCS, CBS


def blocks() -> BlockCollection:
    return BlockCollection(
        [
            Block("k1", ["a", "b"]),          # 1 comparison: (a,b)
            Block("k2", ["a", "b", "c"]),     # 3 comparisons
            Block("k3", ["c", "d"]),          # 1 comparison
        ]
    )


class TestMaterialization:
    def test_edge_count(self):
        graph = BlockingGraph(blocks(), CBS())
        # Distinct pairs: ab, ac, bc, cd
        assert len(graph) == 4

    def test_cbs_weights(self):
        graph = BlockingGraph(blocks(), CBS())
        assert graph.weight_of("a", "b") == 2.0  # k1 and k2
        assert graph.weight_of("a", "c") == 1.0
        assert graph.weight_of("c", "d") == 1.0

    def test_arcs_weights(self):
        graph = BlockingGraph(blocks(), ARCS())
        # (a,b): 1/1 + 1/3 ; (c,d): 1/1 ; (a,c): 1/3
        assert graph.weight_of("a", "b") == pytest.approx(1 + 1 / 3)
        assert graph.weight_of("c", "d") == pytest.approx(1.0)
        assert graph.weight_of("a", "c") == pytest.approx(1 / 3)

    def test_absent_edge_weight_zero(self):
        graph = BlockingGraph(blocks(), CBS())
        assert graph.weight_of("a", "d") == 0.0

    def test_materialize_cached(self):
        graph = BlockingGraph(blocks(), CBS())
        assert graph.materialize() is graph.materialize()

    def test_edges_deterministic_order(self):
        graph = BlockingGraph(blocks(), CBS())
        pairs = [edge.pair for edge in graph.edges()]
        assert pairs == sorted(pairs)


class TestAccessors:
    def test_nodes(self):
        graph = BlockingGraph(blocks(), CBS())
        assert graph.nodes() == ["a", "b", "c", "d"]

    def test_pair_table_rows_align_with_edges(self):
        graph = BlockingGraph(blocks(), CBS())
        table = graph.pair_table()
        assert table.pairs == list(graph.materialize())
        assert table.common.tolist() == list(graph.materialize().values())

    def test_empty_graph_has_pair_table(self):
        table = BlockingGraph(BlockCollection(), CBS()).pair_table()
        assert table.pairs == []

    def test_average_and_total_weight(self):
        graph = BlockingGraph(blocks(), CBS())
        assert graph.total_weight() == pytest.approx(2 + 1 + 1 + 1)
        assert graph.average_weight() == pytest.approx(5 / 4)

    def test_empty_graph(self):
        graph = BlockingGraph(BlockCollection(), CBS())
        assert len(graph) == 0
        assert graph.average_weight() == 0.0

    def test_top_edges(self):
        graph = BlockingGraph(blocks(), CBS())
        top = graph.top_edges(1)
        assert len(top) == 1
        assert top[0].pair == ("a", "b")

    def test_top_edges_ties_broken_by_pair(self):
        graph = BlockingGraph(blocks(), CBS())
        top = graph.top_edges(3)
        assert [e.pair for e in top] == [("a", "b"), ("a", "c"), ("b", "c")]

    def test_bipartite_blocks_supported(self):
        bipartite = BlockCollection([Block("k", ["a"], ["x", "y"])])
        graph = BlockingGraph(bipartite, CBS())
        assert len(graph) == 2
        assert graph.weight_of("a", "x") == 1.0
