"""Equivalence: the production int-ID graph == the readable reference oracle.

The production path must be *bit-identical* to the oracle in
:mod:`reference`, not approximately equal: pruning schemes compare
weights against thresholds and each other, so even a last-ulp drift
could flip a survivor.  Every weighting scheme and every pruning scheme
is exercised on both a clean-clean (center synthetic) and a dirty
workload.
"""

from __future__ import annotations

import pytest

from metablocking import reference
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.metablocking.graph import BlockingGraph, WeightedEdge
from repro.metablocking.pruning import PRUNERS, make_pruner
from repro.metablocking.weighting import SCHEMES, make_scheme


def _build_blocks(kb1, kb2=None):
    blocks = TokenBlocking().build(kb1, kb2)
    blocks = BlockPurging().process(blocks)
    return BlockFiltering().process(blocks)


@pytest.fixture(scope="module")
def center_blocks(center_dataset):
    return _build_blocks(center_dataset.kb1, center_dataset.kb2)


@pytest.fixture(scope="module")
def dirty_blocks(dirty_dataset):
    collection, _ = dirty_dataset
    return _build_blocks(collection)


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestWeightEquivalence:
    def test_center_weights_bit_identical(self, center_blocks, scheme_name):
        graph = BlockingGraph(center_blocks, make_scheme(scheme_name))
        assert graph.materialize() == reference.weights(scheme_name, center_blocks)

    def test_dirty_weights_bit_identical(self, dirty_blocks, scheme_name):
        graph = BlockingGraph(dirty_blocks, make_scheme(scheme_name))
        assert graph.materialize() == reference.weights(scheme_name, dirty_blocks)

    def test_edge_iteration_order_identical(self, center_blocks, scheme_name):
        graph = BlockingGraph(center_blocks, make_scheme(scheme_name))
        expected = reference.weights(scheme_name, center_blocks)
        # Same insertion order too: every node-centric float sum (WNP's
        # neighbourhood means) follows it.
        assert list(graph.materialize()) == list(expected)
        assert list(graph.edges()) == [
            WeightedEdge(pair[0], pair[1], expected[pair]) for pair in sorted(expected)
        ]


@pytest.mark.parametrize("pruner_name", sorted(PRUNERS))
@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
class TestPruningEquivalence:
    def _check(self, blocks, scheme_name, pruner_name):
        graph = BlockingGraph(blocks, make_scheme(scheme_name))
        expected = reference.prune(
            pruner_name, blocks, reference.weights(scheme_name, blocks)
        )
        assert make_pruner(pruner_name).prune(graph) == expected

    def test_center_pruned_edges_identical(self, center_blocks, scheme_name, pruner_name):
        self._check(center_blocks, scheme_name, pruner_name)

    def test_dirty_pruned_edges_identical(self, dirty_blocks, scheme_name, pruner_name):
        self._check(dirty_blocks, scheme_name, pruner_name)


class TestStatisticsEquivalence:
    def test_pair_table_matches_reference(self, center_blocks):
        table = BlockingGraph(center_blocks, make_scheme("CBS")).pair_table()
        rows = dict(zip(table.pairs, zip(table.common.tolist(), table.arcs.tolist())))
        expected = reference.pair_statistics(center_blocks)
        assert rows == expected
        assert list(rows) == list(expected)  # first-seen row order

    def test_top_edges_heap_matches_full_ranking(self, center_blocks):
        heap_graph = BlockingGraph(center_blocks, make_scheme("ARCS"))
        sort_graph = BlockingGraph(center_blocks, make_scheme("ARCS"))
        for count in (1, 5, 50, 10**6):
            top = heap_graph.top_edges(count)
            assert top == sort_graph.ranked_edges()[:count]
