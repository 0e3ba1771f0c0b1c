"""Bit-identity suite: int-ID parallel meta-blocking == sequential graph.

MapReduce meta-blocking promises results **bit-identical** to the
sequential :class:`~repro.metablocking.graph.BlockingGraph` — pairs,
float weights and surviving-edge order — for all six weighting schemes
× the four canonical pruners, on all three sample corpora, at every
worker count, on both executors.  This suite is that
promise spelled out.
"""

from __future__ import annotations

import numpy as np
import pytest

from metablocking import reference as oracle
from repro.blocking.token_blocking import TokenBlocking
from repro.datasets import load_movies, load_people, load_restaurants
from repro.mapreduce import (
    MapReduceEngine,
    ProcessExecutor,
    parallel_metablocking_ids,
    parallel_pair_table,
)
from repro.metablocking.graph import BlockingGraph, pair_table_for
from repro.metablocking.pruning import (
    CEP,
    CNP,
    PRUNERS,
    ReciprocalCNP,
    make_pruner,
)
from repro.metablocking.weighting import make_scheme

CORPORA = ("movies", "restaurants", "people")
SCHEME_NAMES = ("CBS", "ECBS", "JS", "EJS", "ARCS", "X2")
PRUNER_NAMES = ("WEP", "CEP", "WNP", "CNP")
WORKER_COUNTS = (1, 3, 4)

_LOADERS = {
    "movies": load_movies,
    "restaurants": load_restaurants,
    "people": load_people,
}


@pytest.fixture(scope="module")
def corpus_blocks():
    """Token blocks of each sample corpus."""
    blocks = {}
    for corpus, loader in _LOADERS.items():
        kb_a, kb_b, _ = loader()
        blocks[corpus] = TokenBlocking().build(kb_a, kb_b)
    return blocks


@pytest.fixture(scope="module")
def sequential_edges(corpus_blocks):
    """Expected (pair, weight) lists from the sequential graph."""
    expected = {}
    for corpus, blocks in corpus_blocks.items():
        for scheme_name in SCHEME_NAMES:
            for pruner_name in PRUNER_NAMES:
                edges = make_pruner(pruner_name).prune(
                    BlockingGraph(blocks, make_scheme(scheme_name))
                )
                expected[(corpus, scheme_name, pruner_name)] = [
                    (edge.pair, edge.weight) for edge in edges
                ]
    return expected


@pytest.fixture(scope="module")
def process_engines():
    """Persistent multiprocessing engines, one per swept worker count."""
    if not ProcessExecutor.available():
        pytest.skip("fork start method unavailable")
    engines = {
        workers: MapReduceEngine(workers=workers, executor="process")
        for workers in WORKER_COUNTS
    }
    yield engines
    for engine in engines.values():
        engine.close()


def _as_pairs(edges):
    return [(edge.pair, edge.weight) for edge in edges]


class TestPairTable:
    """The MapReduce pair table equals the sequential one bit for bit."""

    @pytest.mark.parametrize("corpus", CORPORA)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_serial(self, corpus_blocks, corpus, workers):
        blocks = corpus_blocks[corpus]
        reference = pair_table_for(blocks)
        table, metrics = parallel_pair_table(
            MapReduceEngine(workers=workers), blocks
        )
        assert table.pairs == reference.pairs  # row order included
        assert np.array_equal(table.ids_a, reference.ids_a)
        assert np.array_equal(table.ids_b, reference.ids_b)
        assert np.array_equal(table.common, reference.common)
        # Bit-identical floats, not approx: the ARCS fold is re-sequenced
        # across the shuffle to match the sequential enumeration exactly.
        assert np.array_equal(table.arcs, reference.arcs)
        assert metrics.shuffle_records > 0
        assert metrics.shuffle_bytes > 0

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_process(self, corpus_blocks, process_engines, corpus):
        blocks = corpus_blocks[corpus]
        reference = pair_table_for(blocks)
        for workers, engine in process_engines.items():
            table, _ = parallel_pair_table(engine, blocks)
            assert table.pairs == reference.pairs, workers
            assert np.array_equal(table.common, reference.common)
            assert np.array_equal(table.arcs, reference.arcs)


    def test_worker_invariance(self, corpus_blocks):
        blocks = corpus_blocks["movies"]
        one, _ = parallel_pair_table(MapReduceEngine(workers=1), blocks)
        eight, _ = parallel_pair_table(MapReduceEngine(workers=8), blocks)
        assert one.pairs == eight.pairs
        assert np.array_equal(one.common, eight.common)
        assert np.array_equal(one.arcs, eight.arcs)


class TestAgainstOracle:
    """The MapReduce path equals the readable oracle, not only the graph.

    The suites above compare the parallel jobs with the sequential
    graph, which shares the columnar kernels; these compare them with
    the string-tuple statistics, scalar weights and adjacency-dict
    pruning of :mod:`metablocking.reference`.
    """

    @pytest.mark.parametrize("corpus", CORPORA)
    def test_pair_table_matches_oracle_statistics(self, corpus_blocks, corpus):
        blocks = corpus_blocks[corpus]
        table, _ = parallel_pair_table(MapReduceEngine(workers=3), blocks)
        rows = dict(zip(table.pairs, zip(table.common.tolist(), table.arcs.tolist())))
        expected = oracle.pair_statistics(blocks)
        assert rows == expected
        assert list(rows) == list(expected)  # first-seen row order

    @pytest.mark.parametrize("pruner_name", sorted(PRUNERS))
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    def test_pruned_edges_match_oracle(self, corpus_blocks, scheme_name, pruner_name):
        blocks = corpus_blocks["movies"]
        expected = oracle.prune(
            pruner_name, blocks, oracle.weights(scheme_name, blocks)
        )
        parallel, _ = parallel_metablocking_ids(
            MapReduceEngine(workers=3),
            blocks,
            make_scheme(scheme_name),
            make_pruner(pruner_name),
        )
        assert parallel == expected


class TestSerialExecutorEquivalence:
    """Full matrix on the deterministic in-process oracle."""

    @pytest.mark.parametrize("pruner_name", PRUNER_NAMES)
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_bit_identical(
        self, corpus_blocks, sequential_edges, corpus, scheme_name, pruner_name
    ):
        expected = sequential_edges[(corpus, scheme_name, pruner_name)]
        for workers in WORKER_COUNTS:
            parallel, metrics = parallel_metablocking_ids(
                MapReduceEngine(workers=workers),
                corpus_blocks[corpus],
                make_scheme(scheme_name),
                make_pruner(pruner_name),
            )
            assert _as_pairs(parallel) == expected, (workers, "edges differ")
            assert len(metrics) >= 2  # stats + at least one pruning job


class TestProcessExecutorEquivalence:
    """Full matrix through real multiprocessing workers."""

    @pytest.mark.parametrize("pruner_name", PRUNER_NAMES)
    @pytest.mark.parametrize("scheme_name", SCHEME_NAMES)
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_bit_identical(
        self,
        corpus_blocks,
        sequential_edges,
        process_engines,
        corpus,
        scheme_name,
        pruner_name,
    ):
        expected = sequential_edges[(corpus, scheme_name, pruner_name)]
        for workers, engine in process_engines.items():
            parallel, _ = parallel_metablocking_ids(
                engine,
                corpus_blocks[corpus],
                make_scheme(scheme_name),
                make_pruner(pruner_name),
            )
            assert _as_pairs(parallel) == expected, (workers, "edges differ")


class TestReciprocalVariants:
    """Reciprocal WNP/CNP ride the same entity-centric chain."""

    @pytest.mark.parametrize("pruner_name", ["ReciprocalWNP", "ReciprocalCNP"])
    @pytest.mark.parametrize("corpus", CORPORA)
    def test_bit_identical(self, corpus_blocks, corpus, pruner_name):
        blocks = corpus_blocks[corpus]
        expected = _as_pairs(
            make_pruner(pruner_name).prune(BlockingGraph(blocks, make_scheme("ARCS")))
        )
        parallel, _ = parallel_metablocking_ids(
            MapReduceEngine(workers=3),
            blocks,
            make_scheme("ARCS"),
            make_pruner(pruner_name),
        )
        assert _as_pairs(parallel) == expected


class TestEdgeCases:
    def test_empty_collection(self):
        from repro.blocking.block import BlockCollection

        blocks = BlockCollection(name="empty")
        blocks.prime_id_views(
            __import__("repro.model.interner", fromlist=["EntityInterner"])
            .EntityInterner(),
            [],
        )
        edges, _ = parallel_metablocking_ids(
            MapReduceEngine(workers=4), blocks, make_scheme("ARCS"), make_pruner("CNP")
        )
        assert edges == []

    def test_unsupported_pruner_rejected(self, corpus_blocks):
        class Bogus:
            name = "bogus"

        with pytest.raises(TypeError):
            parallel_metablocking_ids(
                MapReduceEngine(workers=2),
                corpus_blocks["movies"],
                make_scheme("CBS"),
                Bogus(),
            )


class TestExplicitBudgets:
    """Pruners with a fixed k (not derived from the blocks) stay identical."""

    @pytest.mark.parametrize(
        "pruner", [CEP(k=25), CNP(k=2), ReciprocalCNP(k=2)], ids=lambda p: p.name
    )
    def test_bit_identical(self, corpus_blocks, pruner):
        blocks = corpus_blocks["movies"]
        expected = _as_pairs(pruner.prune(BlockingGraph(blocks, make_scheme("ARCS"))))
        parallel, _ = parallel_metablocking_ids(
            MapReduceEngine(workers=4), blocks, make_scheme("ARCS"), pruner
        )
        assert _as_pairs(parallel) == expected


class TestJobChain:
    def test_edge_centric_runs_two_jobs(self, corpus_blocks):
        _, metrics = parallel_metablocking_ids(
            MapReduceEngine(workers=2),
            corpus_blocks["movies"],
            make_scheme("CBS"),
            make_pruner("WEP"),
        )
        assert [m.job_name for m in metrics] == ["pair-statistics-ids", "wep-pruning-ids"]

    def test_entity_centric_runs_three_jobs(self, corpus_blocks):
        # statistics + per-node retention + vote merge
        _, metrics = parallel_metablocking_ids(
            MapReduceEngine(workers=2), corpus_blocks["movies"], make_scheme("ARCS"), CNP(k=2)
        )
        assert len(metrics) == 3
        assert metrics[0].job_name == "pair-statistics-ids"

    def test_eight_workers_match_one(self, corpus_blocks):
        runs = [
            parallel_metablocking_ids(
                MapReduceEngine(workers=workers),
                corpus_blocks["movies"],
                make_scheme("JS"),
                make_pruner("WNP"),
            )[0]
            for workers in (1, 8)
        ]
        assert _as_pairs(runs[0]) == _as_pairs(runs[1])
