"""SqlMetaBlocker: per-stage equivalence against the python operators.

Each stage of the SQL pipeline must reproduce its python counterpart
exactly — same blocks, same members in the same order, same
cardinalities — on every sample corpus.  The edge-level bit-identity
sweep lives in ``tests/api/test_sql_backend.py``; this module gates the
intermediate artifacts and the facade's error behaviour.
"""

from __future__ import annotations

import pytest

from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.datasets.samples import load_movies, load_people, load_restaurants
from repro.metablocking import ARCS, CNP, WeightingScheme
from repro.sqlbackend import SqlBackendError, SqlMetaBlocker, duckdb_available

CORPORA = {
    "movies": load_movies,
    "restaurants": load_restaurants,
    "people": load_people,
}

ENGINES = [
    "sqlite",
    pytest.param(
        "duckdb",
        marks=pytest.mark.skipif(
            not duckdb_available(), reason="duckdb not installed"
        ),
    ),
]


def fingerprint(blocks):
    """Structure that must match exactly: keys, members, cardinalities."""
    return [
        (
            block.key,
            tuple(block.entities1),
            tuple(block.entities2) if block.entities2 is not None else None,
            block.cardinality(),
        )
        for block in blocks
    ]


@pytest.fixture(params=sorted(CORPORA))
def raw_blocks(request):
    kb1, kb2, _ = CORPORA[request.param]()
    return TokenBlocking().build(kb1, kb2)


@pytest.mark.parametrize("engine", ENGINES)
class TestStageEquivalence:
    def test_processed_collection_matches_python_operators(
        self, raw_blocks, engine
    ):
        purging, filtering = BlockPurging(), BlockFiltering()
        expected = filtering.process(purging.process(raw_blocks))
        with SqlMetaBlocker(engine=engine) as mb:
            mb.load_blocks(raw_blocks)
            mb.purge(purging)
            mb.filter(filtering)
            rebuilt = mb.processed_collection()
        assert rebuilt.name == expected.name
        assert fingerprint(rebuilt) == fingerprint(expected)

    def test_no_operators_keeps_every_block(self, raw_blocks, engine):
        with SqlMetaBlocker(engine=engine) as mb:
            mb.load_blocks(raw_blocks)
            mb.purge(None)
            mb.filter(None)
            rebuilt = mb.processed_collection()
        assert rebuilt.name == raw_blocks.name
        assert fingerprint(rebuilt) == fingerprint(raw_blocks)

    def test_explicit_max_cardinality_bypasses_histogram(
        self, raw_blocks, engine
    ):
        purging = BlockPurging(max_cardinality=3)
        expected = purging.process(raw_blocks)
        with SqlMetaBlocker(engine=engine) as mb:
            mb.load_blocks(raw_blocks)
            assert mb.purge(purging) == 3
            mb.filter(None)
            rebuilt = mb.processed_collection()
        assert fingerprint(rebuilt) == fingerprint(expected)


class TestFacadeErrors:
    def test_custom_purging_rejected(self):
        class Custom(BlockPurging):
            pass

        kb1, kb2, _ = load_movies()
        blocks = TokenBlocking().build(kb1, kb2)
        with SqlMetaBlocker() as mb:
            mb.load_blocks(blocks)
            with pytest.raises(SqlBackendError, match="Custom"):
                mb.purge(Custom())

    def test_custom_filtering_rejected(self):
        class Custom(BlockFiltering):
            pass

        kb1, kb2, _ = load_movies()
        blocks = TokenBlocking().build(kb1, kb2)
        with SqlMetaBlocker() as mb:
            mb.load_blocks(blocks)
            mb.purge(None)
            with pytest.raises(SqlBackendError, match="Custom"):
                mb.filter(Custom())

    def test_custom_scheme_rejected(self):
        class Exotic(WeightingScheme):
            name = "exotic"

            def weights(self, blocks, table):
                return table.arcs

        kb1, kb2, _ = load_movies()
        with SqlMetaBlocker() as mb:
            mb.prepare(TokenBlocking().build(kb1, kb2))
            with pytest.raises(SqlBackendError, match="Exotic"):
                mb.weight(Exotic())

    def test_custom_pruner_rejected(self):
        class Exotic:
            pass

        kb1, kb2, _ = load_movies()
        with SqlMetaBlocker() as mb:
            mb.prepare(TokenBlocking().build(kb1, kb2))
            mb.weight(ARCS())
            with pytest.raises(SqlBackendError, match="Exotic"):
                mb.prune(Exotic())

    def test_prune_before_weight_rejected(self):
        kb1, kb2, _ = load_movies()
        with SqlMetaBlocker() as mb:
            mb.prepare(TokenBlocking().build(kb1, kb2))
            with pytest.raises(SqlBackendError, match="weight"):
                mb.prune(CNP())


class TestPlans:
    def test_every_stage_captures_at_least_one_plan(self):
        kb1, kb2, _ = load_movies()
        with SqlMetaBlocker() as mb:
            mb.prepare(
                TokenBlocking().build(kb1, kb2), BlockPurging(), BlockFiltering()
            )
            mb.weight(ARCS())
            mb.prune(CNP())
            plans = mb.plans
        for stage in ("purging", "filtering", "pairs", "weighting", "pruning"):
            assert plans.get(stage), f"no plan captured for stage {stage!r}"
