"""Property tests: arrival order and duplicates never break equivalence.

The streaming layer promises convergence: whatever order descriptions
arrive in — shuffled, duplicated, or split so one entity's attributes
trickle in across several merge inserts — the streamed state equals the
batch pipeline over the final merged corpus.  And a query's
neighbourhood, weighed in one postings pass, equals the same pairs
weighed one at a time.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from metablocking import reference as oracle
from repro.blocking.token_blocking import TokenBlocking
from repro.model.collection import EntityCollection
from repro.model.description import EntityDescription
from repro.stream import StreamResolver
from repro.metablocking.scheme_defs import SCHEME_NAMES
from repro.stream.resolver import prune_neighbourhood, weigh_candidates

TOKENS = ["alpha", "beta", "gamma", "delta", "kappa", "sigma"]


descriptions = st.builds(
    lambda i, props: EntityDescription(
        f"http://e/{i}",
        {"p": [" ".join(sorted(props))]} if props else {"q": ["solo"]},
    ),
    st.integers(0, 9),
    st.sets(st.sampled_from(TOKENS), max_size=4),
)


def _merged_collection(arrivals: list[EntityDescription]) -> EntityCollection:
    """The final corpus the batch pipeline would load: merge by URI."""
    collection = EntityCollection(name="stream")
    for description in arrivals:
        collection.add(description.copy())
    return collection


def _streamed(arrivals: list[EntityDescription]) -> StreamResolver:
    resolver = StreamResolver()
    for description in arrivals:
        resolver.ingest(description.copy())
    return resolver


def _assert_equivalent(resolver: StreamResolver, collection: EntityCollection):
    batch = TokenBlocking().build(collection)
    snapshot = resolver.index.snapshot()
    assert snapshot.keys() == batch.keys()
    for key in batch.keys():
        assert snapshot[key].entities1 == batch[key].entities1
    reference = oracle.pair_statistics(batch)
    assert resolver.pairs.as_reference_stats() == reference


@settings(max_examples=60, deadline=None)
@given(st.lists(descriptions, min_size=1, max_size=14))
def test_any_arrival_order_matches_batch(arrivals):
    """Shuffled, interleaved, whatever: stream state == batch state."""
    _assert_equivalent(_streamed(arrivals), _merged_collection(arrivals))


@settings(max_examples=40, deadline=None)
@given(st.lists(descriptions, min_size=1, max_size=8), st.data())
def test_duplicate_inserts_are_idempotent(arrivals, data):
    """Re-inserting any prefix of the stream changes nothing."""
    resolver = _streamed(arrivals)
    before = resolver.pairs.as_reference_stats()
    duplicates = data.draw(
        st.lists(st.sampled_from(arrivals), max_size=len(arrivals))
    )
    for description in duplicates:
        resolver.ingest(description.copy())
    assert resolver.pairs.as_reference_stats() == before
    _assert_equivalent(resolver, _merged_collection(arrivals))


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.sampled_from(TOKENS), min_size=2, max_size=5),
    st.lists(descriptions, min_size=1, max_size=8),
    st.integers(1, 4),
)
def test_attribute_trickle_merges_like_batch(tokens, others, split):
    """One entity arriving in pieces equals that entity arriving whole.

    This is the merge-straggler path: a late piece can grant an entity a
    blocking key that younger entities already claimed, forcing the lazy
    posting re-sort to restore batch (arrival-rank) member order.
    """
    token_list = sorted(tokens)
    pieces = [
        EntityDescription(
            "http://e/split", {f"p{index}": [token]}
        )
        for index, token in enumerate(token_list)
    ]
    # Stream: first piece early, remaining pieces after the other entities.
    arrivals = pieces[:split] + others + pieces[split:]
    whole = EntityDescription(
        "http://e/split",
        {f"p{index}": [token] for index, token in enumerate(token_list)},
    )
    _assert_equivalent(
        _streamed(arrivals), _merged_collection(arrivals)
    )
    # And the final corpus really is "entity arrived whole".
    merged = _merged_collection(arrivals)
    assert merged["http://e/split"] == whole


stream_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.integers(0, 7),
            st.sets(st.sampled_from(TOKENS), min_size=1, max_size=5),
            st.integers(0, 1),
        ),
        st.tuples(st.just("delete"), st.integers(0, 7)),
    ),
    min_size=1,
    max_size=24,
)


#: a pair sharing four keys whose ARCS terms (1/3, 1, 1, 1) sum to
#: different floats in other orders — random draws rarely find one
ORDER_SENSITIVE = [
    ("insert", 0, {"alpha"}, 0),
    ("insert", 1, {"alpha", "beta", "delta", "kappa", "sigma"}, 0),
    ("insert", 2, {"alpha", "beta", "delta", "gamma", "kappa"}, 0),
]


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.booleans(), stream_ops, st.randoms(use_true_random=False))
@example(False, False, ORDER_SENSITIVE, random.Random(0))
def test_neighbourhood_kernel_matches_per_pair_weights(
    clean_clean, survivors, ops, rng
):
    """One postings pass weighs a neighbourhood exactly like per-pair calls.

    For all six schemes, over the raw pair table and the processed
    view's survivor table, dirty and clean-clean (where ``http://e/0``
    starts posted on both sides, so a pair can share two cells in one
    block), with inserts and deletes interleaved: every live entity's
    candidates — as found, and shuffled and cut the way a shard sees its
    owned subset — get the per-pair ``weight_ids`` floats, in candidate
    order, and the order-sensitive WNP/WEP mean keeps the same
    survivors.
    """
    resolver = StreamResolver(clean_clean=clean_clean, processed_view=survivors)
    if clean_clean:
        for source in (0, 1):
            resolver.ingest(
                EntityDescription("http://e/0", {"p": ["alpha beta"]}), source
            )
    for op in ops:
        if op[0] == "insert":
            _, number, tokens, source = op
            description = EntityDescription(
                f"http://e/{number}", {"p": [" ".join(sorted(tokens))]}
            )
            resolver.ingest(description, source if clean_clean else 0)
        else:
            resolver.delete(f"http://e/{op[1]}")
    table = resolver.view_pairs if survivors else resolver.pairs
    blocks = resolver.view if survivors else resolver.index
    uris = resolver.store.interner.uri_table()
    for entity_id, scheme in itertools.product(
        resolver.index.entity_ids(), SCHEME_NAMES
    ):
        found = blocks.partners_of(entity_id)
        owned = rng.sample(found, rng.randint(0, len(found)))
        for candidates in (found, owned):
            _assert_kernel_matches(table, uris, entity_id, candidates, scheme)


def _assert_kernel_matches(table, uris, entity_id, candidates, scheme):
    uri_q = uris[entity_id]
    expected = {}
    for candidate_id in candidates:
        if uris[candidate_id] < uri_q:
            pair = (candidate_id, entity_id)
        else:
            pair = (entity_id, candidate_id)
        expected[candidate_id] = table.weight_ids(scheme, *pair)
    weights = weigh_candidates(table, uris, uri_q, entity_id, candidates, scheme)
    assert list(weights.items()) == list(expected.items())
    for pruner in ("WNP", "WEP"):
        assert prune_neighbourhood(
            weights, pruner, uris, table.entities_placed, table.total_assignments
        ) == prune_neighbourhood(
            expected, pruner, uris, table.entities_placed, table.total_assignments
        )
