"""The delta-maintained pair table.

The batch :class:`~repro.metablocking.graph.PairTable` aggregates every
implied comparison of a finished block collection in one pass.  This
table maintains the same per-pair statistics — packed ``a << 32 | b``
keys, common-block counts — plus the global factors the six weighting
schemes consume (placements, active block count, edge count, node
degrees), by folding in **only the delta pairs a new entity generates**.
The index hands each touched key's opposite posting array to
:meth:`DeltaPairTable.on_cells` in one call, and the table folds it
with local lookups.

ARCS needs care: a block's reciprocal-cardinality contribution changes
retroactively each time that block grows, so eager per-pair ARCS
maintenance would cost O(pairs-in-block) per insert.  Instead ARCS is
evaluated **lazily** from the live block source.  A query weighs its
whole neighbourhood at once (MinoanER's node-centric view):
:meth:`PairStatsView.arcs_neighbourhood` walks the query entity's keys
once, in sorted order, computes ``1 / cardinality`` once per key and
adds it to a per-candidate accumulator once per comparison cell — the
same terms in the same order as the batch enumeration, so the sums are
bit-identical.  A query therefore costs O(query keys × their postings),
not O(candidates × shared keys); inserts stay O(delta), with **no
global rebuild**.  :meth:`PairStatsView.arcs_of` keeps the per-pair
form of the same sum as the reference for single-pair evaluation.
"""

from __future__ import annotations

from repro.metablocking import scheme_defs
from repro.model.interner import PAIR_MASK, PAIR_SHIFT, pack_pair
from repro.stream.index import DeltaConsumer, IncrementalBlockIndex


class PairStatsView:
    """Scheme evaluation over maintained per-pair + global statistics.

    The six weighting schemes are pure functions of ``(common, arcs)``
    plus a handful of global factors; this mixin evaluates them through
    the scalar kernels of :mod:`repro.metablocking.scheme_defs`, so
    every incrementally-maintained statistics table — the raw
    :class:`DeltaPairTable` and the processed-view
    :class:`~repro.stream.processed_view.SurvivorPairTable` — evaluates
    them identically.  Subclasses provide:

    * :meth:`common_of` — the per-pair common-block count;
    * :meth:`block_source` — the live blocks ARCS is read from: an
      object with ``two_sided``, ``keys_of(entity_id)`` (key → side
      bitmask), ``postings(key)`` (the per-side member collections) and
      ``cardinality_of(key)``;
    * ``placements`` (entity id → block placements), ``degrees``
      (entity id → distinct partners), ``active_blocks`` and
      ``edge_count`` — the global factors;
    * :meth:`interner` — the URI ↔ id mapping behind :meth:`weight`.

    Those kernels are the ones the batch array schemes of
    :mod:`repro.metablocking.weighting` apply elementwise (float products
    associate left-to-right with the lexicographically smaller URI
    first), so the results equal what a freshly built batch graph over
    the subclass's block universe would assign.
    """

    __slots__ = ()

    # -- subclass contract ---------------------------------------------------

    placements: dict[int, int]
    degrees: dict[int, int]
    active_blocks: int
    edge_count: int

    def common_of(self, id_a: int, id_b: int) -> int:
        """Common-block count of the pair (0 when never co-blocked)."""
        raise NotImplementedError

    def block_source(self):
        """The live block index or view the ARCS sums are read from."""
        raise NotImplementedError

    def interner(self):
        """The URI ↔ dense-id mapping of the underlying store."""
        raise NotImplementedError

    # -- lazy ARCS -----------------------------------------------------------

    def arcs_of(self, id_a: int, id_b: int) -> float:
        """Lazy ARCS sum of one pair, bit-identical to the batch path.

        The batch reference walks blocks in sorted-key order and adds
        ``1 / cardinality`` once per comparison cell; this walks the
        pair's shared keys in the same order, reading each block's
        *current* cardinality — identical terms, identical order,
        identical floats.  The per-pair reference behind :meth:`weight`
        and :meth:`as_reference_stats`; queries use
        :meth:`arcs_neighbourhood`.
        """
        if id_a == id_b:
            return 0.0
        blocks = self.block_source()
        keys_a = blocks.keys_of(id_a)
        keys_b = blocks.keys_of(id_b)
        if len(keys_b) < len(keys_a):
            shared = [key for key in keys_b if key in keys_a]
        else:
            shared = [key for key in keys_a if key in keys_b]
        two_sided = blocks.two_sided
        arcs = 0.0
        for key in sorted(shared):
            cardinality = blocks.cardinality_of(key)
            if not cardinality:
                continue
            contribution = 1.0 / cardinality
            if two_sided:
                # One cell per (side-0 endpoint, side-1 endpoint)
                # orientation: two when both sit on both sides.
                mask_a, mask_b = keys_a[key], keys_b[key]
                if mask_a & 1 and mask_b & 2:
                    arcs += contribution
                if mask_b & 1 and mask_a & 2:
                    arcs += contribution
            else:
                arcs += contribution
        return arcs

    def arcs_neighbourhood(
        self, entity_id: int, candidate_ids
    ) -> dict[int, float]:
        """ARCS of every (entity, candidate) pair in one postings pass.

        Walks the entity's keys once, in sorted order, computing
        ``1 / cardinality`` once per key and adding it to a candidate's
        accumulator once per comparison cell: a candidate on the
        opposite side of each side the entity occupies gets one add, so
        one posted on both sides can get two.  Every candidate's sum
        therefore has exactly :meth:`arcs_of`'s terms in its order,
        starting from ``0.0`` — bit-identical floats.  The result
        iterates in *candidate_ids* order (a mean over its values is
        order-sensitive).

        Raises:
            ValueError: when *entity_id* is among the candidates.
        """
        arcs = dict.fromkeys(candidate_ids, 0.0)
        if entity_id in arcs:
            raise ValueError("an entity is not its own candidate")
        if not arcs:
            return arcs
        blocks = self.block_source()
        keys = blocks.keys_of(entity_id)
        two_sided = blocks.two_sided
        for key in sorted(keys):
            cardinality = blocks.cardinality_of(key)
            if not cardinality:
                continue
            contribution = 1.0 / cardinality
            side0, side1 = blocks.postings(key)
            if two_sided:
                mask = keys[key]
                walks = (
                    (side1, side0) if mask == 3 else (side1,) if mask & 1 else (side0,)
                )
            else:
                walks = (side0,)
            for members in walks:
                for partner in members:
                    if partner in arcs:
                        arcs[partner] += contribution
        return arcs

    # -- scheme evaluation ---------------------------------------------------

    def stats_of(self, id_a: int, id_b: int) -> tuple[int, float]:
        """(common, arcs) of the pair — the weighting schemes' inputs."""
        return self.common_of(id_a, id_b), self.arcs_of(id_a, id_b)

    def weight(self, scheme_name: str, uri_a: str, uri_b: str) -> float:
        """Edge weight of a pair under *scheme_name*, batch-identical.

        Raises:
            KeyError: for unknown scheme or unknown URIs.
        """
        interner = self.interner()
        if uri_b < uri_a:
            uri_a, uri_b = uri_b, uri_a
        return self.weight_ids(
            scheme_name, interner.id_of(uri_a), interner.id_of(uri_b)
        )

    def weight_ids(self, scheme_name: str, id_a: int, id_b: int) -> float:
        """Like :meth:`weight` over ids; ``id_a`` must be the endpoint
        whose URI sorts first (the bit-identity argument order)."""
        name = scheme_name.upper()
        common = self.common_of(id_a, id_b)
        if name == "CBS":
            return scheme_defs.cbs_weight(common)
        if name == "ARCS":
            return scheme_defs.arcs_weight(self.arcs_of(id_a, id_b))
        placements = self.placements
        if name == "ECBS":
            total = max(self.active_blocks, 1)
            return scheme_defs.factor_product(
                common,
                scheme_defs.ecbs_log_factor(total, placements.get(id_a, 1)),
                scheme_defs.ecbs_log_factor(total, placements.get(id_b, 1)),
            )
        in_a = placements.get(id_a, 0)
        in_b = placements.get(id_b, 0)
        if name in ("JS", "EJS"):
            js = scheme_defs.js_weight(common, scheme_defs.js_union(in_a, in_b, common))
            if name == "JS":
                return js
            edge_count = max(self.edge_count, 1)
            return scheme_defs.factor_product(
                js,
                scheme_defs.ejs_log_factor(edge_count, self.degrees.get(id_a, 0)),
                scheme_defs.ejs_log_factor(edge_count, self.degrees.get(id_b, 0)),
            )
        if name == "X2":
            return scheme_defs.chi_square_statistic(
                common, in_a, in_b, max(self.active_blocks, 1)
            )
        raise KeyError(
            f"unknown weighting scheme {scheme_name!r}; "
            f"choose from {scheme_defs.SCHEME_NAMES}"
        )

    def as_reference_stats(self) -> dict[tuple[str, str], tuple[int, float]]:
        """URI-keyed (common, arcs) map, comparable to the batch oracle.

        Matches the batch pair table of the subclass's block universe
        (``pair_table_for(blocks)``, keyed by its ``pairs``) entry for
        entry.  Meant for the equivalence suite and for audits; cost is
        O(pairs).
        """
        uris = self.interner().uri_table()
        out: dict[tuple[str, str], tuple[int, float]] = {}
        for key, count in self._common_items():
            id_a, id_b = key >> PAIR_SHIFT, key & PAIR_MASK
            uri_a, uri_b = uris[id_a], uris[id_b]
            if uri_b < uri_a:
                uri_a, uri_b = uri_b, uri_a
            out[(uri_a, uri_b)] = (count, self.arcs_of(id_a, id_b))
        return out

    def _common_items(self):
        """Iterate ``(packed pair, common)`` entries with ``common > 0``."""
        raise NotImplementedError


class DeltaPairTable(PairStatsView, DeltaConsumer):
    """Packed-pair statistics maintained under inserts and deletes.

    Every removal hook is the exact negation of its insert counterpart
    (1→0 transitions unwind edges, degrees and placement counts), so
    the table always equals a fresh build over the live corpus.

    Args:
        index: the incremental block index to attach to.  Attach before
            the first insert — deltas are not replayed.
    """

    __slots__ = (
        "index",
        "common",
        "placements",
        "degrees",
        "active_blocks",
        "total_assignments",
        "entities_placed",
        "edge_count",
    )

    def __init__(self, index: IncrementalBlockIndex) -> None:
        self.index = index
        #: packed pair → number of common blocks (counting repeated cells)
        self.common: dict[int, int] = {}
        #: entity id → placements in comparison-bearing blocks
        self.placements: dict[int, int] = {}
        #: entity id → distinct comparison partners (EJS degrees)
        self.degrees: dict[int, int] = {}
        #: number of comparison-bearing blocks
        self.active_blocks = 0
        #: total placements (the CEP/CNP budget numerator)
        self.total_assignments = 0
        #: entities with at least one placement
        self.entities_placed = 0
        #: number of distinct pairs (the blocking graph's edge count)
        self.edge_count = 0
        index.attach(self)

    # -- delta hooks ---------------------------------------------------------

    def on_cells(self, entity_id: int, partners) -> None:
        common = self.common
        degrees = self.degrees
        high = entity_id << PAIR_SHIFT
        new_edges = 0
        for partner in partners:
            if partner == entity_id:
                continue
            key = (
                (partner << PAIR_SHIFT) | entity_id
                if partner < entity_id
                else high | partner
            )
            count = common.get(key, 0)
            if not count:
                new_edges += 1
                degrees[entity_id] = degrees.get(entity_id, 0) + 1
                degrees[partner] = degrees.get(partner, 0) + 1
            common[key] = count + 1
        self.edge_count += new_edges

    def on_placement(self, entity_id: int) -> None:
        count = self.placements.get(entity_id, 0)
        if count == 0:
            self.entities_placed += 1
        self.placements[entity_id] = count + 1
        self.total_assignments += 1

    def on_block_activated(self, key: str) -> None:
        self.active_blocks += 1

    def on_cells_removed(self, entity_id: int, partners) -> None:
        common = self.common
        degrees = self.degrees
        high = entity_id << PAIR_SHIFT
        lost_edges = 0
        for partner in partners:
            if partner == entity_id:
                continue
            key = (
                (partner << PAIR_SHIFT) | entity_id
                if partner < entity_id
                else high | partner
            )
            count = common[key] - 1
            if count:
                common[key] = count
                continue
            del common[key]
            lost_edges += 1
            remaining = degrees[partner] - 1
            if remaining:
                degrees[partner] = remaining
            else:
                del degrees[partner]
        if lost_edges:
            self.edge_count -= lost_edges
            remaining = degrees[entity_id] - lost_edges
            if remaining:
                degrees[entity_id] = remaining
            else:
                del degrees[entity_id]

    def on_placement_removed(self, entity_id: int) -> None:
        count = self.placements[entity_id] - 1
        self.total_assignments -= 1
        if count == 0:
            del self.placements[entity_id]
            self.entities_placed -= 1
        else:
            self.placements[entity_id] = count

    def on_block_deactivated(self, key: str) -> None:
        self.active_blocks -= 1

    # -- statistics ----------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct pairs tracked."""
        return len(self.common)

    def interner(self):
        """The store's URI ↔ dense-id mapping."""
        return self.index.store.interner

    def block_source(self) -> IncrementalBlockIndex:
        """The raw index: ARCS reads every live block."""
        return self.index

    def _common_items(self):
        return self.common.items()

    def common_of(self, id_a: int, id_b: int) -> int:
        """Common-block count of the pair (0 when never co-blocked)."""
        if id_a == id_b:
            return 0
        return self.common.get(pack_pair(id_a, id_b), 0)
