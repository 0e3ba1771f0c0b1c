"""Edge-weighting schemes for the blocking graph.

Each scheme turns a pair's co-occurrence statistics into a scalar weight —
a proxy for match likelihood computed *without* reading the descriptions'
values (that is the point: weights are nearly free, comparisons are not).
The five canonical schemes of the meta-blocking literature (and of the
parallel meta-blocking paper [4]) are implemented:

==========  ==================================================================
``CBS``     Common Blocks Scheme — raw number of shared blocks.
``ECBS``    Enhanced CBS — CBS discounted by how many blocks each entity
            appears in: ``CBS · log(B/|B_i|) · log(B/|B_j|)``.
``JS``      Jaccard Scheme — shared blocks over the union of both entities'
            blocks.
``EJS``     Enhanced JS — JS boosted by the (inverse) degrees:
            ``JS · log(E/deg_i) · log(E/deg_j)`` with E the edge count.
``ARCS``    Aggregate Reciprocal Comparisons — ``Σ 1/‖b‖`` over common
            blocks b: small (selective) blocks count more.
==========  ==================================================================

A scheme implements one method, :meth:`~WeightingScheme.weights`: given
the block collection and its :class:`~repro.metablocking.graph.PairTable`
(one row per distinct comparison), return the float64 weight of every
row.  Per-entity factors — block counts, degrees and their log
discounts — are computed once per entity, then gathered per edge as
array expressions.  ``ids_a`` holds the endpoint whose URI sorts first,
and float products associate left-to-right, so that argument order is
part of the bit-identity contract.

The formulas themselves live in :mod:`repro.metablocking.scheme_defs`
(shared with the streaming tables and the SQL compiler); the classes
here only gather the per-entity factors those kernels consume.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as _np

from repro.blocking.block import BlockCollection
from repro.metablocking import scheme_defs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metablocking.graph import PairTable


class WeightingScheme(ABC):
    """Base class: per-pair weight from co-occurrence statistics."""

    #: short name used in experiment tables (overridden per scheme)
    name = "scheme"

    @abstractmethod
    def weights(self, blocks: BlockCollection, table: "PairTable") -> _np.ndarray:
        """Weights of every row of *table*, as a float64 array.

        Args:
            blocks: the block collection the table was aggregated from
                (for per-entity statistics such as placement counts).
            table: the collection's pair statistics — endpoint ids
                (``ids_a`` sorting first by URI), common-block counts and
                ARCS sums.  Never empty.
        """


def _placement_counts(blocks: BlockCollection) -> _np.ndarray:
    """Per-entity placement counts as an int64 array, indexed by id."""
    return _np.bincount(blocks.id_arrays().sides, minlength=len(blocks.interner()))


class CBS(WeightingScheme):
    """Common Blocks Scheme: ``w = |common blocks|``."""

    name = "CBS"

    def weights(self, blocks, table):
        return scheme_defs.cbs_weights(table.common)


class ECBS(WeightingScheme):
    """Enhanced Common Blocks Scheme.

    ``w = CBS · log(B / |B_a|) · log(B / |B_b|)`` where ``B`` is the total
    block count and ``|B_x|`` the number of blocks containing ``x`` — an
    IDF-style discount for promiscuous entities.
    """

    name = "ECBS"

    def weights(self, blocks, table):
        total = max(len(blocks), 1)
        # math.log per entity (np.log can differ in the last ulp), still
        # once per entity rather than once per edge endpoint.
        factor = _np.array(
            scheme_defs.ecbs_log_factors(total, _placement_counts(blocks).tolist())
        )
        return scheme_defs.factor_product(
            table.common, factor[table.ids_a], factor[table.ids_b]
        )


class JS(WeightingScheme):
    """Jaccard Scheme: shared blocks over union of blocks."""

    name = "JS"

    def weights(self, blocks, table):
        counts = _placement_counts(blocks)
        union = scheme_defs.js_union(counts[table.ids_a], counts[table.ids_b], table.common)
        return scheme_defs.js_weights(table.common, union)


class EJS(WeightingScheme):
    """Enhanced Jaccard Scheme.

    ``w = JS · log(E / deg_a) · log(E / deg_b)`` with ``E`` the number of
    distinct edges in the blocking graph and ``deg_x`` the number of
    distinct comparisons entity ``x`` participates in.
    """

    name = "EJS"

    def weights(self, blocks, table):
        js = JS().weights(blocks, table)
        entities = len(blocks.interner())
        degrees = _np.bincount(table.ids_a, minlength=entities) + _np.bincount(
            table.ids_b, minlength=entities
        )
        factor = _np.array(
            scheme_defs.ejs_log_factors(max(len(table.common), 1), degrees.tolist())
        )
        return scheme_defs.factor_product(js, factor[table.ids_a], factor[table.ids_b])


class ARCS(WeightingScheme):
    """Aggregate Reciprocal Comparisons Scheme: ``w = Σ_b 1/‖b‖``.

    Membership in a two-description block is maximal evidence (weight 1
    from that block); membership in a thousand-pair block adds almost
    nothing.  ARCS is MinoanER's default scheduler signal (ablated in E4).
    """

    name = "ARCS"

    def weights(self, blocks, table):
        return scheme_defs.arcs_weight(table.arcs)


class ChiSquare(WeightingScheme):
    """Pearson's χ² scheme (the BLAST signal of Simonini et al.).

    Tests how far the observed co-occurrence count of a pair deviates from
    what independence of the two entities' block memberships would
    predict.  With ``B`` total blocks, ``|B_a|``/``|B_b|`` per-entity
    block counts and ``O`` observed common blocks, the expectation under
    independence is ``E = |B_a|·|B_b|/B`` and the statistic aggregates the
    (O−E)²/E terms of the 2×2 contingency table.  Strongly co-occurring
    pairs score orders of magnitude above chance-level ones, making χ² a
    sharp pruning signal on skewed corpora.
    """

    name = "X2"

    def weights(self, blocks, table):
        counts = _placement_counts(blocks)
        return scheme_defs.chi_square_weights(
            table.common, counts[table.ids_a], counts[table.ids_b], max(len(blocks), 1)
        )


#: registry used by experiment sweeps
SCHEMES: dict[str, type[WeightingScheme]] = {
    cls.name: cls for cls in (CBS, ECBS, JS, EJS, ARCS, ChiSquare)
}


def make_scheme(name: str) -> WeightingScheme:
    """Instantiate a weighting scheme by table name (e.g. ``"ARCS"``).

    Soft-deprecated shim: ``repro.api.registry.create("weighting", name)``
    is the registry-backed path with parameter validation; this helper
    remains for the callers wired before the registry existed.

    Raises:
        KeyError: for unknown scheme names.
    """
    try:
        return SCHEMES[name.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown weighting scheme {name!r}; choose from {sorted(SCHEMES)}"
        ) from None
