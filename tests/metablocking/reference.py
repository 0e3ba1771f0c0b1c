"""A small, readable oracle for the meta-blocking stages.

Production meta-blocking has one formulation: int-ID pair tables,
array weights and vectorized pruning.  This module restates each stage
the plain way — string-tuple pair statistics, one scalar weight per
pair, adjacency-dict pruning — so the equivalence suites can check the
production path against something obviously correct.

The weights are built from the scalar kernels of
:mod:`repro.metablocking.scheme_defs`, with the canonical argument
order (the endpoint whose URI sorts first comes first), and every
float sum runs in the comparison enumeration order: blocks in
insertion order, nested pair order inside each block.  Under those two
rules the oracle's floats equal the production path's bit for bit.
"""

from __future__ import annotations

import heapq
import math

from repro.blocking.block import BlockCollection
from repro.metablocking import scheme_defs
from repro.metablocking.graph import WeightedEdge

Pair = tuple[str, str]


# -- pair statistics ----------------------------------------------------------


def pair_statistics(blocks: BlockCollection) -> dict[Pair, tuple[int, float]]:
    """Per-pair ``(common blocks, ARCS sum)``, in first-seen order."""
    stats: dict[Pair, tuple[int, float]] = {}
    for block in blocks:
        cardinality = block.cardinality()
        if cardinality == 0:
            continue
        contribution = 1.0 / cardinality
        for pair in block.comparisons():
            common, arcs = stats.get(pair, (0, 0.0))
            stats[pair] = (common + 1, arcs + contribution)
    return stats


# -- weighting ----------------------------------------------------------------


def weights(scheme_name: str, blocks: BlockCollection) -> dict[Pair, float]:
    """Pair → weight under *scheme_name*, one scalar kernel call per pair."""
    stats = pair_statistics(blocks)
    total_blocks = max(len(blocks), 1)
    placements = {uri: len(keys) for uri, keys in blocks.entity_index().items()}
    edge_count = max(len(stats), 1)
    degrees: dict[str, int] = {}
    for left, right in stats:
        degrees[left] = degrees.get(left, 0) + 1
        degrees[right] = degrees.get(right, 0) + 1

    def jaccard(a: str, b: str, common: int) -> float:
        union = scheme_defs.js_union(placements.get(a, 0), placements.get(b, 0), common)
        return scheme_defs.js_weight(common, union)

    def weight(a: str, b: str, common: int, arcs: float) -> float:
        name = scheme_name.upper()
        if name == "CBS":
            return scheme_defs.cbs_weight(common)
        if name == "ECBS":
            return scheme_defs.factor_product(
                common,
                scheme_defs.ecbs_log_factor(total_blocks, placements.get(a, 1)),
                scheme_defs.ecbs_log_factor(total_blocks, placements.get(b, 1)),
            )
        if name == "JS":
            return jaccard(a, b, common)
        if name == "EJS":
            return scheme_defs.factor_product(
                jaccard(a, b, common),
                scheme_defs.ejs_log_factor(edge_count, degrees.get(a, 1)),
                scheme_defs.ejs_log_factor(edge_count, degrees.get(b, 1)),
            )
        if name == "ARCS":
            return scheme_defs.arcs_weight(arcs)
        if name == "X2":
            return scheme_defs.chi_square_statistic(
                common, placements.get(a, 0), placements.get(b, 0), total_blocks
            )
        raise KeyError(scheme_name)

    return {
        pair: weight(pair[0], pair[1], common, arcs)
        for pair, (common, arcs) in stats.items()
    }


# -- pruning ------------------------------------------------------------------


def _ranked(edges) -> list[WeightedEdge]:
    """Weight-descending, pair-ascending, as :class:`WeightedEdge` rows."""
    ordered = sorted(edges, key=lambda item: (-item[1], item[0]))
    return [WeightedEdge(pair[0], pair[1], weight) for pair, weight in ordered]


def _adjacency(edges: dict[Pair, float]) -> dict[str, list[tuple[str, float]]]:
    """Node → (neighbour, weight) list; each edge appended on both ends."""
    adjacency: dict[str, list[tuple[str, float]]] = {}
    for (left, right), weight in edges.items():
        adjacency.setdefault(left, []).append((right, weight))
        adjacency.setdefault(right, []).append((left, weight))
    return adjacency


def _vote(edges: dict[Pair, float], keeps, required_votes: int) -> list[WeightedEdge]:
    """Edges kept by at least *required_votes* endpoints (1=union, 2=both)."""
    survivors = [
        (pair, weight)
        for pair, weight in edges.items()
        if keeps(pair[0], pair[1], weight) + keeps(pair[1], pair[0], weight)
        >= required_votes
    ]
    return _ranked(survivors)


def wep(edges: dict[Pair, float]) -> list[WeightedEdge]:
    """Keep edges at or above the global mean weight."""
    if not edges:
        return []
    threshold = sum(edges.values()) / len(edges)
    return _ranked((pair, w) for pair, w in edges.items() if w >= threshold)


def cep(edges: dict[Pair, float], k: int) -> list[WeightedEdge]:
    """Keep the globally top-*k* edges."""
    return _ranked(edges.items())[:k]


def wnp(edges: dict[Pair, float], required_votes: int = 1) -> list[WeightedEdge]:
    """Per node, keep edges at or above the neighbourhood's mean weight."""
    threshold = {
        node: sum(w for _, w in neighbors) / len(neighbors)
        for node, neighbors in _adjacency(edges).items()
    }
    return _vote(
        edges, lambda node, _other, w: w >= threshold[node], required_votes
    )


def cnp(edges: dict[Pair, float], k: int, required_votes: int = 1) -> list[WeightedEdge]:
    """Per node, keep the top-*k* edges (weight desc, neighbour URI asc)."""
    kept = {
        node: {
            other
            for other, _ in heapq.nsmallest(k, neighbors, key=lambda nw: (-nw[1], nw[0]))
        }
        for node, neighbors in _adjacency(edges).items()
    }
    return _vote(edges, lambda node, other, _w: other in kept[node], required_votes)


def prune(pruner_name: str, blocks: BlockCollection, edges: dict[Pair, float]):
    """Survivors of the default-parameter pruner *pruner_name*."""
    assignments = blocks.total_assignments()
    cep_k = max(1, assignments // 2)
    cnp_k = max(1, math.ceil(assignments / max(blocks.entity_count(), 1)) - 1)
    pruners = {
        "WEP": lambda: wep(edges),
        "CEP": lambda: cep(edges, cep_k),
        "WNP": lambda: wnp(edges),
        "ReciprocalWNP": lambda: wnp(edges, required_votes=2),
        "CNP": lambda: cnp(edges, cnp_k),
        "ReciprocalCNP": lambda: cnp(edges, cnp_k, required_votes=2),
    }
    return pruners[pruner_name]()
