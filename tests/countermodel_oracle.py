"""The hand-written Section VIII.E reverse construction, kept as a test oracle.

``repro.rainworm.countermodel.reverse_construction`` runs each round as
stamp-prefix queries on the graph's ``AtomIndex``.  This module keeps the
direct definition it replaced: copy the graph at the start of every round,
walk every ordered vertex pair, and test conditions ♠ (a right-hand witness
exists) and ♥ (no left-hand witness exists) by scanning the edge lists.  It
is O(rounds · rules · V² · E), so tests only run it on small machines.
"""

from __future__ import annotations

import itertools

from repro.greengraph.graph import GreenGraph
from repro.greengraph.rules import GreenGraphRuleSet, RuleKind
from repro.rainworm.countermodel import _add_left_witnesses


def _pair_match_exists(graph: GreenGraph, kind: RuleKind, labels, x, x_prime) -> bool:
    first, second = labels
    if kind is RuleKind.AND:
        targets = {edge.target for edge in graph.edges_with_label(first) if edge.source == x}
        return any(
            edge.target in targets
            for edge in graph.edges_with_label(second)
            if edge.source == x_prime
        )
    sources = {edge.source for edge in graph.edges_with_label(first) if edge.target == x}
    return any(
        edge.source in sources
        for edge in graph.edges_with_label(second)
        if edge.target == x_prime
    )


def oracle_reverse_construction(
    start: GreenGraph, rules: GreenGraphRuleSet, rounds: int
) -> GreenGraph:
    """The bounded right-to-left saturation, by full snapshot and pair scan."""
    current = start.copy(name=f"{start.name}·reverse")
    counter = itertools.count()
    for _ in range(rounds):
        snapshot = current.copy()
        vertices = sorted(snapshot.vertices(), key=repr)
        added = False
        for rule in rules:
            for x, x_prime in itertools.product(vertices, repeat=2):
                if not _pair_match_exists(snapshot, rule.kind, rule.right, x, x_prime):
                    continue
                if _pair_match_exists(snapshot, rule.kind, rule.left, x, x_prime):
                    continue
                _add_left_witnesses(current, rule, x, x_prime, counter)
                added = True
        if not added:
            break
    return current
