"""The rule set ``T∞`` and the structure of Figure 1 (Section VII, Step 1).

``T∞`` consists of three green graph rewriting rules

    (I)    ∅ &·· ∅  ]  α &·· η1
    (II)   ∅ /·· η1 ]  η0 /·· β1
    (III)  ∅ &·· η0 ]  η1 &·· β0

where ``α, β0, η0`` are even and ``β1, η1`` are odd elements of ``S``.
Starting from ``DI`` (one ∅-edge from ``a`` to ``b``) the chase applies (I)
once and then (II) and (III) alternately forever, producing the infinite
zig-zag of Figure 1 whose words are

    words(chase(T∞, DI)) = {α(β1β0)^k η1 : k ∈ N} ∪ {α(β1β0)^k β1 η0 : k ∈ N}.

This module provides the labels, the rule set, bounded constructions of the
chase, the expected word language, and the αβ-path extraction used by the
grid machinery of Step 2.
"""

from __future__ import annotations

from typing import FrozenSet, List, Set, Tuple

from ..greengraph.graph import GreenGraph, VERTEX_A, VERTEX_B, initial_graph
from ..greengraph.labels import EMPTY, Label, even, odd
from ..greengraph.parity import alpha_beta_vertex_paths, words
from ..greengraph.rules import (
    GreenGraphChase,
    GreenGraphRuleSet,
    and_rule,
    div_rule,
)

#: The five skeleton labels of ``T∞`` with the parities required by the paper.
ALPHA = even("α")
BETA0 = even("β0")
BETA1 = odd("β1")
ETA0 = even("η0")
ETA1 = odd("η1")

SKELETON_LABELS: Tuple[Label, ...] = (EMPTY, ALPHA, BETA0, BETA1, ETA0, ETA1)


def t_infinity_rules() -> GreenGraphRuleSet:
    """The rule set ``T∞`` of Section VII, Step 1."""
    return GreenGraphRuleSet(
        [
            and_rule(EMPTY, EMPTY, ALPHA, ETA1, name="T∞(I)"),
            div_rule(EMPTY, ETA1, ETA0, BETA1, name="T∞(II)"),
            and_rule(EMPTY, ETA0, ETA1, BETA0, name="T∞(III)"),
        ],
        name="T∞",
    )


def chase_t_infinity(stages: int, max_atoms: int = 50_000) -> GreenGraphChase:
    """A bounded prefix of ``chase(T∞, DI)`` (Figure 1 "in statu nascendi")."""
    return t_infinity_rules().chase(
        initial_graph(), max_stages=stages, max_atoms=max_atoms
    )


def figure1_graph(stages: int) -> GreenGraph:
    """The green graph of Figure 1 after *stages* chase stages."""
    return chase_t_infinity(stages).graph()


def expected_words(max_k: int) -> FrozenSet[Tuple[str, ...]]:
    """The word language the paper states for ``chase(T∞, DI)``, up to ``k ≤ max_k``."""
    result: Set[Tuple[str, ...]] = set()
    for k in range(max_k + 1):
        block = (BETA1.name, BETA0.name) * k
        result.add((ALPHA.name,) + block + (ETA1.name,))
        result.add((ALPHA.name,) + block + (BETA1.name, ETA0.name))
    return frozenset(result)


def observed_words(stages: int, max_length: int = 80) -> FrozenSet[Tuple[str, ...]]:
    """The words of the bounded chase prefix (through the parity glasses)."""
    return words(figure1_graph(stages), max_length=max_length)


def words_match_paper(stages: int) -> bool:
    """Do the observed words form a subset of the paper's language?

    (A bounded chase prefix realises only the ``k`` up to roughly half the
    number of stages, so subset — together with non-emptiness and growth —
    is the right check; exact-prefix checks live in the test suite.)
    """
    observed = observed_words(stages)
    expected = expected_words(stages)
    return bool(observed) and observed <= expected


def alpha_beta_paths_of_chase(stages: int, max_length: int = 200) -> List[Tuple[object, ...]]:
    """All αβ-paths of the bounded chase prefix, longest first."""
    return alpha_beta_vertex_paths(
        figure1_graph(stages), ALPHA, BETA0, BETA1, max_length=max_length
    )


def longest_alpha_beta_path_length(stages: int) -> int:
    """Number of vertices of the longest αβ-path of the bounded prefix."""
    paths = alpha_beta_paths_of_chase(stages)
    return len(paths[0]) if paths else 0


def build_two_merged_paths(
    long_length: int, short_length: int
) -> Tuple[GreenGraph, Tuple[object, ...], Tuple[object, ...]]:
    """Two αβ-paths from ``a`` of different lengths whose far ends coincide.

    This is exactly the situation of Figure 2: in a *finite* model of a rule
    set containing ``T∞`` the homomorphic image of the infinite chase must
    identify two vertices ``b_t`` and ``b_t′``, producing two αβ-paths of
    different lengths that share their start ``a`` and their endpoint.  The
    returned graph is the canonical such configuration (plus the ``DI`` edge
    and the η-edges the chase would also have, so that it can be fed back to
    the full rule set); the two vertex paths are returned alongside.
    """
    if long_length <= short_length:
        raise ValueError("the first path must be strictly longer")
    if short_length < 1:
        raise ValueError("path lengths are counted in b-vertices and must be >= 1")
    graph = initial_graph(name=f"merged-paths[{long_length},{short_length}]")
    for label in SKELETON_LABELS:
        graph.register_label(label)

    def build_path(length: int, prefix: str) -> List[object]:
        """One chase-shaped branch with *length* b-vertices (see Figure 1)."""
        path: List[object] = [VERTEX_A]
        b_vertices = [f"{prefix}_b{i}" for i in range(1, length + 1)]
        a_vertices = [f"{prefix}_a{i}" for i in range(1, length)]
        graph.add_edge(ALPHA, VERTEX_A, b_vertices[0])
        for b_vertex in b_vertices:
            graph.add_edge(ETA1, VERTEX_A, b_vertex)
        path.append(b_vertices[0])
        for index, a_vertex in enumerate(a_vertices):
            graph.add_edge(BETA1, a_vertex, b_vertices[index])
            graph.add_edge(BETA0, a_vertex, b_vertices[index + 1])
            graph.add_edge(ETA0, a_vertex, VERTEX_B)
            path.append(a_vertex)
            path.append(b_vertices[index + 1])
        return path

    long_path = build_path(long_length, "L")
    short_path = build_path(short_length, "S")
    # Identify the two far endpoints (the h(b_t) = h(b_t′) of Figure 2).
    merged = graph.structure().quotient({short_path[-1]: long_path[-1]})
    result = GreenGraph.from_structure(merged, labels=SKELETON_LABELS, name=graph.name)
    short_path = tuple(short_path[:-1]) + (long_path[-1],)
    return result, tuple(long_path), tuple(short_path)
