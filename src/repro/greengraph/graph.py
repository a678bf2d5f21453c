"""Green graphs: the structures of Abstraction Level 2.

A *green graph* (Section VI of the paper) is a structure over the signature
with one binary relation ``H(I^I, _, _)`` per label ``I ∈ S̄``.  We realise
the relation for label ``ℓ`` as the predicate ``H[ℓ]``; a green graph is a
directed multigraph whose edges carry labels.

The distinguished constants ``a`` and ``b`` and the starting graph ``DI``
(two vertices, one ∅-labelled edge from ``a`` to ``b``) are provided here,
as is the 1-2 pattern test of Definition 11.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.atoms import Atom
from ..core.structure import Structure
from ..core.terms import Constant
from ..query.evaluator import find_homomorphism
from .labels import EMPTY, Label, ONE, TWO

EDGE_PREDICATE_PREFIX = "H["
EDGE_PREDICATE_SUFFIX = "]"

#: The two constants of the starting graph DI (Section VII, Step 1).
VERTEX_A = Constant("a")
VERTEX_B = Constant("b")


def edge_predicate(label: Label | str) -> str:
    """The predicate name realising the relation ``H(label, _, _)``."""
    name = label.name if isinstance(label, Label) else str(label)
    return f"{EDGE_PREDICATE_PREFIX}{name}{EDGE_PREDICATE_SUFFIX}"


def label_of_predicate(predicate: str) -> Optional[str]:
    """The label name encoded by an edge predicate, or ``None``."""
    if predicate.startswith(EDGE_PREDICATE_PREFIX) and predicate.endswith(
        EDGE_PREDICATE_SUFFIX
    ):
        return predicate[len(EDGE_PREDICATE_PREFIX):-len(EDGE_PREDICATE_SUFFIX)]
    return None


@dataclass(frozen=True, order=True)
class Edge:
    """A labelled directed edge of a green graph."""

    label_name: str
    source: object
    target: object

    def as_atom(self) -> Atom:
        """The edge as an atom over the green graph signature."""
        return Atom(edge_predicate(self.label_name), (self.source, self.target))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.source} --{self.label_name}--> {self.target}"


class GreenGraph:
    """A green graph: labelled directed edges over a vertex set.

    The class wraps a :class:`~repro.core.structure.Structure` so that the
    generic chase / homomorphism machinery can run on it directly, while
    offering a graph-flavoured API (edges, out/in-neighbourhoods, labels).
    """

    def __init__(
        self,
        edges: Iterable[Edge | Tuple[object, object, object]] = (),
        labels: Iterable[Label] = (),
        name: str = "",
    ) -> None:
        self.name = name
        self._labels: Dict[str, Label] = {}
        self._structure = Structure(name=name or "green-graph")
        self._structure.add_element(VERTEX_A)
        self._structure.add_element(VERTEX_B)
        for item in labels:
            self.register_label(item)
        for edge in edges:
            if isinstance(edge, Edge):
                self.add_edge(edge.label_name, edge.source, edge.target)
            else:
                label, source, target = edge
                self.add_edge(label, source, target)

    # ------------------------------------------------------------------
    # Labels
    # ------------------------------------------------------------------
    def register_label(self, label: Label) -> None:
        """Record a label object (its parity is needed by the parity glasses)."""
        existing = self._labels.get(label.name)
        if existing is not None and existing.parity is not label.parity:
            raise ValueError(
                f"label {label.name!r} already registered with parity {existing.parity}"
            )
        self._labels[label.name] = label

    def known_label(self, name: str) -> Optional[Label]:
        """The registered :class:`Label` for *name*, if any."""
        return self._labels.get(name)

    def labels_used(self) -> FrozenSet[str]:
        """Names of all labels occurring on at least one edge."""
        result: Set[str] = set()
        for atom in self._structure.atoms():
            label = label_of_predicate(atom.predicate)
            if label is not None:
                result.add(label)
        return frozenset(result)

    # ------------------------------------------------------------------
    # Edges and vertices
    # ------------------------------------------------------------------
    def add_edge(self, label: Label | str, source: object, target: object) -> bool:
        """Add the edge ``source --label--> target``; True when new."""
        if isinstance(label, Label):
            self.register_label(label)
            name = label.name
        else:
            name = str(label)
        return self._structure.add_fact(edge_predicate(name), source, target)

    def add_vertex(self, vertex: object) -> bool:
        """Add an isolated vertex."""
        return self._structure.add_element(vertex)

    def has_edge(self, label: Label | str, source: object, target: object) -> bool:
        """True when the labelled edge is present."""
        name = label.name if isinstance(label, Label) else str(label)
        return Atom(edge_predicate(name), (source, target)) in self._structure

    def edges(self) -> Iterator[Edge]:
        """All edges of the graph."""
        for atom in self._structure.atoms():
            label = label_of_predicate(atom.predicate)
            if label is not None and len(atom.args) == 2:
                yield Edge(label, atom.args[0], atom.args[1])

    def edges_with_label(self, label: Label | str) -> Iterator[Edge]:
        """All edges carrying *label*."""
        name = label.name if isinstance(label, Label) else str(label)
        for atom in self._structure.atoms_with_predicate(edge_predicate(name)):
            yield Edge(name, atom.args[0], atom.args[1])

    def vertices(self) -> FrozenSet[object]:
        """All vertices (the structure domain)."""
        return self._structure.domain()

    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._structure)

    def __len__(self) -> int:
        return self.edge_count()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "GreenGraph"
        return f"<{label}: {len(self.vertices())} vertices, {self.edge_count()} edges>"

    # ------------------------------------------------------------------
    # Bridging to the generic Structure world
    # ------------------------------------------------------------------
    def structure(self) -> Structure:
        """The underlying structure (shared, not copied)."""
        return self._structure

    def copy(self, name: str = "") -> "GreenGraph":
        """A deep copy."""
        clone = GreenGraph(name=name or self.name)
        clone._labels = dict(self._labels)
        clone._structure = self._structure.copy(name=name or self.name)
        return clone

    @staticmethod
    def from_structure(
        structure: Structure, labels: Iterable[Label] = (), name: str = ""
    ) -> "GreenGraph":
        """Wrap a structure over the green graph signature as a GreenGraph."""
        graph = GreenGraph(labels=labels, name=name or structure.name)
        for element in structure.domain():
            graph.add_vertex(element)
        for atom in structure.atoms():
            label = label_of_predicate(atom.predicate)
            if label is None:
                raise ValueError(
                    f"atom {atom!r} is not over the green graph signature"
                )
            graph.add_edge(label, atom.args[0], atom.args[1])
        return graph

    def union(self, other: "GreenGraph", name: str = "") -> "GreenGraph":
        """Union of two green graphs (vertices with equal identity are shared)."""
        merged = self.copy(name=name or f"{self.name}∪{other.name}")
        for label_obj in other._labels.values():
            merged.register_label(label_obj)
        for edge in other.edges():
            merged.add_edge(edge.label_name, edge.source, edge.target)
        for vertex in other.vertices():
            merged.add_vertex(vertex)
        return merged

    # ------------------------------------------------------------------
    # Patterns (Definition 11)
    # ------------------------------------------------------------------
    def contains_empty_edge(self) -> bool:
        """Does the graph contain an atom of ``H(I, _, _)`` (an ∅-labelled edge)?"""
        return any(True for _ in self.edges_with_label(EMPTY))

    def one_two_pattern(self) -> Optional[Tuple[Edge, Edge]]:
        """A 1-2 pattern, if present.

        The graph *contains a 1-2 pattern* when it has edges
        ``H(I^1, a, b)`` and ``H(I^2, a′, b)`` sharing their target vertex.
        This stays a direct two-predicate scan rather than an indexed query:
        callers probe freshly-wrapped stage snapshots exactly once, so one
        linear pass over the ONE/TWO edges beats building an index per probe.
        """
        targets_of_one: Dict[object, Edge] = {}
        for edge in self.edges_with_label(ONE):
            targets_of_one.setdefault(edge.target, edge)
        for edge in self.edges_with_label(TWO):
            if edge.target in targets_of_one:
                return targets_of_one[edge.target], edge
        return None

    def contains_one_two_pattern(self) -> bool:
        """True when the graph contains a 1-2 pattern."""
        return self.one_two_pattern() is not None

    def homomorphism_to(self, other: "GreenGraph") -> Optional[Dict[object, object]]:
        """A homomorphism of underlying structures ``self → other``, or ``None``.

        Runs on the planned index-backed evaluator; the universality /
        merged-path arguments of Section VII use this for mapping chase
        prefixes into candidate models.
        """
        return find_homomorphism(self._structure, other._structure)


def initial_graph(name: str = "DI") -> GreenGraph:
    """The graph ``DI``: vertices ``a``, ``b`` and one edge ``H∅(a, b)``."""
    graph = GreenGraph(name=name)
    graph.register_label(EMPTY)
    graph.add_edge(EMPTY, VERTEX_A, VERTEX_B)
    return graph


def alpha_beta_path(
    length: int,
    alpha: Label,
    beta0: Label,
    beta1: Label,
    prefix: str = "p",
) -> GreenGraph:
    """A standalone αβ-path of the given length (number of β-pairs).

    Through the parity glasses the path reads ``α (β1 β0)^length``; it is the
    shape of the slime trail / chase skeleton used throughout Sections VII
    and VIII.  Vertices alternate between out-degree-0 ``b``-type vertices
    and in-degree-0 ``a``-type vertices, as in Figure 1.
    """
    graph = GreenGraph(name=f"alpha-beta-path[{length}]")
    graph.register_label(alpha)
    graph.register_label(beta0)
    graph.register_label(beta1)
    b_vertices: List[object] = [f"{prefix}_b{i}" for i in range(1, length + 2)]
    a_vertices: List[object] = [f"{prefix}_a{i}" for i in range(1, length + 2)]
    graph.add_edge(alpha, VERTEX_A, b_vertices[0])
    for index in range(length):
        graph.add_edge(beta1, a_vertices[index], b_vertices[index])
        graph.add_edge(beta0, a_vertices[index], b_vertices[index + 1])
    return graph
