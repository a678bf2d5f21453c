"""Swarms: the structures of Abstraction Level 1.

Section VI of the paper: the Level-1 signature has one binary relation
``H(S, _, _)`` for every ideal spider ``S ∈ A``; a structure over this
signature is called a *swarm*.  A swarm edge ``H(S, x, y)`` abstracts a real
spider of species ``S`` with tail ``x`` and antenna ``y`` — the two vertices
of the Level-0 anatomy that are not involved in the ♣ mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..core.atoms import Atom
from ..core.structure import Structure
from ..core.terms import Constant
from ..greengraph.graph import VERTEX_A, VERTEX_B
from ..greengraph.labels import Label
from ..spiders.ideal import (
    FULL_GREEN,
    FULL_RED,
    IdealSpider,
    label_for_spider,
    spider_for_label,
)

SWARM_PREDICATE_PREFIX = "H["
SWARM_PREDICATE_SUFFIX = "]"


def swarm_predicate(species: IdealSpider) -> str:
    """The predicate name realising ``H(S, _, _)``."""
    return f"{SWARM_PREDICATE_PREFIX}{species.key()}{SWARM_PREDICATE_SUFFIX}"


def species_of_predicate(predicate: str) -> Optional[str]:
    """The spider key encoded by a swarm predicate name, or ``None``."""
    if predicate.startswith(SWARM_PREDICATE_PREFIX) and predicate.endswith(
        SWARM_PREDICATE_SUFFIX
    ):
        return predicate[len(SWARM_PREDICATE_PREFIX):-len(SWARM_PREDICATE_SUFFIX)]
    return None


@dataclass(frozen=True, order=True)
class SwarmEdge:
    """A single swarm atom ``H(S, tail, antenna)``."""

    species_key: str
    tail: object
    antenna: object

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.tail} ={self.species_key}=> {self.antenna}"


class Swarm:
    """A swarm: a labelled digraph whose labels are ideal spiders."""

    def __init__(
        self,
        edges: Iterable[Tuple[IdealSpider, object, object]] = (),
        name: str = "",
    ) -> None:
        self.name = name
        self._structure = Structure(name=name or "swarm")
        self._species: Dict[str, IdealSpider] = {}
        self._structure.add_element(VERTEX_A)
        self._structure.add_element(VERTEX_B)
        for species, tail, antenna in edges:
            self.add_edge(species, tail, antenna)

    # ------------------------------------------------------------------
    def add_edge(self, species: IdealSpider, tail: object, antenna: object) -> bool:
        """Add ``H(species, tail, antenna)``; return True when new."""
        self._species[species.key()] = species
        return self._structure.add_fact(swarm_predicate(species), tail, antenna)

    def add_vertex(self, vertex: object) -> bool:
        """Add an isolated vertex."""
        return self._structure.add_element(vertex)

    def has_edge(self, species: IdealSpider, tail: object, antenna: object) -> bool:
        """Is ``H(species, tail, antenna)`` present?"""
        return Atom(swarm_predicate(species), (tail, antenna)) in self._structure

    def edges(self) -> Iterator[SwarmEdge]:
        """All swarm edges."""
        for atom in self._structure.atoms():
            key = species_of_predicate(atom.predicate)
            if key is not None and len(atom.args) == 2:
                yield SwarmEdge(key, atom.args[0], atom.args[1])

    def edges_of_species(self, species: IdealSpider) -> Iterator[SwarmEdge]:
        """All edges labelled with *species*."""
        for atom in self._structure.atoms_with_predicate(swarm_predicate(species)):
            yield SwarmEdge(species.key(), atom.args[0], atom.args[1])

    def species_of(self, key: str) -> Optional[IdealSpider]:
        """The registered ideal spider for a key, if known."""
        return self._species.get(key)

    def species_used(self) -> FrozenSet[str]:
        """Keys of all species occurring on an edge."""
        return frozenset(edge.species_key for edge in self.edges())

    def vertices(self) -> FrozenSet[object]:
        """All vertices."""
        return self._structure.domain()

    def edge_count(self) -> int:
        """Number of edges."""
        return len(self._structure)

    def __len__(self) -> int:
        return self.edge_count()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "Swarm"
        return f"<{label}: {len(self.vertices())} vertices, {self.edge_count()} edges>"

    # ------------------------------------------------------------------
    def structure(self) -> Structure:
        """The underlying structure (shared, not copied)."""
        return self._structure

    def copy(self, name: str = "") -> "Swarm":
        """A deep copy."""
        clone = Swarm(name=name or self.name)
        clone._structure = self._structure.copy(name=name or self.name)
        clone._species = dict(self._species)
        return clone

    @staticmethod
    def from_structure(
        structure: Structure,
        species: Iterable[IdealSpider] = (),
        name: str = "",
    ) -> "Swarm":
        """Wrap a structure over the swarm signature as a :class:`Swarm`."""
        swarm = Swarm(name=name or structure.name)
        known = {item.key(): item for item in species}
        swarm._species.update(known)
        for element in structure.domain():
            swarm.add_vertex(element)
        for atom in structure.atoms():
            key = species_of_predicate(atom.predicate)
            if key is None:
                raise ValueError(f"atom {atom!r} is not over the swarm signature")
            spider = known.get(key)
            if spider is None:
                spider = _parse_species_key(key)
                swarm._species[key] = spider
            swarm._structure.add_atom(atom)
        return swarm

    # ------------------------------------------------------------------
    # Distinguished contents (Definition 11, Level 1)
    # ------------------------------------------------------------------
    def contains_green_spider(self) -> bool:
        """Does the swarm contain an atom ``H(I, _, _)`` (full green spider)?"""
        return any(True for _ in self.edges_of_species(FULL_GREEN))

    def contains_red_spider(self) -> bool:
        """Does the swarm contain an atom ``H(H, _, _)`` (full red spider)?"""
        return any(True for _ in self.edges_of_species(FULL_RED))


def _parse_species_key(key: str) -> IdealSpider:
    """Reconstruct an :class:`IdealSpider` from its canonical key string."""
    from ..greenred.coloring import Color

    body, rest = key[0], key[1:]
    color = Color.GREEN if body == "I" else Color.RED
    if not rest.startswith("^"):
        raise ValueError(f"cannot parse spider key {key!r}")
    upper_text, lower_text = rest[1:].split("_", 1)
    upper = () if upper_text == "∅" else tuple(upper_text.split(","))
    lower = () if lower_text == "∅" else tuple(lower_text.split(","))
    return IdealSpider(color, upper, lower)


def initial_swarm(name: str = "swarm-DI") -> Swarm:
    """The swarm counterpart of ``DI``: one full-green-spider edge from a to b."""
    swarm = Swarm(name=name)
    swarm.add_edge(FULL_GREEN, VERTEX_A, VERTEX_B)
    return swarm


# ----------------------------------------------------------------------
# Green graphs as swarms (the A2 ↔ S̄ bijection)
# ----------------------------------------------------------------------
def swarm_from_green_graph(graph, name: str = "") -> Swarm:
    """View a green graph as a swarm over the ``A2`` species."""
    swarm = Swarm(name=name or f"swarm({graph.name})")
    for vertex in graph.vertices():
        swarm.add_vertex(vertex)
    for edge in graph.edges():
        label = graph.known_label(edge.label_name) or Label(edge.label_name)
        swarm.add_edge(spider_for_label(label), edge.source, edge.target)
    return swarm


def green_graph_from_swarm(swarm: Swarm, labels: Iterable[Label] = (), name: str = ""):
    """View (the ``A2`` part of) a swarm as a green graph.

    Edges whose species is not in ``A2`` (red spiders, lower spiders) are
    dropped — this is the ``deprecompile`` direction of Definition 35 at the
    structural level.
    """
    from ..greengraph.graph import GreenGraph

    known = {item.name: item for item in labels}
    graph = GreenGraph(name=name or f"green-graph({swarm.name})")
    for vertex in swarm.vertices():
        graph.add_vertex(vertex)
    for edge in swarm.edges():
        species = swarm.species_of(edge.species_key)
        if species is None or not species.is_green or species.lower:
            continue
        label = label_for_spider(species)
        label = known.get(label.name, label)
        graph.add_edge(label, edge.tail, edge.antenna)
    return graph
