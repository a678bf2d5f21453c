"""Chase termination analysis.

The chase may run forever; the paper exploits exactly this (the infinite
``chase(T∞, DI)`` of Figure 1).  For the library it is still useful to have

* a syntactic sufficient condition for termination — *weak acyclicity*
  (Fagin et al.), based on the position dependency graph; and
* an empirical bounded-run check used by tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..core.structure import Structure
from .chase import chase
from .tgd import TGD

Position = Tuple[str, int]
"""A position is a pair (predicate name, argument index)."""


@dataclass(frozen=True)
class DependencyGraph:
    """The position dependency graph of a set of TGDs.

    Nodes are positions.  For every TGD, every body occurrence of a frontier
    variable at position ``p`` and every head occurrence of the same variable
    at position ``q`` contribute a *regular* edge ``p → q``; every head
    occurrence of an existential variable at position ``q`` contributes a
    *special* edge ``p ⇒ q`` from every body position ``p`` of every frontier
    variable of that TGD.
    """

    regular_edges: FrozenSet[Tuple[Position, Position]]
    special_edges: FrozenSet[Tuple[Position, Position]]

    def nodes(self) -> FrozenSet[Position]:
        """All positions mentioned by any edge."""
        result: Set[Position] = set()
        for src, dst in self.regular_edges | self.special_edges:
            result.add(src)
            result.add(dst)
        return frozenset(result)

    def has_cycle_through_special_edge(self) -> bool:
        """True when some cycle of the graph uses a special edge."""
        nodes = list(self.nodes())
        all_edges = list(self.regular_edges) + list(self.special_edges)
        adjacency: Dict[Position, List[Position]] = {node: [] for node in nodes}
        for src, dst in all_edges:
            adjacency[src].append(dst)

        def reachable(start: Position) -> Set[Position]:
            seen: Set[Position] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                for nxt in adjacency.get(node, ()):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return seen

        for src, dst in self.special_edges:
            if src in reachable(dst) or src == dst:
                return True
        return False


def build_dependency_graph(tgds: Sequence[TGD]) -> DependencyGraph:
    """Construct the position dependency graph of *tgds*."""
    regular: Set[Tuple[Position, Position]] = set()
    special: Set[Tuple[Position, Position]] = set()
    for tgd in tgds:
        frontier = tgd.frontier()
        existential = tgd.existential_variables()
        body_positions: Dict[object, Set[Position]] = {}
        for atom in tgd.body:
            for index, arg in enumerate(atom.args):
                if arg in frontier:
                    body_positions.setdefault(arg, set()).add((atom.predicate, index))
        for atom in tgd.head:
            for index, arg in enumerate(atom.args):
                position = (atom.predicate, index)
                if arg in frontier:
                    for src in body_positions.get(arg, ()):
                        regular.add((src, position))
                elif arg in existential:
                    for sources in body_positions.values():
                        for src in sources:
                            special.add((src, position))
    return DependencyGraph(frozenset(regular), frozenset(special))


def is_weakly_acyclic(tgds: Sequence[TGD]) -> bool:
    """Sufficient condition for chase termination on every instance."""
    graph = build_dependency_graph(tgds)
    return not graph.has_cycle_through_special_edge()


@dataclass(frozen=True)
class BoundedRunReport:
    """Outcome of an empirical bounded chase run."""

    reached_fixpoint: bool
    stages_run: int
    atoms_final: int
    atoms_per_stage: Tuple[int, ...]


def bounded_run_report(
    tgds: Sequence[TGD],
    instance: Structure,
    max_stages: int,
    max_atoms: int = 100_000,
) -> BoundedRunReport:
    """Run the chase with bounds and report growth per stage."""
    result = chase(tgds, instance, max_stages=max_stages, max_atoms=max_atoms)
    sizes = tuple(len(s) for s in result.stage_snapshots)
    return BoundedRunReport(
        reached_fixpoint=result.reached_fixpoint,
        stages_run=result.stages_run,
        atoms_final=len(result.structure),
        atoms_per_stage=sizes,
    )


def terminates_within(
    tgds: Sequence[TGD], instance: Structure, max_stages: int
) -> bool:
    """Empirical check: does the chase reach a fixpoint within *max_stages*?"""
    return chase(tgds, instance, max_stages=max_stages).reached_fixpoint
