"""Structure-level operations used in the proof of Lemma 12(2).

Appendix A of the paper defines, for a fixed set ``T`` of green graph
rewriting rules, two operations:

* ``deprecompile`` (Definition 35): from a swarm, keep only the edges whose
  species is a *full or upper 1-lame green* spider — i.e. exactly the ``A2``
  species — and read them as a green graph;
* ``precompile`` (Definition 36): from a green graph that is a minimal model
  of ``T``, the swarm ``chase_1(Precompile(T), D)`` — the graph plus all red
  edges demanded, as witnesses, by the Level-1 rules with arguments in ``D``
  (no green edges are added by a single stage).

These are proof devices rather than user-facing API, but having them
executable lets the test suite exercise Lemma 32 on concrete examples.
"""

from __future__ import annotations

from ..greengraph.graph import GreenGraph
from .rules import SwarmRuleSet
from .swarm import Swarm, green_graph_from_swarm, swarm_from_green_graph


def deprecompile_swarm(swarm: Swarm, name: str = "") -> GreenGraph:
    """Definition 35: the green graph of the ``A2`` edges of a swarm."""
    return green_graph_from_swarm(swarm, name=name or f"deprecompile({swarm.name})")


def precompile_structure(
    graph: GreenGraph, level1_rules: SwarmRuleSet, name: str = ""
) -> Swarm:
    """Definition 36: one chase stage of the Level-1 rules over the graph."""
    start = swarm_from_green_graph(graph, name=name or f"precompile({graph.name})")
    outcome = level1_rules.chase(start, max_stages=1)
    return outcome.swarm()
