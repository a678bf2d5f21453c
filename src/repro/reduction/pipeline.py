"""The end-to-end Theorem 1 / Theorem 5 reduction pipeline.

Starting from a (possibly Turing-machine-compiled) rainworm machine ``∆``,
the pipeline assembles every artefact of the reduction:

    ∆  →  T_M ∪ T□  (green graph rules, Section VIII.C + VII)
       →  Precompile(T_M ∪ T□)  (Level-1 swarm rules, Definition 9)
       →  Q = Compile(Precompile(T_M ∪ T□))  (conjunctive queries over Σ)
       →  the CQfDP instance  (Q, Q0 = ∃* dalt(I))

By Lemma 12, Observation 13 and Lemma 24:

    ∆ creeps forever  ⇔  T_M ∪ T□ finitely leads to the red spider
                      ⇔  Q finitely determines Q0,

which is the undecidability of CQfDP (Theorem 1).  Because the last two
stages blow the instance up considerably (every rule becomes a pair of
spider queries with hundreds of atoms), the conjunctive-query level is built
lazily and only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.query import ConjunctiveQuery
from ..greengraph.precompile import precompile
from ..greengraph.rules import GreenGraphRuleSet
from ..rainworm.machine import RainwormMachine
from ..rainworm.to_rules import machine_rules, reduction_rules
from ..separating.theorem14 import full_green_spider_query
from ..spiders.ideal import SpiderUniverse
from ..swarm.compile import compile_rules, universe_for_rules
from ..swarm.rules import SwarmRuleSet


@dataclass
class ReductionInstance:
    """All artefacts of the reduction for one rainworm machine."""

    machine: RainwormMachine
    machine_rule_set: GreenGraphRuleSet
    full_rule_set: GreenGraphRuleSet
    _level1: Optional[SwarmRuleSet] = field(default=None, repr=False)
    _universe: Optional[SpiderUniverse] = field(default=None, repr=False)
    _views: Optional[List[ConjunctiveQuery]] = field(default=None, repr=False)
    _query: Optional[ConjunctiveQuery] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    @property
    def level1_rules(self) -> SwarmRuleSet:
        """``Precompile(T_M ∪ T□)`` (built on first access)."""
        if self._level1 is None:
            self._level1 = precompile(self.full_rule_set)
        return self._level1

    @property
    def universe(self) -> SpiderUniverse:
        """The spider leg universe spanned by the Level-1 rules."""
        if self._universe is None:
            self._universe = universe_for_rules(self.level1_rules.rules)
        return self._universe

    @property
    def views(self) -> List[ConjunctiveQuery]:
        """``Q = Compile(Precompile(T_M ∪ T□))`` (built on first access)."""
        if self._views is None:
            self._views = compile_rules(self.level1_rules, self.universe)
        return self._views

    @property
    def query(self) -> ConjunctiveQuery:
        """``Q0 = ∃* dalt(I)``."""
        if self._query is None:
            self._query = full_green_spider_query(self.universe)
        return self._query

    # ------------------------------------------------------------------
    def sizes(self) -> dict:
        """Instance-size statistics (reported by the benchmarks)."""
        return {
            "instructions": self.machine.instruction_count(),
            "machine_rules": len(self.machine_rule_set),
            "green_graph_rules": len(self.full_rule_set),
            "level1_rules": len(self.level1_rules),
            "views": len(self.views),
            "view_atoms": sum(len(view.atoms) for view in self.views),
            "query_atoms": len(self.query.atoms),
            "universe_legs": self.universe.size,
        }


def reduce_machine(
    machine: RainwormMachine, include_grid: bool = True
) -> ReductionInstance:
    """Build the reduction instance for *machine*."""
    machine_set = machine_rules(machine)
    full_set = reduction_rules(machine) if include_grid else machine_set
    return ReductionInstance(
        machine=machine,
        machine_rule_set=machine_set,
        full_rule_set=full_set,
    )
