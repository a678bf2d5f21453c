"""Bounded empirical evidence for both directions of Lemma 24 (hence Theorem 1).

Undecidability cannot be "run", but for *concrete* machines both directions
of the reduction can be exercised:

* **halting machine ⇒ no finite leading** — the Section VIII.E construction
  produces a finite green graph satisfying ``T_M``, whose grid closure stays
  1-2-pattern free; equivalently ``Q`` does *not* finitely determine ``Q0``;
* **forever-creeping machine ⇒ finite leading** — the chase of ``T_M`` keeps
  extending the αβ-slime-trail (Lemma 25), and folding any two trail
  vertices together (which every finite model must do) makes ``T□`` produce
  a 1-2 pattern; equivalently ``Q`` finitely determines ``Q0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..greengraph.graph import initial_graph
from ..greengraph.parity import words
from ..rainworm.configuration import word_names
from ..rainworm.countermodel import CountermodelReport, build_countermodel
from ..rainworm.machine import RainwormMachine
from ..rainworm.simulator import run
from ..separating.grid import build_grid_on_merged_paths
from .pipeline import ReductionInstance, reduce_machine


@dataclass
class HaltingEvidence:
    """Evidence gathered for a halting machine (the "⇐" direction)."""

    instance: ReductionInstance
    countermodel: CountermodelReport

    @property
    def supports_lemma24(self) -> bool:
        """The finite counter-model checks all passed."""
        return self.countermodel.is_valid


@dataclass
class CreepingEvidence:
    """Evidence gathered for a (boundedly) non-halting machine (the "⇒" direction)."""

    instance: ReductionInstance
    steps_simulated: int
    words_observed: int
    configurations_found_as_words: int
    configurations_checked: int
    merged_paths_pattern: bool

    @property
    def supports_lemma24(self) -> bool:
        """Lemma 25 held on the explored prefix and folding produced the pattern."""
        return (
            self.configurations_found_as_words == self.configurations_checked
            and self.merged_paths_pattern
        )


def halting_direction_evidence(
    machine: RainwormMachine,
    max_steps: int = 500,
    grid_stages: int = 8,
) -> HaltingEvidence:
    """Run the Section VIII.E construction for a halting machine."""
    instance = reduce_machine(machine)
    report = build_countermodel(
        machine, max_steps=max_steps, add_grids=True, grid_stages=grid_stages
    )
    return HaltingEvidence(instance=instance, countermodel=report)


def creeping_direction_evidence(
    machine: RainwormMachine,
    simulate_steps: int = 8,
    chase_stages: int = 10,
    max_atoms: int = 40_000,
    merged_lengths: Tuple[int, int] = (3, 2),
) -> CreepingEvidence:
    """Check Lemma 25 on a chase prefix and the folding argument for a creeping machine."""
    instance = reduce_machine(machine)
    trace = run(machine, simulate_steps).trace
    reachable = {word_names(configuration) for configuration in trace}
    chase = instance.machine_rule_set.chase(
        initial_graph(), max_stages=chase_stages, max_atoms=max_atoms
    )
    observed = words(chase.graph(), max_length=4 * simulate_steps + 8)
    found = sum(1 for configuration in reachable if configuration in observed)
    merged = build_grid_on_merged_paths(*merged_lengths)
    return CreepingEvidence(
        instance=instance,
        steps_simulated=len(trace) - 1,
        words_observed=len(observed),
        configurations_found_as_words=found,
        configurations_checked=len(reachable),
        merged_paths_pattern=merged.has_pattern,
    )
