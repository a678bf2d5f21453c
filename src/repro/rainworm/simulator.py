"""Creeping: the operational semantics of rainworm machines.

A computation step is a single Thue semi-system rewriting: ``w ⇒_M v`` when
``w = w1 s w2``, ``v = w1 t w2`` and ``s ⇒ t ∈ ∆``.  Because ``∆`` is a
partial function and reachable words are configurations, at most one rewrite
is applicable to a reachable word (Lemma 22(2)); the simulator nevertheless
*checks* uniqueness and reports violations, which is how the test suite
exercises the lemma.

``run`` produces a trace; ``creeps_at_least`` / ``halts_within`` are the
bounded stand-ins for the (undecidable, Lemma 21) "creeps forever" question.
``chase_observed_words`` / ``simulation_matches_chase`` re-derive the same
computation through the green-graph chase of ``T_M`` (Lemma 25),
cross-validating the direct simulator against the declarative route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .configuration import Configuration, anatomy, is_configuration, render, word_names
from .machine import Instruction, RainwormMachine


@dataclass(frozen=True)
class RewriteMatch:
    """A position at which an instruction applies."""

    position: int
    instruction: Instruction


def applicable_rewrites(
    machine: RainwormMachine, word: Sequence[object]
) -> List[RewriteMatch]:
    """All positions/instructions applicable to *word* (usually 0 or 1)."""
    matches: List[RewriteMatch] = []
    symbols = tuple(word)
    for position in range(len(symbols)):
        for width in (1, 2):
            if position + width > len(symbols):
                continue
            candidate = symbols[position : position + width]
            instruction = machine.instruction_for(candidate)
            if instruction is not None:
                matches.append(RewriteMatch(position, instruction))
    return matches


def step(
    machine: RainwormMachine, word: Configuration
) -> Optional[Configuration]:
    """One computation step, or ``None`` when the machine has halted.

    Raises ``RuntimeError`` when more than one rewrite is applicable — for
    words satisfying Definition 19(1) this would contradict Lemma 22(2) and
    indicates a malformed machine.
    """
    matches = applicable_rewrites(machine, word)
    if not matches:
        return None
    if len(matches) > 1:
        raise RuntimeError(
            f"non-deterministic rewriting of {render(word)}: "
            + ", ".join(repr(m.instruction) for m in matches)
        )
    match = matches[0]
    symbols = tuple(word)
    width = len(match.instruction.lhs)
    return (
        symbols[: match.position]
        + match.instruction.rhs
        + symbols[match.position + width :]
    )


@dataclass
class RunResult:
    """The outcome of a bounded run."""

    trace: List[Configuration]
    halted: bool

    @property
    def steps(self) -> int:
        """Number of computation steps performed."""
        return len(self.trace) - 1

    @property
    def final(self) -> Configuration:
        """The last configuration reached."""
        return self.trace[-1]

    def trail_lengths(self) -> List[int]:
        """Slime-trail length after every step (growth ⇔ completed creep cycles)."""
        lengths = []
        for configuration in self.trace:
            try:
                lengths.append(anatomy(configuration).trail_length)
            except ValueError:
                lengths.append(-1)
        return lengths

    def all_configurations_valid(self) -> bool:
        """Lemma 20: every reachable word is an RM configuration."""
        return all(is_configuration(word) for word in self.trace)


def run(
    machine: RainwormMachine,
    max_steps: int,
    start: Optional[Configuration] = None,
) -> RunResult:
    """Run the machine for at most *max_steps* steps from *start* (default αη11)."""
    current = tuple(start) if start is not None else machine.initial_configuration()
    trace: List[Configuration] = [current]
    for _ in range(max_steps):
        successor = step(machine, current)
        if successor is None:
            return RunResult(trace=trace, halted=True)
        current = successor
        trace.append(current)
    return RunResult(trace=trace, halted=False)


def halts_within(machine: RainwormMachine, max_steps: int) -> bool:
    """Does the machine halt within *max_steps* steps?"""
    return run(machine, max_steps).halted


def creeps_at_least(machine: RainwormMachine, max_steps: int) -> bool:
    """Does the machine keep creeping for at least *max_steps* steps?"""
    return not halts_within(machine, max_steps)


def halting_computation(
    machine: RainwormMachine, max_steps: int
) -> Tuple[Configuration, int]:
    """The final configuration ``u_M`` and the step count ``k_M`` of a halting run.

    Raises ``RuntimeError`` when the machine does not halt within the bound —
    callers that need ``u_M`` (the counter-model construction of Section
    VIII.E) must know their machine halts.
    """
    result = run(machine, max_steps)
    if not result.halted:
        raise RuntimeError(
            f"{machine.name} did not halt within {max_steps} steps"
        )
    return result.final, result.steps


def chase_observed_words(
    machine: RainwormMachine,
    chase_stages: int,
    max_atoms: int = 40_000,
    max_length: int = 80,
) -> FrozenSet[Tuple[str, ...]]:
    """The words of a bounded chase of ``T_M`` over ``DI`` (Lemma 25 route).

    By Lemma 25 the chase of the machine's green-graph rules re-creates the
    worm's computation as the words of the growing graph; this is the
    declarative counterpart of :func:`run`.
    """
    from ..greengraph.graph import initial_graph
    from ..greengraph.parity import words
    from .to_rules import machine_rules

    outcome = machine_rules(machine).chase(
        initial_graph(), max_stages=chase_stages, max_atoms=max_atoms
    )
    return words(outcome.graph(), max_length=max_length)


def simulation_matches_chase(
    machine: RainwormMachine,
    simulate_steps: int,
    chase_stages: int,
    max_atoms: int = 40_000,
) -> bool:
    """Does every simulated configuration occur among the chase words?

    Bounded empirical check of Lemma 25: the operational trace of
    :func:`run` must be a subset of the word language produced by
    :func:`chase_observed_words` (given enough chase stages).
    """
    trace = run(machine, simulate_steps).trace
    reachable = {word_names(configuration) for configuration in trace}
    longest = max((len(word) for word in reachable), default=0)
    observed = chase_observed_words(
        machine, chase_stages, max_atoms=max_atoms, max_length=max(longest, 1)
    )
    return reachable <= observed


def predecessors(
    machine: RainwormMachine, word: Configuration, candidates: Sequence[Configuration]
) -> List[Configuration]:
    """The members of *candidates* that rewrite to *word* in one step.

    Lemma 22(3) bounds the number of predecessors of any configuration by a
    machine-dependent constant ``c_M``; the tests use this helper to check
    the bound empirically.
    """
    return [candidate for candidate in candidates if step(machine, candidate) == tuple(word)]
