"""The finite counter-model construction of Section VIII.E.

When the rainworm ``∆`` halts, ``T_M ∪ T□`` must **not** finitely lead to the
red spider, and the paper proves it by *constructing* a finite green graph
``M̄`` (called ``M`` there) containing ``DI``, satisfying ``T_M``, such that
adding the harmless grids of Section VII Step 3 yields a finite model of
``T_M ∪ T□`` without a 1-2 pattern.

The construction starts from ``M0`` — the graph ``DI`` plus the *final*
configuration ``u_M`` laid out as a zig-zag path from ``a`` to ``b`` — and
then, for ``k_M + 1`` rounds (``k_M`` = length of the halting computation),
applies every rule of ``T_M`` from right to left: whenever the right-hand
side of a rule has a witness pair (condition ♠) whose left-hand side pair is
missing (condition ♥), the left-hand witnesses are added — a fresh vertex in
the general case, or the existing constants ``a``/``b`` when the missing
edge is the ∅ edge (case (ii) of the procedure).  In effect the procedure
re-creates the computation *backwards* from its final configuration, which
is why it terminates after ``k_M + 1`` rounds (Lemmas 40–43).

Conditions ♠ and ♥ are the body and the head of the rule's right-to-left
TGD, evaluated on the query runtime (see :func:`reverse_construction`); the
grid phase is a chase of ``T□`` through ``run_chase``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional

from ..greengraph.graph import GreenGraph, VERTEX_A, VERTEX_B, initial_graph
from ..greengraph.labels import EMPTY
from ..greengraph.rules import (
    GreenGraphChase,
    GreenGraphRule,
    GreenGraphRuleSet,
    RuleKind,
)
from ..query import exists_match, get_context, iter_matches
from ..separating.grid_rules import grid_rules
from .configuration import Configuration
from .machine import RainwormMachine
from .simulator import halting_computation
from .to_rules import machine_rules


def configuration_graph(configuration: Configuration, name: str = "M0") -> GreenGraph:
    """``M0``: the graph ``DI`` plus *configuration* as a zig-zag path from a to b.

    Symbol ``s_i`` becomes an edge between the ``i-1``-st and ``i``-th path
    vertex, oriented forwards when ``s_i`` is even and backwards when odd, so
    that through the parity glasses the path spells exactly the configuration
    word.  The last path vertex is the constant ``b``.
    """
    graph = initial_graph(name=name)
    symbols = tuple(configuration)
    vertices: List[object] = [VERTEX_A]
    for index in range(1, len(symbols)):
        vertices.append(f"cfg_v{index}")
    vertices.append(VERTEX_B)
    for index, symbol in enumerate(symbols):
        label = symbol.label()
        source, target = vertices[index], vertices[index + 1]
        if symbol.is_odd:
            graph.add_edge(label, target, source)
        else:
            graph.add_edge(label, source, target)
    return graph


def _add_left_witnesses(
    graph: GreenGraph,
    rule: GreenGraphRule,
    x: object,
    x_prime: object,
    counter: itertools.count,
) -> None:
    c, d = rule.left
    if d == EMPTY:
        # Case (ii): reuse the constants and the existing H∅(a, b) edge.
        if rule.kind is RuleKind.AND:
            graph.add_edge(c, x, VERTEX_B)
        else:
            graph.add_edge(c, VERTEX_A, x)
        return
    fresh = f"rev_{next(counter)}"
    if rule.kind is RuleKind.AND:
        graph.add_edge(c, x, fresh)
        graph.add_edge(d, x_prime, fresh)
    else:
        graph.add_edge(c, fresh, x)
        graph.add_edge(d, fresh, x_prime)


def reverse_construction(
    start: GreenGraph,
    rules: GreenGraphRuleSet,
    rounds: int,
) -> GreenGraph:
    """The bounded right-to-left saturation of Section VIII.E.

    Per rule and round, the TGD body's matches give the pairs ``(x, x′)``
    with ♠, and a head probe on each pair tests ♥.  Both run on the graph's
    own index cut at the stamp watermark taken when the round starts, so a
    round sees the graph as it was then although witnesses are appended to
    it as it goes, with no per-round copy.
    """
    current = start.copy(name=f"{start.name}·reverse")
    index = get_context().index_for(current.structure())
    reverse = []
    for rule in rules:
        tgd = rule.tgds()[1]
        # The frontier is (x, x′) for &·· rules and (y, y′) for /·· rules;
        # name order puts the unprimed variable first.
        reverse.append((rule, tgd, tgd.sorted_frontier))
    counter = itertools.count()
    for _ in range(rounds):
        hi = index.watermark()
        added = False
        for rule, tgd, (u, v) in reverse:
            pairs = {
                (match[u], match[v])
                for match in iter_matches(tgd.body, index, hi=hi)
            }
            for x, x_prime in sorted(pairs, key=lambda pair: tuple(map(repr, pair))):
                if exists_match(tgd.head, index, {u: x, v: x_prime}, hi=hi):
                    continue
                _add_left_witnesses(current, rule, x, x_prime, counter)
                added = True
        if not added:
            break
    return current


@dataclass
class CountermodelReport:
    """The counter-model ``M̄`` together with its health checks."""

    machine: RainwormMachine
    final_configuration: Configuration
    steps: int
    base_graph: GreenGraph
    countermodel: GreenGraph
    satisfies_machine_rules: bool
    beta_edges_only_initial: bool
    grid_chase: Optional[GreenGraphChase] = None
    grid_pattern_free: Optional[bool] = None

    @property
    def with_grids(self) -> Optional[GreenGraph]:
        """``M̄`` after the grid phase, or ``None`` when it was skipped."""
        return None if self.grid_chase is None else self.grid_chase.graph()

    @property
    def is_valid(self) -> bool:
        """Did every checked property of Lemma 26 / Section VIII.E hold?"""
        checks = [self.satisfies_machine_rules, self.beta_edges_only_initial]
        if self.grid_pattern_free is not None:
            checks.append(self.grid_pattern_free)
        return all(checks)


def build_countermodel(
    machine: RainwormMachine,
    max_steps: int = 500,
    extra_rounds: int = 1,
    add_grids: bool = True,
    grid_stages: int = 10,
    max_atoms: int = 60_000,
) -> CountermodelReport:
    """Run the full Section VIII.E construction for a *halting* machine.

    The machine is simulated to obtain ``u_M`` and ``k_M``; ``M̄`` is built by
    ``k_M + extra_rounds`` reverse rounds; the optional grid phase chases
    ``T□`` over ``M̄`` (bounded) and checks that no 1-2 pattern appears.
    """
    final_configuration, steps = halting_computation(machine, max_steps)
    base = configuration_graph(final_configuration)
    rules = machine_rules(machine)
    countermodel = reverse_construction(base, rules, rounds=steps + extra_rounds)
    satisfied = rules.is_satisfied_by(countermodel)
    beta_ok = _beta_edges_only_initial(base, countermodel)
    grid_chase = None
    pattern_free = None
    if add_grids:
        grid_chase = grid_rules().chase(
            countermodel, max_stages=grid_stages, max_atoms=max_atoms
        )
        pattern_free = grid_chase.first_stage_with_one_two_pattern() is None
    return CountermodelReport(
        machine=machine,
        final_configuration=final_configuration,
        steps=steps,
        base_graph=base,
        countermodel=countermodel,
        satisfies_machine_rules=satisfied,
        beta_edges_only_initial=beta_ok,
        grid_chase=grid_chase,
        grid_pattern_free=pattern_free,
    )


def _beta_edges_only_initial(base: GreenGraph, countermodel: GreenGraph) -> bool:
    """Lemma 26 (second claim): every β edge of ``M̄`` is already an edge of ``M0``."""
    for label_name in ("β0", "β1"):
        for edge in countermodel.edges_with_label(label_name):
            if not base.has_edge(edge.label_name, edge.source, edge.target):
                return False
    return True
