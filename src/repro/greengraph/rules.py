"""Green graph rewriting rules (the Abstraction Level 2 language ``L2``).

Section VI of the paper: for labels ``I1 ≠ I3`` and ``I2 ≠ I4`` from ``S̄``
the language ``L2`` contains two rules

* ``I1 &·· I2 ] I3 &·· I4`` — shorthand for
  ``∀x, x′ [∃y H(I1, x, y) ∧ H(I2, x′, y)] ⇔ [∃y H(I3, x, y) ∧ H(I4, x′, y)]``
  (the two edges *share their target*);
* ``I1 /·· I2 ] I3 /·· I4`` — shorthand for
  ``∀y, y′ [∃x H(I1, x, y) ∧ H(I2, x, y′)] ⇔ [∃x H(I3, x, y) ∧ H(I4, x, y′)]``
  (the two edges *share their source*).

Each rule is an equivalence and therefore a conjunction of two TGDs; the
rules "act on a structure" through the generic chase engine.  By the paper's
standing assumption, the reserved labels 3 and 4 never occur in an L2 rule
set (they are consumed by Precompilation).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

from ..chase.chase import ChaseResult
from ..chase.tgd import TGD
from ..chase.trigger import all_satisfied, violated_tgds
from ..core.atoms import Atom
from ..core.terms import Variable
from ..engine import run_chase
from .graph import GreenGraph, edge_predicate
from .labels import FOUR, Label, THREE


class RuleKind(Enum):
    """The two rule shapes of ``L2``."""

    AND = "&··"  # the two edges share their target vertex
    DIV = "/··"  # the two edges share their source vertex


class GreenGraphRuleError(ValueError):
    """Raised for malformed green graph rewriting rules."""


@dataclass(frozen=True)
class GreenGraphRule:
    """A single rule ``I1 kind I2 ] I3 kind I4`` of ``L2``."""

    kind: RuleKind
    left: Tuple[Label, Label]
    right: Tuple[Label, Label]
    name: str = ""

    def __post_init__(self) -> None:
        i1, i2 = self.left
        i3, i4 = self.right
        if i1 == i3 or i2 == i4:
            raise GreenGraphRuleError(
                "an L2 rule requires I1 ≠ I3 and I2 ≠ I4 "
                f"(got {i1}/{i3} and {i2}/{i4})"
            )
        for item in (i1, i2, i3, i4):
            if item.name in (THREE.name, FOUR.name):
                raise GreenGraphRuleError(
                    "labels 3 and 4 are reserved and may not occur in L2 rules"
                )

    # ------------------------------------------------------------------
    @property
    def labels(self) -> Tuple[Label, Label, Label, Label]:
        """The four labels ``(I1, I2, I3, I4)``."""
        return (*self.left, *self.right)

    def display(self) -> str:
        """The paper-style rendering of the rule."""
        i1, i2 = self.left
        i3, i4 = self.right
        op = self.kind.value
        return f"{i1}{op}{i2} ] {i3}{op}{i4}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        prefix = f"[{self.name}] " if self.name else ""
        return prefix + self.display()

    # ------------------------------------------------------------------
    def tgds(self) -> List[TGD]:
        """The two TGDs (left-to-right and right-to-left) of the equivalence."""
        return [
            self._direction_tgd(self.left, self.right, "LR"),
            self._direction_tgd(self.right, self.left, "RL"),
        ]

    def _direction_tgd(
        self,
        source: Tuple[Label, Label],
        target: Tuple[Label, Label],
        tag: str,
    ) -> TGD:
        x, x_prime = Variable("x"), Variable("x_prime")
        y, y_prime = Variable("y"), Variable("y_prime")
        s1, s2 = source
        t1, t2 = target
        if self.kind is RuleKind.AND:
            # Shared target: witnesses keep the sources x, x′ and get a fresh
            # shared target.
            body = (
                Atom(edge_predicate(s1), (x, y)),
                Atom(edge_predicate(s2), (x_prime, y)),
            )
            head = (
                Atom(edge_predicate(t1), (x, y_prime)),
                Atom(edge_predicate(t2), (x_prime, y_prime)),
            )
        else:
            # Shared source: witnesses keep the targets y, y′ and get a fresh
            # shared source.
            body = (
                Atom(edge_predicate(s1), (x, y)),
                Atom(edge_predicate(s2), (x, y_prime)),
            )
            head = (
                Atom(edge_predicate(t1), (x_prime, y)),
                Atom(edge_predicate(t2), (x_prime, y_prime)),
            )
        name = f"{self.name or self.display()}::{tag}"
        return TGD(name, body, head)


def and_rule(
    i1: Label, i2: Label, i3: Label, i4: Label, name: str = ""
) -> GreenGraphRule:
    """``I1 &·· I2 ] I3 &·· I4`` (shared target)."""
    return GreenGraphRule(RuleKind.AND, (i1, i2), (i3, i4), name=name)


def div_rule(
    i1: Label, i2: Label, i3: Label, i4: Label, name: str = ""
) -> GreenGraphRule:
    """``I1 /·· I2 ] I3 /·· I4`` (shared source)."""
    return GreenGraphRule(RuleKind.DIV, (i1, i2), (i3, i4), name=name)


class GreenGraphRuleSet:
    """A finite subset of ``L2`` with chase / satisfaction helpers."""

    def __init__(self, rules: Iterable[GreenGraphRule], name: str = "") -> None:
        self.name = name
        self._rules: List[GreenGraphRule] = list(rules)

    # ------------------------------------------------------------------
    @property
    def rules(self) -> Tuple[GreenGraphRule, ...]:
        """The rules, in order."""
        return tuple(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __add__(self, other: "GreenGraphRuleSet") -> "GreenGraphRuleSet":
        return GreenGraphRuleSet(
            list(self._rules) + list(other._rules),
            name=f"{self.name}+{other.name}" if self.name or other.name else "",
        )

    def labels(self) -> Tuple[Label, ...]:
        """All labels mentioned by the rules (without duplicates)."""
        seen = {}
        for rule in self._rules:
            for item in rule.labels:
                seen.setdefault(item.name, item)
        return tuple(seen.values())

    # ------------------------------------------------------------------
    def tgds(self) -> List[TGD]:
        """All TGDs of all rules."""
        result: List[TGD] = []
        for rule in self._rules:
            result.extend(rule.tgds())
        return result

    def is_satisfied_by(self, graph: GreenGraph) -> bool:
        """``D |= T`` for the green graph *D*."""
        return all_satisfied(self.tgds(), graph.structure())

    def violated_rules(self, graph: GreenGraph) -> List[str]:
        """Names of the TGDs with an active trigger in *graph*."""
        return [tgd.name for tgd in violated_tgds(self.tgds(), graph.structure())]

    # ------------------------------------------------------------------
    def chase(
        self,
        graph: GreenGraph,
        max_stages: Optional[int] = None,
        max_atoms: Optional[int] = None,
    ) -> "GreenGraphChase":
        """Run the chase of *graph* under this rule set."""
        result = run_chase(
            self.tgds(),
            graph.structure(),
            max_stages=max_stages,
            max_atoms=max_atoms,
        )
        return GreenGraphChase(self, graph, result)


@dataclass
class GreenGraphChase:
    """The outcome of chasing a green graph under an ``L2`` rule set."""

    rule_set: GreenGraphRuleSet
    start: GreenGraph
    result: ChaseResult

    # ------------------------------------------------------------------
    def graph(self) -> GreenGraph:
        """The final chased structure, as a green graph."""
        return GreenGraph.from_structure(
            self.result.structure,
            labels=self.rule_set.labels(),
            name=f"chase({self.start.name})",
        )

    def stage_graph(self, index: int) -> GreenGraph:
        """The green graph after *index* chase stages."""
        return GreenGraph.from_structure(
            self.result.stage(index),
            labels=self.rule_set.labels(),
            name=f"chase_{index}({self.start.name})",
        )

    def stage_count(self) -> int:
        """Number of stages actually run."""
        return self.result.stages_run

    def reached_fixpoint(self) -> bool:
        """True when the chase terminated by itself."""
        return self.result.reached_fixpoint

    def first_stage_with_one_two_pattern(self) -> Optional[int]:
        """The first stage whose graph contains a 1-2 pattern, if any.

        A chase never removes atoms, so once a stage contains the pattern
        every later stage does too: bisection builds O(log stages) of the
        lazy stage snapshots instead of all of them.
        """
        stages = len(self.result.stage_snapshots)
        first = bisect_left(
            range(stages),
            True,
            key=lambda index: self.stage_graph(index).contains_one_two_pattern(),
        )
        return first if first < stages else None
