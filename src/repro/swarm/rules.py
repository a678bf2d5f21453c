"""Swarm rewriting rules (the Abstraction Level 1 language ``L1``).

Definition 7 of the paper: for every binary query ``f^{I1}_{J1} & f^{I2}_{J2}``
(resp. ``/``) of ``F2`` the language ``L1`` has a rule ``f^{I1}_{J1} &· f^{I2}_{J2}``
(resp. ``/·``), which is the conjunction, over all ``I′1 ⊆ I1``, ``J′1 ⊆ J1``,
``I′2 ⊆ I2``, ``J′2 ⊆ J2`` and over both colours, of TGDs saying:

    whenever two same-coloured swarm edges can be found, sharing their
    antenna (for ``&·``) or their tail (for ``/·``), labelled with spiders to
    which — according to the Rule of Spider Algebra ♣ — ``f^{I1}_{J1}`` and
    ``f^{I2}_{J2}`` can be applied, there must also be a fresh shared vertex
    carrying the two produced spiders of the opposite colour.

The rules are plain TGDs and run on the generic chase engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import FrozenSet, Iterable, List, Optional, Tuple

from ..chase.chase import ChaseResult
from ..chase.tgd import TGD
from ..chase.trigger import all_satisfied
from ..engine import run_chase
from ..core.atoms import Atom
from ..core.terms import Variable
from ..greenred.coloring import Color
from ..spiders.algebra import SpiderQuerySpec
from ..spiders.ideal import IdealSpider, SpiderError
from .swarm import Swarm, swarm_predicate


class SwarmRuleKind(Enum):
    """The two rule shapes of ``L1``."""

    SHARED_ANTENNA = "&·"
    SHARED_TAIL = "/·"


def _subsets(values: FrozenSet[str]) -> List[FrozenSet[str]]:
    items = sorted(values)
    result: List[FrozenSet[str]] = []
    for size in range(len(items) + 1):
        for combo in itertools.combinations(items, size):
            result.append(frozenset(combo))
    return result


@dataclass(frozen=True)
class SwarmRule:
    """A single ``L1`` rule ``f^{I1}_{J1} kind f^{I2}_{J2}``."""

    kind: SwarmRuleKind
    first: SpiderQuerySpec
    second: SpiderQuerySpec
    name: str = ""

    def __post_init__(self) -> None:
        for spec in (self.first, self.second):
            if len(spec.upper) > 1 or len(spec.lower) > 1:
                raise SpiderError(
                    "L1 rules are generated by queries whose index sets are "
                    "singletons or empty"
                )

    # ------------------------------------------------------------------
    def display(self) -> str:
        """The paper-style rendering."""
        return f"{self.first.key()} {self.kind.value} {self.second.key()}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        prefix = f"[{self.name}] " if self.name else ""
        return prefix + self.display()

    def is_lower(self) -> bool:
        """Definition 33: both lower index sets are non-empty."""
        return bool(self.first.lower) and bool(self.second.lower)

    # ------------------------------------------------------------------
    def tgds(self) -> List[TGD]:
        """The full conjunction of TGDs of Definition 7."""
        result: List[TGD] = []
        for upper1 in _subsets(self.first.upper):
            for lower1 in _subsets(self.first.lower):
                for upper2 in _subsets(self.second.upper):
                    for lower2 in _subsets(self.second.lower):
                        for source_color in (Color.GREEN, Color.RED):
                            result.append(
                                self._single_tgd(
                                    upper1, lower1, upper2, lower2, source_color
                                )
                            )
        return result

    def _single_tgd(
        self,
        upper1: FrozenSet[str],
        lower1: FrozenSet[str],
        upper2: FrozenSet[str],
        lower2: FrozenSet[str],
        source_color: Color,
    ) -> TGD:
        argument1 = IdealSpider(source_color, upper1, lower1)
        argument2 = IdealSpider(source_color, upper2, lower2)
        produced1 = IdealSpider(
            source_color.opposite(),
            self.first.upper - upper1,
            self.first.lower - lower1,
        )
        produced2 = IdealSpider(
            source_color.opposite(),
            self.second.upper - upper2,
            self.second.lower - lower2,
        )
        x, x_prime = Variable("x"), Variable("x_prime")
        y, y_prime = Variable("y"), Variable("y_prime")
        if self.kind is SwarmRuleKind.SHARED_ANTENNA:
            body = (
                Atom(swarm_predicate(argument1), (x, y)),
                Atom(swarm_predicate(argument2), (x_prime, y)),
            )
            head = (
                Atom(swarm_predicate(produced1), (x, y_prime)),
                Atom(swarm_predicate(produced2), (x_prime, y_prime)),
            )
        else:
            body = (
                Atom(swarm_predicate(argument1), (x, y)),
                Atom(swarm_predicate(argument2), (x, y_prime)),
            )
            head = (
                Atom(swarm_predicate(produced1), (x_prime, y)),
                Atom(swarm_predicate(produced2), (x_prime, y_prime)),
            )
        tag = f"{argument1.key()},{argument2.key()},{source_color.value}"
        name = f"{self.name or self.display()}::{tag}"
        return TGD(name, body, head)


def shared_antenna_rule(
    first: SpiderQuerySpec, second: SpiderQuerySpec, name: str = ""
) -> SwarmRule:
    """``f^{I1}_{J1} &· f^{I2}_{J2}``."""
    return SwarmRule(SwarmRuleKind.SHARED_ANTENNA, first, second, name=name)


def shared_tail_rule(
    first: SpiderQuerySpec, second: SpiderQuerySpec, name: str = ""
) -> SwarmRule:
    """``f^{I1}_{J1} /· f^{I2}_{J2}``."""
    return SwarmRule(SwarmRuleKind.SHARED_TAIL, first, second, name=name)


class SwarmRuleSet:
    """A finite subset of ``L1`` with chase / satisfaction helpers."""

    def __init__(self, rules: Iterable[SwarmRule], name: str = "") -> None:
        self.name = name
        self._rules: List[SwarmRule] = list(rules)

    # ------------------------------------------------------------------
    @property
    def rules(self) -> Tuple[SwarmRule, ...]:
        """The rules in order."""
        return tuple(self._rules)

    def __iter__(self):
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __add__(self, other: "SwarmRuleSet") -> "SwarmRuleSet":
        return SwarmRuleSet(list(self._rules) + list(other._rules))

    def is_lower(self) -> bool:
        """Are all rules lower (Definition 33)?"""
        return all(rule.is_lower() for rule in self._rules)

    def tgds(self) -> List[TGD]:
        """All TGDs of all rules."""
        result: List[TGD] = []
        for rule in self._rules:
            result.extend(rule.tgds())
        return result

    def is_satisfied_by(self, swarm: Swarm) -> bool:
        """``D |= T`` for the swarm *D*."""
        return all_satisfied(self.tgds(), swarm.structure())

    # ------------------------------------------------------------------
    def chase(
        self,
        swarm: Swarm,
        max_stages: Optional[int] = None,
        max_atoms: Optional[int] = None,
    ) -> "SwarmChase":
        """Run the chase of *swarm* under this rule set."""
        result = run_chase(
            self.tgds(),
            swarm.structure(),
            max_stages=max_stages,
            max_atoms=max_atoms,
        )
        return SwarmChase(self, swarm, result)


@dataclass
class SwarmChase:
    """The outcome of chasing a swarm under an ``L1`` rule set."""

    rule_set: SwarmRuleSet
    start: Swarm
    result: ChaseResult

    def swarm(self) -> Swarm:
        """The final chased structure, as a swarm."""
        return Swarm.from_structure(
            self.result.structure, name=f"chase({self.start.name})"
        )

    def stage_swarm(self, index: int) -> Swarm:
        """The swarm after *index* chase stages."""
        return Swarm.from_structure(
            self.result.stage(index), name=f"chase_{index}({self.start.name})"
        )

    def reached_fixpoint(self) -> bool:
        """True when the chase terminated by itself."""
        return self.result.reached_fixpoint

    def first_stage_with_red_spider(self) -> Optional[int]:
        """The first stage containing a full-red-spider edge, if any."""
        for index in range(len(self.result.stage_snapshots)):
            if self.stage_swarm(index).contains_red_spider():
                return index
        return None
