"""Pluggable firing policies for the semi-naive chase engine.

The paper's chase is *lazy* (standard/restricted): a trigger fires only when
its head is not yet satisfied at the frontier image.  For an existential
head that is one compiled head probe; for a full TGD it is the firing
itself, which the engine keeps only when it added an atom (see
:meth:`FiringStrategy.should_fire`).  The engine also offers
the two classic eager disciplines from the chase literature, which are
useful for termination experiments and for stress-testing the delta
machinery (they fire strictly more triggers):

* **oblivious** — every body match fires exactly once, regardless of head
  satisfaction (one firing per distinct full body homomorphism);
* **semi-oblivious** — every distinct frontier image fires exactly once,
  regardless of head satisfaction.

Only the lazy strategy is guaranteed to reproduce the reference
:class:`~repro.chase.chase.ChaseEngine` bit for bit; the eager strategies
create strictly larger structures and are never used by the paper's
constructions.  A strategy may also carry its own atom/stage budgets, which
are intersected with the engine's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set, Tuple

from ..chase.tgd import TGD
from .delta import Assignment, FrontierKey, head_satisfied_indexed
from .indexes import AtomIndex


@dataclass
class FiringStrategy:
    """A firing discipline plus optional safety budgets.

    ``check_head``
        fire only active triggers (the lazy chase of Section II.C);
    ``once_per_key``
        fire each dedup key at most once over the whole run (the eager
        disciplines need this because they ignore head satisfaction);
    ``dedup_by_assignment``
        dedup keys are full body assignments rather than frontier images
        (distinguishes oblivious from semi-oblivious).
    """

    name: str
    check_head: bool = True
    once_per_key: bool = False
    dedup_by_assignment: bool = False
    max_atoms: Optional[int] = None
    max_stages: Optional[int] = None
    _fired: Set[Tuple[TGD, object]] = field(default_factory=set, repr=False)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the fired-key history (called at the start of each run)."""
        self._fired = set()

    def dedup_key(self, frontier: FrontierKey, assignment: Assignment) -> object:
        """The deduplication key of a discovered body match.

        The default (lazy, semi-oblivious) identifies matches by their
        frontier image; the oblivious discipline keeps the full assignment so
        that distinct homomorphisms with the same frontier stay apart.
        """
        if self.dedup_by_assignment:
            return tuple(
                sorted(assignment.items(), key=lambda item: repr(item[0]))
            )
        return frontier

    def should_fire(
        self, tgd: TGD, dedup: object, frontier: FrontierKey, index: AtomIndex
    ) -> bool:
        """Decide whether the trigger with frontier *frontier* may fire now.

        Under ``check_head`` this is the paper's condition (­),
        ``D ⊭ ∃z̄ Ψ(z̄, b̄)``, against the growing structure.  For an
        existential head it is one compiled head probe
        (:func:`~repro.engine.delta.head_satisfied_indexed`).  A full TGD
        issues no query: z̄ is empty, so Ψ(b̄) is a set of ground atoms
        and holds exactly when inserting them adds nothing.  The caller
        therefore fires it and counts the firing only if it added an atom,
        as the engine does for every trigger.
        """
        if self.once_per_key:
            # Keyed by the TGD itself, not its name: distinct rules that
            # happen to share a name must not suppress each other.
            mark = (tgd, dedup)
            if mark in self._fired:
                return False
            self._fired.add(mark)
        if self.check_head and not tgd.is_full():
            return not head_satisfied_indexed(tgd, index, dict(frontier))
        return True

    # ------------------------------------------------------------------
    def cap_stages(self, engine_max: Optional[int]) -> Optional[int]:
        """The engine's stage bound intersected with the strategy's."""
        return min_bound(engine_max, self.max_stages)

    def cap_atoms(self, engine_max: Optional[int]) -> Optional[int]:
        """The engine's atom budget intersected with the strategy's."""
        return min_bound(engine_max, self.max_atoms)


def min_bound(first: Optional[int], second: Optional[int]) -> Optional[int]:
    if first is None:
        return second
    if second is None:
        return first
    return min(first, second)


# ----------------------------------------------------------------------
# The three stock strategies
# ----------------------------------------------------------------------
def lazy_strategy(
    max_atoms: Optional[int] = None, max_stages: Optional[int] = None
) -> FiringStrategy:
    """The paper's lazy (standard/restricted) chase — the default."""
    return FiringStrategy(
        name="lazy", check_head=True, max_atoms=max_atoms, max_stages=max_stages
    )


def oblivious_strategy(
    max_atoms: Optional[int] = None, max_stages: Optional[int] = None
) -> FiringStrategy:
    """Fire every body match once, head satisfaction notwithstanding."""
    return FiringStrategy(
        name="oblivious",
        check_head=False,
        once_per_key=True,
        dedup_by_assignment=True,
        max_atoms=max_atoms,
        max_stages=max_stages,
    )


def semi_oblivious_strategy(
    max_atoms: Optional[int] = None, max_stages: Optional[int] = None
) -> FiringStrategy:
    """Fire every distinct frontier image once, ignoring head satisfaction."""
    return FiringStrategy(
        name="semi-oblivious",
        check_head=False,
        once_per_key=True,
        max_atoms=max_atoms,
        max_stages=max_stages,
    )


STRATEGIES = {
    "lazy": lazy_strategy,
    "oblivious": oblivious_strategy,
    "semi-oblivious": semi_oblivious_strategy,
    "semi_oblivious": semi_oblivious_strategy,
}


def resolve_strategy(strategy) -> FiringStrategy:
    """Accept a strategy instance, a stock-strategy name, or ``None``."""
    if strategy is None:
        return lazy_strategy()
    if isinstance(strategy, FiringStrategy):
        return strategy
    if isinstance(strategy, str):
        try:
            return STRATEGIES[strategy]()
        except KeyError:
            raise ValueError(
                f"unknown firing strategy {strategy!r}; "
                f"known: {sorted(set(STRATEGIES))}"
            ) from None
    raise TypeError(f"cannot interpret {strategy!r} as a firing strategy")
