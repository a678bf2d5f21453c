"""Triggers: matches of TGD bodies in a structure.

The paper (Section II.B) describes a TGD ``T = Φ(x̄, ȳ) ⇒ ∃z̄ Ψ(z̄, ȳ)`` as a
procedure: find a tuple ``b̄`` such that

* (¬)  ``D |= ∃x̄ Φ(x̄, b̄)`` via a homomorphism ``h``, but
* (­)  ``D ⊭ ∃z̄ Ψ(z̄, b̄)``;

then output ``D(T, b̄)``, the union of ``D`` with a fresh copy of ``A[Ψ]``
whose frontier variables are identified with ``h(ȳ)``.

A :class:`Trigger` packages a TGD together with such a homomorphism.  A
trigger is *active* when condition (­) holds, i.e. the head is not yet
satisfied at the frontier image — this is what makes the chase "lazy"
(standard/restricted chase in modern terminology).

Frontier keys and the order in which a firing draws fresh nulls come from
the name-ordered tuples a :class:`~repro.chase.tgd.TGD` stores when it is
built, so nothing here sorts per trigger.  :func:`apply_trigger` reports
exactly the atoms it added; for a full TGD (no z̄) condition (­) fails
exactly when that report is empty, which is how the semi-naive engine
checks full heads without a query.  :func:`head_satisfied` below stays the
reference chase's own evaluator-backed check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..core.atoms import Atom
from ..core.structure import Structure
from ..core.terms import FreshNullFactory, LabeledNull
from .tgd import TGD


@dataclass(frozen=True)
class Trigger:
    """A match of a TGD body in a structure.

    ``assignment`` maps every body variable (and constant) to an element of
    the structure; ``frontier_image`` is its restriction to the frontier,
    which is all that matters for head satisfaction and for firing.
    """

    tgd: TGD
    frontier_image: Tuple[Tuple[object, object], ...]

    @property
    def frontier_assignment(self) -> Dict[object, object]:
        """The frontier binding as a dictionary."""
        return dict(self.frontier_image)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        binding = ", ".join(f"{k}={v}" for k, v in self.frontier_image)
        return f"<Trigger {self.tgd.name}: {binding}>"


def frontier_key(tgd: TGD, assignment: Mapping[object, object]) -> Tuple[Tuple[object, object], ...]:
    """The canonical frontier binding of *assignment*: ``(variable, image)``
    pairs in the TGD's stored name order (no per-call sort)."""
    return tuple([(var, assignment[var]) for var in tgd.sorted_frontier])


def trigger_sort_key(frontier_image: Tuple[Tuple[object, object], ...]) -> str:
    """A canonical, hash-seed-independent ordering key for triggers.

    Both the reference :class:`~repro.chase.chase.ChaseEngine` and the
    semi-naive engine of :mod:`repro.engine` fire the triggers of a TGD in
    ascending order of this key, which makes chase runs reproducible across
    processes (set iteration order is not) and makes the two engines produce
    bit-identical structures, null names and provenance.
    """
    return repr(frontier_image)


def head_satisfied(
    tgd: TGD, structure: Structure, frontier_assignment: Mapping[object, object]
) -> bool:
    """Condition (­) negated: is ``∃z̄ Ψ(z̄, b̄)`` already true in *structure*?"""
    # Routed through the planned index-backed evaluator (repro.query): the
    # structure's index is built once and maintained incrementally, so
    # repeated satisfaction checks against the same structure stop paying
    # for per-call candidate materialisation.  Imported lazily to keep the
    # chase → query edge acyclic.
    from ..query.evaluator import iter_homomorphisms

    return (
        next(
            iter_homomorphisms(
                list(tgd.head), structure, fix=dict(frontier_assignment), limit=1
            ),
            None,
        )
        is not None
    )


def find_triggers(
    tgd: TGD,
    structure: Structure,
    active_only: bool = True,
    satisfaction_structure: Optional[Structure] = None,
) -> Iterator[Trigger]:
    """Yield the (active) triggers of *tgd* in *structure*.

    ``satisfaction_structure`` lets the caller check head satisfaction
    against a different (typically larger, evolving) structure than the one
    the body is matched in; this mirrors the paper's chase procedure, where
    body matches range over ``chase_i`` while conditions are re-checked in
    the current, growing ``D``.

    Body matching runs on the planned index-backed evaluator of
    :mod:`repro.query`; the reference chase engine keeps its own full
    per-stage re-matching discipline but shares the per-structure index.
    """
    from ..query.evaluator import iter_homomorphisms

    target_for_heads = satisfaction_structure or structure
    seen: set = set()
    for assignment in iter_homomorphisms(list(tgd.body), structure):
        key = frontier_key(tgd, assignment)
        if key in seen:
            continue
        seen.add(key)
        if active_only and head_satisfied(tgd, target_for_heads, dict(key)):
            continue
        yield Trigger(tgd, key)


@dataclass(frozen=True)
class FiringOutcome:
    """Everything a chase engine needs to know about one trigger firing.

    ``new_elements`` are the domain elements that *structure* gained from the
    firing — the fresh nulls plus any head constants not previously present —
    computed with O(1) membership checks instead of a full domain rebuild.
    """

    new_atoms: Tuple[Atom, ...]
    fresh_nulls: Tuple[Tuple[object, LabeledNull], ...]
    new_elements: Tuple[object, ...]

    @property
    def fresh(self) -> Dict[object, LabeledNull]:
        """The existential-variable → fresh-null mapping as a dictionary."""
        return dict(self.fresh_nulls)


def apply_trigger(
    trigger: Trigger,
    structure: Structure,
    null_factory: FreshNullFactory,
) -> FiringOutcome:
    """Apply a trigger to *structure* in place, reporting the full outcome.

    This is the paper's ``D := D(T, b̄)`` step: every existential variable of
    the TGD gets a fresh labelled null, and the instantiated head atoms are
    added to *structure*.
    """
    tgd = trigger.tgd
    assignment: Dict[object, object] = dict(trigger.frontier_image)
    fresh: List[Tuple[object, LabeledNull]] = []
    for variable in tgd.sorted_existentials:
        null = null_factory.fresh(hint=variable.name)
        fresh.append((variable, null))
        assignment[variable] = null
    new_atoms: List[Atom] = []
    new_elements: List[object] = []
    seen_new: set = set()
    for atom in tgd.head:
        ground = atom.substitute(assignment)
        for arg in ground.args:
            if arg not in seen_new and not structure.has_element(arg):
                seen_new.add(arg)
                new_elements.append(arg)
        if structure.add_atom(ground):
            new_atoms.append(ground)
    return FiringOutcome(
        new_atoms=tuple(new_atoms),
        fresh_nulls=tuple(fresh),
        new_elements=tuple(new_elements),
    )


def fire_trigger(
    trigger: Trigger,
    structure: Structure,
    null_factory: FreshNullFactory,
) -> Tuple[List[Atom], Dict[object, LabeledNull]]:
    """Apply a trigger to *structure* in place (compatibility wrapper).

    Returns the list of atoms that were genuinely new and the mapping of the
    TGD's existential variables to the fresh nulls created for them; see
    :func:`apply_trigger` for the richer outcome record.
    """
    outcome = apply_trigger(trigger, structure, null_factory)
    return list(outcome.new_atoms), outcome.fresh


def all_active_triggers(
    tgds: List[TGD],
    structure: Structure,
    satisfaction_structure: Optional[Structure] = None,
) -> Iterator[Trigger]:
    """Yield the active triggers of every TGD in *tgds*."""
    for tgd in tgds:
        yield from find_triggers(
            tgd,
            structure,
            active_only=True,
            satisfaction_structure=satisfaction_structure,
        )


def is_satisfied(tgd: TGD, structure: Structure) -> bool:
    """``D |= T``: every body match has a matching head witness."""
    return next(find_triggers(tgd, structure, active_only=True), None) is None


def all_satisfied(tgds: List[TGD], structure: Structure) -> bool:
    """``D |= T`` for a set of TGDs."""
    return all(is_satisfied(tgd, structure) for tgd in tgds)


def violated_tgds(tgds: List[TGD], structure: Structure) -> List[TGD]:
    """The subset of *tgds* that have at least one active trigger."""
    return [tgd for tgd in tgds if not is_satisfied(tgd, structure)]
