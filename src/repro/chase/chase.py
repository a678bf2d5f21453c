"""The lazy (standard) chase, with stages and provenance.

Section II.C of the paper defines the chase stage by stage:

    chase_0(T, D) = D
    chase_{i+1}(T, D): for all pairs (T, b̄) with T ∈ T and b̄ a tuple of
        elements of chase_i(T, D): if conditions (¬) and (­) hold in the
        current D for b̄ and T, then D := D(T, b̄)
    chase(T, D) = ⋃_i chase_i(T, D)

The chase here is "lazy": new atoms and elements are only produced when the
head is not already satisfied.  We keep exactly this stage discipline (body
matches are found in the structure as it was at the start of the stage, head
satisfaction is re-checked against the current, growing structure) because
several constructions in the paper — Figure 1, the late chase of Section IX,
the counter-model procedure of Section VIII.E — depend on the stage numbers.

``chase`` as a whole may of course be infinite; callers always supply a bound
(number of stages and/or number of atoms), and the result records whether a
fixpoint was reached within the bound.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.structure import Structure
from ..core.terms import FreshNullFactory
from .provenance import ChaseProvenance, ChaseStep
from .tgd import TGD
from .trigger import (
    Trigger,
    apply_trigger,
    find_triggers,
    head_satisfied,
    trigger_sort_key,
)


class ChaseExecutionError(RuntimeError):
    """A chase run could not complete for an *operational* reason.

    The typed failure of the execution substrate, as opposed to the
    *semantic* :class:`ChaseBudgetExceeded`.  The parallel engine's
    :class:`~repro.engine.parallel.WorkerError` (a failed shared-memory
    sync) is one; its supervisor (:mod:`repro.engine.resilience`) answers
    every worker fault by finishing the run serially, bit-identical to a
    serial run, so no bare transport exception ever escapes a chase.
    """


class ChaseBudgetExceeded(RuntimeError):
    """Raised when a chase run exceeds its atom budget (when asked to raise)."""


class StageSnapshots(Sequence[Structure]):
    """The stages ``chase_0 … chase_n`` of a run, derived from its provenance.

    Stage *k* is ``chase_0`` plus the new atoms of every step with stage
    ``≤ k``.  A stage is built on first access — a copy of the nearest
    already-built lower stage with the steps in between replayed — and
    cached, so a caller pays only for the stages it reads.  The view never
    reads the run's final structure, which callers are free to mutate.
    """

    def __init__(
        self, initial: Structure, steps: Sequence[ChaseStep], stages_run: int
    ) -> None:
        self._built: Dict[int, Structure] = {0: initial}
        self._steps = steps
        self._length = stages_run + 1

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(self._length))]
        index = range(self._length)[index]
        built = self._built.get(index)
        if built is None:
            base = max(k for k in self._built if k < index)
            built = self._built[base].copy(name=f"chase_{index}")
            for step in self._steps[self._end(base) : self._end(index)]:
                built.add_atoms(step.new_atoms)
            self._built[index] = built
        return built

    def _end(self, stage: int) -> int:
        """The number of steps fired at stages ``≤ stage``."""
        return bisect.bisect_right(self._steps, stage, key=lambda step: step.stage)


@dataclass
class ChaseResult:
    """Outcome of a (bounded) chase run."""

    structure: Structure
    reached_fixpoint: bool
    stages_run: int
    stage_snapshots: Sequence[Structure] = field(default_factory=list)
    provenance: ChaseProvenance = field(default_factory=ChaseProvenance)
    #: Per-run accounting (:class:`repro.obs.report.ChaseRunStats`) attached
    #: by engines that collect it; ``None`` for the reference engine.
    stats: Optional[object] = None

    # ------------------------------------------------------------------
    @property
    def terminated(self) -> bool:
        """Alias for :attr:`reached_fixpoint` (the chase terminated on its own)."""
        return self.reached_fixpoint

    def stage(self, index: int) -> Structure:
        """The snapshot ``chase_index(T, D)`` (stage 0 is the input)."""
        return self.stage_snapshots[index]

    def final(self) -> Structure:
        """The last computed stage."""
        return self.structure

    def atoms_added(self) -> int:
        """Total number of atoms added over the whole run."""
        return sum(len(step.new_atoms) for step in self.provenance.steps)

    def new_atoms_at_stage(self, index: int) -> frozenset:
        """Atoms of ``chase_index`` that are not in ``chase_{index-1}``."""
        index = range(len(self.stage_snapshots))[index]
        if index == 0:
            return self.stage_snapshots[0].atoms()
        return self.provenance.atoms_created_at_stage(index)


@dataclass
class ChaseEngine:
    """A configurable chase runner.

    Parameters
    ----------
    tgds:
        The dependency set ``T``.
    max_stages:
        Upper bound on the number of stages to run (``None`` = unbounded;
        use only with terminating dependency sets).
    max_atoms:
        Safety budget on the total number of atoms; the run stops (or raises,
        see ``raise_on_budget``) when exceeded.
    raise_on_budget:
        Raise :class:`ChaseBudgetExceeded` instead of stopping when the atom
        budget is exceeded.

    :meth:`run` returns its stages as a lazy :class:`StageSnapshots` view;
    :meth:`iter_stages` copies every stage eagerly and is that view's oracle.
    """

    tgds: Sequence[TGD]
    max_stages: Optional[int] = None
    max_atoms: Optional[int] = None
    raise_on_budget: bool = False

    # ------------------------------------------------------------------
    def run(self, instance: Structure) -> ChaseResult:
        """Run the chase from *instance* (which is not modified)."""
        current = instance.copy(name=f"chase({instance.name})" if instance.name else "chase")
        null_factory = FreshNullFactory()
        provenance = ChaseProvenance()
        stage = 0
        reached_fixpoint = False
        while self.max_stages is None or stage < self.max_stages:
            stage += 1
            fired = self._run_stage(current, null_factory, provenance, stage)
            if not fired:
                reached_fixpoint = True
                stage -= 1  # the last stage added nothing: not counted
                break
            if self.max_atoms is not None and len(current) > self.max_atoms:
                if self.raise_on_budget:
                    raise ChaseBudgetExceeded(
                        f"chase exceeded the atom budget of {self.max_atoms}"
                    )
                break
        return ChaseResult(
            structure=current,
            reached_fixpoint=reached_fixpoint,
            stages_run=stage,
            stage_snapshots=StageSnapshots(
                instance.copy(name="chase_0"), provenance.steps, stage
            ),
            provenance=provenance,
        )

    # ------------------------------------------------------------------
    def iter_stages(self, instance: Structure) -> Iterator[Structure]:
        """Yield the chase stages lazily (stage 0 first), as they are computed.

        Unlike :meth:`run`, which computes the whole bounded chase before
        returning, this generator performs one stage per ``next()`` call, so a
        caller can stop early (e.g. as soon as a pattern appears) without
        paying for the rest of the run.  Each yielded structure is a private
        copy.  Budget semantics mirror :meth:`run`: with ``raise_on_budget``
        the :class:`ChaseBudgetExceeded` is raised as soon as the offending
        stage has been computed (before it is yielded); otherwise the
        over-budget stage is the last one yielded.
        """
        current = instance.copy(
            name=f"chase({instance.name})" if instance.name else "chase"
        )
        null_factory = FreshNullFactory()
        yield current.copy(name="chase_0")
        stage = 0
        while self.max_stages is None or stage < self.max_stages:
            stage += 1
            # No provenance: the generator exposes only the snapshots, and a
            # long iteration must not accumulate an unreachable step record.
            fired = self._run_stage(current, null_factory, None, stage)
            if not fired:
                return
            over_budget = self.max_atoms is not None and len(current) > self.max_atoms
            if over_budget and self.raise_on_budget:
                raise ChaseBudgetExceeded(
                    f"chase exceeded the atom budget of {self.max_atoms}"
                )
            yield current.copy(name=f"chase_{stage}")
            if over_budget:
                return

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        current: Structure,
        null_factory: FreshNullFactory,
        provenance: Optional[ChaseProvenance],
        stage: int,
    ) -> bool:
        """Run one stage; return ``True`` when at least one trigger fired."""
        frozen_start = current.copy()
        fired_any = False
        for tgd in self.tgds:
            # Body matches are looked for in the structure as it was at the
            # start of the stage (the paper's "b̄ ranges over elements of
            # chase_i"), head satisfaction is re-checked in the growing D.
            # Triggers fire in canonical order so that runs are reproducible
            # and the semi-naive engine (repro.engine) can match them exactly.
            triggers = sorted(
                find_triggers(
                    tgd, frozen_start, active_only=False, satisfaction_structure=current
                ),
                key=lambda t: trigger_sort_key(t.frontier_image),
            )
            for trigger in triggers:
                if head_satisfied(tgd, current, trigger.frontier_assignment):
                    continue
                outcome = apply_trigger(trigger, current, null_factory)
                if not outcome.new_atoms:
                    continue
                fired_any = True
                if provenance is not None:
                    provenance.record(
                        ChaseStep(
                            stage=stage,
                            trigger=trigger,
                            new_atoms=outcome.new_atoms,
                            new_elements=outcome.new_elements,
                        )
                    )
        return fired_any


# ----------------------------------------------------------------------
# Functional interface
# ----------------------------------------------------------------------
def chase(
    tgds: Sequence[TGD],
    instance: Structure,
    max_stages: Optional[int] = None,
    max_atoms: Optional[int] = None,
) -> ChaseResult:
    """Run the lazy chase of *instance* under *tgds* with the given bounds."""
    engine = ChaseEngine(tgds=list(tgds), max_stages=max_stages, max_atoms=max_atoms)
    return engine.run(instance)


def chase_i(tgds: Sequence[TGD], instance: Structure, stages: int) -> Structure:
    """The structure ``chase_stages(T, D)`` — exactly *stages* chase stages."""
    result = chase(tgds, instance, max_stages=stages)
    return result.final()


def chase_stages(
    tgds: Sequence[TGD], instance: Structure, stages: int
) -> List[Structure]:
    """The list ``[chase_0, chase_1, …, chase_stages]`` (shorter if a fixpoint hits)."""
    result = chase(tgds, instance, max_stages=stages)
    return list(result.stage_snapshots)


def chase_fixpoint(
    tgds: Sequence[TGD],
    instance: Structure,
    max_stages: int = 1000,
    max_atoms: Optional[int] = None,
) -> ChaseResult:
    """Chase until a fixpoint, failing loudly when the bound is hit first."""
    result = chase(tgds, instance, max_stages=max_stages, max_atoms=max_atoms)
    if not result.reached_fixpoint:
        raise ChaseBudgetExceeded(
            f"no fixpoint within {max_stages} stages / {max_atoms} atoms"
        )
    return result


def iterate_chase(
    tgds: Sequence[TGD], instance: Structure, max_stages: int
) -> Iterator[Structure]:
    """Yield chase stages one by one (stage 0 first), up to *max_stages*.

    A true generator: each stage is computed only when the caller asks for
    it, so breaking out of the loop early skips the remaining stages.
    """
    engine = ChaseEngine(tgds=list(tgds), max_stages=max_stages)
    return engine.iter_stages(instance)
