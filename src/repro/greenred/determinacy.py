"""Determinacy checkers built on the green-red reformulation.

Section IV of the paper restates CQfDP three times:

* **CQfDP** -- the original two-instance formulation;
* **CQfDP.2** -- one two-coloured instance ``D`` over ``Σ̄`` with condition ¶
  (green and red views agree);
* **CQfDP.3** -- via Lemma 4: for every (finite) ``D`` and tuple ``ā``, if
  ``D |= T_Q, G(Q0)(ā)`` then ``D |= R(Q0)(ā)``.

For the *unrestricted* problem a single universal structure suffices:
determinacy holds iff ``chase(T_Q, green(Q0)) |= red(Q0)`` (at the canonical
answer tuple).  For the *finite* problem no universal structure exists --
that is exactly what makes the paper's result hard -- so the finite checker
can only (a) certify non-determinacy when handed (or when it finds) a finite
counter-model, and (b) certify determinacy when the chase-based argument
happens to terminate finitely (a finite chase is itself a finite structure,
so the unrestricted positive answer transfers).

Both checkers return three-valued :class:`~repro.greenred.certificates.Verdict`
objects with certificates; undecidability of the problem (Theorem 1) is the
reason the ``UNKNOWN`` verdict can never be eliminated.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Tuple

from ..chase.tgd import TGD
from ..chase.trigger import all_satisfied
from ..engine import run_chase
from ..core.query import ConjunctiveQuery
from ..core.structure import Structure
from ..core.terms import LabeledNull
from .certificates import (
    CounterexampleCertificate,
    DeterminacyCertificate,
    DeterminacyReport,
    Verdict,
)
from .coloring import (
    Color,
    dalt_structure,
    green_part,
    green_query,
    red_part,
    red_query,
)
from .tq import build_tq


# ----------------------------------------------------------------------
# The canonical green instance of Q0 and the canonical answer
# ----------------------------------------------------------------------
def green_canonical_instance(
    query: ConjunctiveQuery,
) -> Tuple[Structure, Tuple[object, ...]]:
    """The structure ``green(Q0)`` of Section I.A and its canonical answer.

    The structure is the canonical structure of ``G(Q0)`` (elements are the
    variables and constants of ``Q0``); the canonical answer is the tuple of
    free variables themselves.
    """
    painted = green_query(query)
    instance = painted.canonical_structure()
    instance.name = f"green({query.name})"
    return instance, tuple(query.free_variables)


# ----------------------------------------------------------------------
# Unrestricted determinacy via the universal chase structure
# ----------------------------------------------------------------------
def check_unrestricted_determinacy(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    max_stages: int = 50,
    max_atoms: int = 20_000,
    context=None,
) -> DeterminacyReport:
    """Bounded decision procedure for CQDP (the unrestricted problem).

    Runs the chase of ``green(Q0)`` under ``T_Q`` and looks for ``red(Q0)``
    at the canonical answer after every stage.  The procedure is sound in
    both directions whenever it answers (the chase is a universal structure,
    [JK82]); it answers ``UNKNOWN`` when the bounds are exhausted first.

    The certificate search exploits two facts: ``red(Q0)`` at a fixed answer
    is *monotone* under atom addition, so it is decided on the final chase
    structure first (whose :class:`~repro.engine.indexes.AtomIndex` the
    semi-naive engine just donated to the evaluation context — no index
    rebuild), and only on success is the earliest witnessing stage located
    by binary search over the snapshots.  *context* scopes both the chase
    hand-off and every certificate check (``None`` = the shared context).
    """
    from ..query.evaluator import query_holds

    tgds = build_tq(views)
    instance, answer = green_canonical_instance(query)
    target = red_query(query)
    if query_holds(target, instance, answer, context=context):
        return DeterminacyReport(
            Verdict.DETERMINED,
            certificate=DeterminacyCertificate(instance, stage=0),
            detail="red(Q0) already true in green(Q0)",
        )
    result = run_chase(
        tgds, instance, max_stages=max_stages, max_atoms=max_atoms, context=context
    )
    if query_holds(target, result.structure, answer, context=context):
        stage_index = _first_stage_with(
            target, result.stage_snapshots, answer, context=context
        )
        return DeterminacyReport(
            Verdict.DETERMINED,
            certificate=DeterminacyCertificate(
                result.stage_snapshots[stage_index], stage=stage_index
            ),
            detail=f"red(Q0) reached at chase stage {stage_index}",
        )
    if result.reached_fixpoint:
        return DeterminacyReport(
            Verdict.NOT_DETERMINED,
            counterexample=CounterexampleCertificate(result.structure, answer),
            detail="chase reached a fixpoint without red(Q0); the chase itself "
            "is a (finite) counterexample",
        )
    return DeterminacyReport(
        Verdict.UNKNOWN,
        detail=f"no red(Q0) within {result.stages_run} stages "
        f"({len(result.structure)} atoms); chase did not terminate",
    )


def _first_stage_with(
    target: ConjunctiveQuery,
    snapshots: Sequence[Structure],
    answer: Tuple[object, ...],
    context=None,
) -> int:
    """The earliest snapshot index at which ``target(answer)`` holds.

    Pre-condition: it holds at the last snapshot.  Satisfaction at a fixed
    answer is monotone along chase stages, so binary search applies — only
    O(log stages) snapshots get queried (and indexed) at all.
    """
    from ..query.evaluator import query_holds

    lo, hi = 0, len(snapshots) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if query_holds(target, snapshots[mid], answer, context=context):
            hi = mid
        else:
            lo = mid + 1
    return lo


# ----------------------------------------------------------------------
# Finite determinacy
# ----------------------------------------------------------------------
def is_finite_counterexample(
    structure: Structure,
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    answer: Optional[Tuple[object, ...]] = None,
) -> bool:
    """Check condition · of CQfDP.3 against a *candidate* finite structure.

    ``structure`` (over ``Σ̄``) refutes finite determinacy when it satisfies
    ``T_Q``, contains ``G(Q0)`` at some tuple ``ā`` and does not contain
    ``R(Q0)`` at the same ``ā``.  When *answer* is omitted, all green matches
    are tried.
    """
    tgds = build_tq(views)
    if not all_satisfied(tgds, structure):
        return False
    green_q = green_query(query)
    red_q = red_query(query)
    if answer is not None:
        return green_q.holds(structure, answer) and not red_q.holds(structure, answer)
    for candidate in green_q.evaluate(structure):
        if not red_q.holds(structure, candidate):
            return True
    return False


def check_finite_determinacy(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    max_stages: int = 50,
    max_atoms: int = 20_000,
    candidate_countermodels: Iterable[Structure] = (),
    fold_search_limit: int = 0,
) -> DeterminacyReport:
    """Bounded, sound-when-it-answers check for CQfDP (the finite problem).

    The checker combines three sound arguments:

    1. if the chase of ``green(Q0)`` under ``T_Q`` makes ``red(Q0)`` true at
       some finite stage, then ``Q`` *finitely* determines ``Q0`` (every
       finite model containing green(Q0) receives a homomorphic image of the
       chase prefix, and red(Q0) is preserved by homomorphisms);
    2. if some supplied (or fold-searched) finite structure is a
       counterexample in the CQfDP.3 sense, finite determinacy fails;
    3. otherwise the answer is ``UNKNOWN`` -- unavoidable in general, since
       the problem is undecidable (Theorem 1).
    """
    unrestricted = check_unrestricted_determinacy(
        views, query, max_stages=max_stages, max_atoms=max_atoms
    )
    if unrestricted.verdict is Verdict.DETERMINED:
        return DeterminacyReport(
            Verdict.DETERMINED,
            certificate=unrestricted.certificate,
            detail="determined already in the unrestricted sense: " + unrestricted.detail,
        )
    for candidate in candidate_countermodels:
        if is_finite_counterexample(candidate, views, query):
            answer = _some_failing_answer(candidate, views, query)
            return DeterminacyReport(
                Verdict.NOT_DETERMINED,
                counterexample=CounterexampleCertificate(candidate, answer),
                detail="supplied candidate is a finite counter-model",
            )
    if unrestricted.verdict is Verdict.NOT_DETERMINED and unrestricted.counterexample:
        # A terminating chase is itself finite, hence also a finite counterexample.
        return DeterminacyReport(
            Verdict.NOT_DETERMINED,
            counterexample=unrestricted.counterexample,
            detail="the terminating chase is a finite counter-model",
        )
    if fold_search_limit > 0:
        folded = search_counterexample_by_folding(
            views,
            query,
            max_stages=max_stages,
            attempts=fold_search_limit,
            max_atoms=max_atoms,
        )
        if folded is not None:
            answer = _some_failing_answer(folded, views, query)
            return DeterminacyReport(
                Verdict.NOT_DETERMINED,
                counterexample=CounterexampleCertificate(folded, answer),
                detail="found a finite counter-model by folding the chase",
            )
    return DeterminacyReport(
        Verdict.UNKNOWN,
        detail="bounds exhausted: " + unrestricted.detail,
    )


def _some_failing_answer(
    structure: Structure,
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
) -> Tuple[object, ...]:
    green_q = green_query(query)
    red_q = red_query(query)
    for candidate in green_q.evaluate(structure):
        if not red_q.holds(structure, candidate):
            return candidate
    return ()


# ----------------------------------------------------------------------
# Folding search: quotients of chase prefixes as candidate counter-models
# ----------------------------------------------------------------------
def search_counterexample_by_folding(
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    max_stages: int = 10,
    attempts: int = 200,
    max_atoms: int = 5_000,
) -> Optional[Structure]:
    """Heuristic search for a finite counter-model.

    Finite models of ``T_Q`` often arise as quotients of chase prefixes
    (identify labelled nulls so that the frontier of every unsatisfied
    trigger is "closed back" onto existing elements).  This routine chases a
    bounded number of stages and then tries merging pairs of nulls, keeping
    any quotient that satisfies ``T_Q`` and refutes ``R(Q0)``.

    The search is deliberately best-effort: it is used by examples and tests
    on small instances, never as a completeness claim (the problem is
    undecidable, after all).
    """
    tgds = build_tq(views)
    instance, answer = green_canonical_instance(query)
    result = run_chase(tgds, instance, max_stages=max_stages, max_atoms=max_atoms)
    base = result.structure
    if _is_counterexample_structure(base, tgds, views, query, answer):
        return base
    nulls = sorted(
        (e for e in base.domain() if isinstance(e, LabeledNull)),
        key=lambda n: n.index,
    )
    tried = 0
    for first, second in itertools.combinations(nulls, 2):
        if tried >= attempts:
            break
        tried += 1
        quotient = base.quotient({second: first})
        if _is_counterexample_structure(quotient, tgds, views, query, answer):
            return quotient
    return None


def _is_counterexample_structure(
    structure: Structure,
    tgds: Sequence[TGD],
    views: Sequence[ConjunctiveQuery],
    query: ConjunctiveQuery,
    answer: Tuple[object, ...],
) -> bool:
    if not all_satisfied(list(tgds), structure):
        return False
    if not green_query(query).holds(structure, answer):
        return False
    return not red_query(query).holds(structure, answer)


# ----------------------------------------------------------------------
# Translating a two-coloured counterexample back to a pair of instances
# ----------------------------------------------------------------------
def counterexample_pair(
    certificate: CounterexampleCertificate,
) -> Tuple[Structure, Structure]:
    """The pair ``(D1, D2)`` of ``Σ``-instances behind a coloured counterexample.

    ``D1 = dalt(D ↾ G)`` and ``D2 = dalt(D ↾ R)``: they share the same
    domain, every view returns the same answers on both (condition ¶), yet
    ``Q0`` distinguishes them — the original CQfDP formulation.
    """
    structure = certificate.structure
    first = dalt_structure(green_part(structure), name="D1")
    second = dalt_structure(red_part(structure), name="D2")
    return first, second


def colored_instance_from_pair(first: Structure, second: Structure) -> Structure:
    """``G(D1) ∪ R(D2)`` over a shared domain (the CQfDP → CQfDP.2 direction)."""
    from .coloring import green_structure, red_structure

    return green_structure(first).union(red_structure(second), name="two-colored")
