"""Plan-based, index-backed conjunctive-query evaluation.

This is the query-side counterpart of the semi-naive chase engine: the same
:class:`~repro.engine.indexes.AtomIndex` posting lists that drive delta
trigger discovery drive the compiled join here.  The functional layer at the
bottom is a drop-in replacement for :mod:`repro.core.homomorphism` —
identical solution *sets* (the reference backtracking search stays the
authoritative oracle, see ``tests/test_query_eval.py`` for the differential
suite) including ``fix`` pre-bindings, ``frozen`` elements and rigid
constants — with two performance differences:

* candidate atoms come from the most selective ``(predicate, position,
  value)`` posting list of the structure's cached index instead of a scan of
  every atom of the predicate, and
* the index is built once per structure (and maintained incrementally
  through structure listeners) instead of once per query; a structure that
  was just chased by the semi-naive engine arrives with its index already
  warm (see :mod:`repro.query.context`).

Layering invariant: this package imports only :mod:`repro.core` and
:mod:`repro.engine.indexes` — never :mod:`repro.chase` — so the chase layer
may call into it (lazily) without creating import cycles.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.atoms import Atom
from ..core.structure import Structure
from ..core.terms import is_rigid
from .compile import compiled_for, execute
from .context import EvalContext, get_context

if TYPE_CHECKING:  # type-only: keeps repro.query importable before repro.engine
    from ..engine.indexes import AtomIndex

Assignment = Dict[object, object]


# ----------------------------------------------------------------------
# Compiled execution + decode
# ----------------------------------------------------------------------
def _compiled_solutions(
    atoms: Sequence[Atom],
    index: AtomIndex,
    assignment: Assignment,
    hi: Optional[int],
    context: Optional[EvalContext] = None,
    strategy: str = "auto",
    first_only: bool = False,
) -> Iterator[Assignment]:
    """Decoded compiled matches of *atoms* extending *assignment*.

    The compiled form is cached on the index keyed by the query shape —
    the atom tuple plus *which* terms arrive pre-bound (their images are
    injected into the register file per call, so the same plan serves every
    ``fix`` value).  Yields fresh dictionaries.
    """
    # The shape key uses every pre-bound term; compilation itself only lays
    # out slots for the ones occurring in the atoms, so terms that merely
    # pass through the assignment cost one extra cache key at worst.
    bound_shape = frozenset(assignment)
    compiled = compiled_for(
        index, atoms if isinstance(atoms, tuple) else tuple(atoms), bound_shape,
        context=context,
    )
    interner = index.interner
    registers = compiled.fresh_registers()
    for term, slot in compiled.prebound:
        tid = interner.term_id(assignment[term])
        if tid is None:
            # The pre-bound image occurs in no indexed fact, so no atom can
            # ever match at that position within this snapshot.
            return
        registers[slot] = tid
    outputs = compiled.outputs
    for registers_out in execute(
        compiled,
        index,
        registers,
        hi=hi,
        strategy=strategy,
        first_only=first_only,
    ):
        solution = dict(assignment)
        for term, slot in outputs:
            solution[term] = interner.term(registers_out[slot])
        yield solution


# ----------------------------------------------------------------------
# Index-level API (no structure at hand — used by the chase engines)
# ----------------------------------------------------------------------
def iter_matches(
    atoms: Sequence[Atom],
    index: AtomIndex,
    assignment: Optional[Assignment] = None,
    hi: Optional[int] = None,
    strategy: str = "auto",
    first_only: bool = False,
) -> Iterator[Assignment]:
    """Compiled matches of *atoms* against *index*, extending *assignment*."""
    return _compiled_solutions(
        list(atoms),
        index,
        dict(assignment or {}),
        hi,
        strategy=strategy,
        first_only=first_only,
    )


def exists_match(
    atoms: Sequence[Atom],
    index: AtomIndex,
    assignment: Optional[Assignment] = None,
    hi: Optional[int] = None,
) -> bool:
    """Does at least one compiled match of *atoms* exist in *index*?"""
    return (
        next(iter_matches(atoms, index, assignment, hi, first_only=True), None)
        is not None
    )


# ----------------------------------------------------------------------
# Structure-level API (the drop-in replacement for core.homomorphism)
# ----------------------------------------------------------------------
#: Memoised static shape info per source-atom tuple: the distinct rigid
#: arguments (in occurrence order) and the set of all occurring terms.
#: Query bodies are built once and reused (TGD heads, spider bodies), so
#: this scan — O(atoms × args) isinstance checks per evaluation — is pure
#: repeated work; bounded to keep pathological one-shot callers in check.
_SHAPE_MEMO: Dict[Tuple[Atom, ...], Tuple[Tuple[object, ...], frozenset]] = {}
_SHAPE_MEMO_LIMIT = 4096


def _static_shape(
    atoms_key: Tuple[Atom, ...]
) -> Tuple[Tuple[object, ...], frozenset]:
    shape = _SHAPE_MEMO.get(atoms_key)
    if shape is None:
        occurring = set()
        rigid: list = []
        for atom in atoms_key:
            occurring.update(atom.args)
            for arg in atom.args:
                if is_rigid(arg) and arg not in rigid:
                    rigid.append(arg)
        if len(_SHAPE_MEMO) >= _SHAPE_MEMO_LIMIT:
            _SHAPE_MEMO.clear()
        shape = _SHAPE_MEMO[atoms_key] = (tuple(rigid), frozenset(occurring))
    return shape


def _initial_assignment(
    source_atoms: Sequence[Atom],
    target: Structure,
    fix: Optional[Mapping[object, object]],
    frozen: Iterable[object],
    atoms_key: Optional[Tuple[Atom, ...]] = None,
) -> Optional[Assignment]:
    """The pre-bound part of the search, or ``None`` when unsatisfiable.

    Mirrors ``HomomorphismProblem._initial_assignment`` exactly: ``fix``
    entries are taken as-is, rigid constants and frozen elements occurring
    in the source atoms must map to themselves, and any pre-bound element
    that occurs in a source atom must have its image in the target domain.
    """
    if atoms_key is None:
        atoms_key = tuple(source_atoms)
    rigid_terms, occurring = _static_shape(atoms_key)
    assignment: Assignment = dict(fix or {})
    for arg in rigid_terms:
        if arg in assignment and assignment[arg] != arg:
            return None
        assignment[arg] = arg
    for element in frozen:
        if element in occurring:
            if element in assignment and assignment[element] != element:
                return None
            assignment[element] = element
    if atoms_key:
        for element, image in assignment.items():
            if element in occurring and not target.has_element(image):
                return None
    return assignment


def _source_atoms(source: Structure | Sequence[Atom]) -> list:
    return list(source.atoms()) if isinstance(source, Structure) else list(source)


def iter_homomorphisms(
    source: Structure | Sequence[Atom],
    target: Structure,
    fix: Optional[Mapping[object, object]] = None,
    frozen: Iterable[object] = (),
    limit: Optional[int] = None,
    context: Optional[EvalContext] = None,
    strategy: Optional[str] = None,
) -> Iterator[Assignment]:
    """Yield homomorphisms ``source → target`` through the compiled runtime.

    Same contract as ``HomomorphismProblem(...).solutions(limit)``: the
    yielded dictionaries bind every ``fix`` key, every rigid/frozen element
    occurring in the source atoms, and every source variable.  The index
    watermark is captured before the first solution is produced, so atoms
    added to *target* while the generator is being consumed are not seen
    (the reference search snapshots its candidates the same way).

    ``strategy`` selects the join executor: ``"auto"`` (worst-case-optimal
    generic join on large cyclic bodies, hash join where the planner
    predicts left-deep probing degrades, nested otherwise), ``"nested"``,
    ``"hash"``, or ``"wcoj"``; ``None`` defers to the evaluation context's
    :attr:`~repro.query.context.EvalContext.default_strategy`.
    """
    atoms = tuple(_source_atoms(source))
    assignment = _initial_assignment(atoms, target, fix, frozen, atoms_key=atoms)
    if assignment is None:
        return
    resolved = get_context(context)
    if strategy is None:
        strategy = resolved.default_strategy
    index = resolved.index_for(target)
    hi = index.watermark()
    produced = 0
    for solution in _compiled_solutions(
        atoms,
        index,
        assignment,
        hi,
        context=resolved,
        strategy=strategy,
        first_only=limit == 1,
    ):
        yield solution
        produced += 1
        if limit is not None and produced >= limit:
            return


def all_homomorphisms(
    source: Structure | Sequence[Atom],
    target: Structure,
    fix: Optional[Mapping[object, object]] = None,
    limit: Optional[int] = None,
    context: Optional[EvalContext] = None,
    strategy: Optional[str] = None,
) -> Iterator[Assignment]:
    """Index-backed drop-in for :func:`repro.core.homomorphism.all_homomorphisms`."""
    return iter_homomorphisms(
        source, target, fix=fix, limit=limit, context=context, strategy=strategy
    )


def find_homomorphism(
    source: Structure | Sequence[Atom],
    target: Structure,
    fix: Optional[Mapping[object, object]] = None,
    context: Optional[EvalContext] = None,
) -> Optional[Assignment]:
    """Index-backed drop-in for :func:`repro.core.homomorphism.find_homomorphism`."""
    # Imported here (not at module level) only to share the single source of
    # truth for the isolated-element completion rule with the reference.
    from ..core.homomorphism import _complete_isolated

    atoms = _source_atoms(source)
    for solution in iter_homomorphisms(atoms, target, fix=fix, limit=1, context=context):
        if isinstance(source, Structure):
            _complete_isolated(source, target, solution)
        return solution
    if isinstance(source, Structure) and not atoms:
        solution = dict(fix or {})
        _complete_isolated(source, target, solution)
        return solution
    if not isinstance(source, Structure) and not atoms:
        return dict(fix or {})
    return None


def exists_homomorphism(
    source: Structure | Sequence[Atom],
    target: Structure,
    fix: Optional[Mapping[object, object]] = None,
    context: Optional[EvalContext] = None,
) -> bool:
    """Index-backed drop-in for :func:`repro.core.homomorphism.has_homomorphism`."""
    return find_homomorphism(source, target, fix=fix, context=context) is not None


# ----------------------------------------------------------------------
# Query-level API
# ----------------------------------------------------------------------
def query_homomorphisms(
    query, instance: Structure, context: Optional[EvalContext] = None
) -> Iterator[Assignment]:
    """All homomorphisms of the canonical structure of *query* into *instance*.

    *query* is anything with ``atoms`` (duck-typed to avoid importing
    :mod:`repro.core.query`, which itself routes through this module).
    """
    return iter_homomorphisms(list(query.atoms), instance, context=context)


def evaluate(
    query, instance: Structure, context: Optional[EvalContext] = None
) -> frozenset:
    """The relation ``Q(D) = {ā : D |= Q(ā)}`` via the planned evaluator."""
    free = tuple(query.free_variables)
    answers = set()
    for assignment in iter_homomorphisms(list(query.atoms), instance, context=context):
        answers.add(tuple(assignment[v] for v in free))
    return frozenset(answers)


def query_holds(
    query,
    instance: Structure,
    answer: Sequence[object] = (),
    context: Optional[EvalContext] = None,
) -> bool:
    """``D |= Q(ā)`` (boolean satisfaction when *answer* is empty).

    Raises :class:`repro.core.query.QueryError` when a non-empty *answer*
    does not match the query arity (same contract as the reference
    ``ConjunctiveQuery.holds``).
    """
    free = tuple(query.free_variables)
    if answer and len(answer) != len(free):
        from ..core.query import QueryError

        raise QueryError(
            f"answer arity {len(answer)} does not match query arity {len(free)}"
        )
    fix: Assignment = dict(zip(free, answer)) if answer else {}
    return (
        next(
            iter_homomorphisms(
                list(query.atoms), instance, fix=fix, limit=1, context=context
            ),
            None,
        )
        is not None
    )


# ----------------------------------------------------------------------
# Isomorphisms and homomorphism checking (ROADMAP item h)
# ----------------------------------------------------------------------
def is_homomorphism(
    assignment: Mapping[object, object], source: Structure, target: Structure
) -> bool:
    """Drop-in for :func:`repro.core.homomorphism.is_homomorphism`.

    Identical verdicts to the reference (the differential suite holds them
    against each other); the difference is per-atom cost — ground membership
    is checked in O(1) through the structure's live atom set instead of
    re-materialising ``target.atoms()`` into a fresh frozenset per atom.
    """
    for element in source.domain():
        if element not in assignment:
            return False
        if is_rigid(element) and assignment[element] != element:
            return False
    for atom in source.atoms():
        if not target.satisfies_atom(atom.substitute(assignment)):
            return False
    return True


def find_isomorphism(
    first: Structure, second: Structure, context: Optional[EvalContext] = None
) -> Optional[Assignment]:
    """Drop-in for :func:`repro.core.homomorphism.find_isomorphism`.

    Same candidate filtering as the reference (bijective homomorphism whose
    image reproduces the atom set exactly), but the candidate homomorphisms
    are enumerated by the compiled runtime against the cached index of
    *second* — with O(1) pre-checks on the atom/domain/per-predicate counts
    short-circuiting the obvious non-isomorphic pairs.
    """
    from ..core.homomorphism import _complete_isolated, is_embedding

    if len(first) != len(second):
        return None
    if len(first.domain()) != len(second.domain()):
        return None
    predicates = first.predicates() | second.predicates()
    for predicate in predicates:
        if first.count_atoms_with_predicate(
            predicate
        ) != second.count_atoms_with_predicate(predicate):
            return None
    for assignment in iter_homomorphisms(
        list(first.atoms()), second, context=context
    ):
        full = dict(assignment)
        _complete_isolated(first, second, full)
        if not is_embedding(full):
            continue
        if len(set(full.values())) != len(second.domain()):
            continue
        image = first.rename_elements(full)
        if image.atoms() == second.atoms():
            return full
    return None


def are_isomorphic(
    first: Structure, second: Structure, context: Optional[EvalContext] = None
) -> bool:
    """Drop-in for :func:`repro.core.homomorphism.are_isomorphic`."""
    return find_isomorphism(first, second, context=context) is not None
