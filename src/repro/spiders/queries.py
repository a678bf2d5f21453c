"""Spider queries ``f^I_J`` and the binary queries of ``F2`` at Level 0.

A spider query ``f^I_J`` is (the quantifier-free part of) a conjunctive query
over the uncoloured spider signature whose canonical structure is a spider
*without* the calves of the upper legs in ``I`` and the lower legs in ``J``;
its tail, antenna and the knees of the ``I``/``J`` legs are its free
variables.  Painted green on the left and red on the right (Definition 3),
the resulting TGD matches a real spider ``H^{I′}_{J′}`` exactly when
``I′ ⊆ I`` and ``J′ ⊆ J`` and produces ``I^{I\\I′}_{J\\J′}`` — the Rule of
Spider Algebra ♣ (Section V.B).

The set ``F2`` of *binary* queries contains, for every two spider queries,

* ``f^I_J & f^{I′}_{J′}`` — the disjoint union of the two canonical
  structures with the *antennas identified* (and existentially quantified),
  tails free;
* ``f^I_J / f^{I′}_{J′}`` — the same with the *tails identified* (and
  quantified), antennas free.

These binary queries, over the plain signature ``Σ``, are the conjunctive
queries that the whole construction ultimately outputs (via ``Compile``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.structure import Structure
from ..core.terms import Variable
from ..query.evaluator import iter_homomorphisms
from .algebra import SpiderQuerySpec
from .anatomy import CALF_END, HEAD_PREDICATE, calf_predicate, thigh_predicate
from .ideal import SpiderUniverse


class BinaryKind(Enum):
    """The two ways of joining two spider queries into an ``F2`` query."""

    SHARED_ANTENNA = "&"
    SHARED_TAIL = "/"


@dataclass(frozen=True)
class SpiderQueryBody:
    """The quantifier-free part of a unary spider query ``f^I_J``."""

    spec: SpiderQuerySpec
    atoms: Tuple[Atom, ...]
    head: Variable
    tail: Variable
    antenna: Variable
    free_knees: Tuple[Variable, ...]

    def free_variables(self) -> Tuple[Variable, ...]:
        """Tail, antenna and the knees of the ``I``/``J`` legs."""
        return (self.tail, self.antenna) + self.free_knees


def unary_query_body(
    universe: SpiderUniverse, spec: SpiderQuerySpec, prefix: str
) -> SpiderQueryBody:
    """Build the body of ``f^I_J`` with variables prefixed by *prefix*."""
    head = Variable(f"{prefix}_head")
    tail = Variable(f"{prefix}_tail")
    antenna = Variable(f"{prefix}_antenna")
    atoms: List[Atom] = [Atom(HEAD_PREDICATE, (head, tail, antenna))]
    free_knees: List[Variable] = []
    for leg in universe.legs:
        for upper in (True, False):
            side = "u" if upper else "l"
            knee = Variable(f"{prefix}_knee_{side}_{leg}")
            atoms.append(Atom(thigh_predicate(leg, upper), (head, knee)))
            off_set = spec.upper if upper else spec.lower
            if leg in off_set:
                # The calf of an I/J leg is omitted from the query and its
                # knee becomes a free variable: this is what lets a fired TGD
                # inherit the old calf and realise ♣.
                free_knees.append(knee)
            else:
                atoms.append(Atom(calf_predicate(leg, upper), (knee, CALF_END)))
    return SpiderQueryBody(
        spec=spec,
        atoms=tuple(atoms),
        head=head,
        tail=tail,
        antenna=antenna,
        free_knees=tuple(free_knees),
    )


def unary_spider_query(
    universe: SpiderUniverse, spec: SpiderQuerySpec, name: str = ""
) -> ConjunctiveQuery:
    """``f^I_J`` as a standalone conjunctive query (mostly for tests)."""
    body = unary_query_body(universe, spec, prefix="s")
    return ConjunctiveQuery(
        name or spec.key(), body.free_variables(), body.atoms
    )


def binary_spider_query(
    universe: SpiderUniverse,
    kind: BinaryKind,
    first: SpiderQuerySpec,
    second: SpiderQuerySpec,
    name: str = "",
) -> ConjunctiveQuery:
    """An ``F2`` query ``f^I_J & f^{I′}_{J′}`` or ``f^I_J / f^{I′}_{J′}``."""
    left = unary_query_body(universe, first, prefix="L")
    right = unary_query_body(universe, second, prefix="R")
    if kind is BinaryKind.SHARED_ANTENNA:
        # Identify the antennas; they become a single existential variable.
        shared = Variable("shared_antenna")
        substitution_left: Dict[object, object] = {left.antenna: shared}
        substitution_right: Dict[object, object] = {right.antenna: shared}
        free = (
            (left.tail, right.tail)
            + left.free_knees
            + right.free_knees
        )
    else:
        shared = Variable("shared_tail")
        substitution_left = {left.tail: shared}
        substitution_right = {right.tail: shared}
        free = (
            (left.antenna, right.antenna)
            + left.free_knees
            + right.free_knees
        )
    atoms = tuple(a.substitute(substitution_left) for a in left.atoms) + tuple(
        a.substitute(substitution_right) for a in right.atoms
    )
    default_name = f"{first.key()} {kind.value} {second.key()}"
    return ConjunctiveQuery(name or default_name, free, atoms)


def query_pair_name(
    kind: BinaryKind, first: SpiderQuerySpec, second: SpiderQuerySpec
) -> str:
    """The canonical name of an ``F2`` query."""
    return f"{first.key()} {kind.value} {second.key()}"


# ----------------------------------------------------------------------
# Index-backed spider-query matching
# ----------------------------------------------------------------------
def spider_query_matches(
    universe: SpiderUniverse,
    spec: SpiderQuerySpec,
    structure: Structure,
    prefix: str = "s",
    limit: Optional[int] = None,
    context=None,
) -> Iterator[Dict[object, object]]:
    """Matches of the body of ``f^I_J`` in *structure*, planned and indexed.

    The spider bodies are the worst case for the reference backtracking
    search: every calf atom touches the shared ``calf_end`` constant, so a
    naive enumeration degenerates into a cross-product.  Here the body runs
    through :mod:`repro.query` — the greedy plan anchors the search at the
    ``SpiderHead`` atom and walks thighs/calves through
    ``(predicate, position, value)`` posting lists of the structure's cached
    index.
    """
    body = unary_query_body(universe, spec, prefix=prefix)
    return iter_homomorphisms(
        list(body.atoms), structure, limit=limit, context=context
    )


def spider_query_holds(
    universe: SpiderUniverse, spec: SpiderQuerySpec, structure: Structure
) -> bool:
    """Does ``∃* f^I_J`` hold in *structure*?"""
    return next(spider_query_matches(universe, spec, structure, limit=1), None) is not None
