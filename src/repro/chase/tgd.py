"""Tuple Generating Dependencies (TGDs).

A TGD (Section II.B of the paper) is a formula

    ∀x̄, ȳ [ Φ(x̄, ȳ) ⇒ ∃z̄ Ψ(z̄, ȳ) ]

where Φ (the *body*) and Ψ (the *head*) are conjunctions of atoms.  The
variables ȳ shared between body and head are the *frontier*; they are the
interface between the "new" part of a structure added by an application of
the TGD and the "old" structure (the paper stresses exactly this point).

TGDs are deliberately kept dumb data objects; how they *act on a structure*
is the business of :mod:`repro.chase.trigger` and :mod:`repro.chase.chase`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from ..core.atoms import Atom
from ..core.builders import _split_atoms, parse_atom
from ..core.query import ConjunctiveQuery
from ..core.terms import Constant, Variable


class TGDError(ValueError):
    """Raised for malformed tuple generating dependencies."""


def _by_name(variables: FrozenSet[Variable]) -> Tuple[Variable, ...]:
    return tuple(sorted(variables, key=lambda v: v.name))


@dataclass(frozen=True)
class TGD:
    """A single tuple generating dependency ``body ⇒ ∃ head``."""

    name: str
    body: Tuple[Atom, ...]
    head: Tuple[Atom, ...]

    def __init__(self, name: str, body: Iterable[Atom], head: Iterable[Atom]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "body", tuple(body))
        object.__setattr__(self, "head", tuple(head))
        if not self.body:
            raise TGDError("a TGD needs a non-empty body")
        if not self.head:
            raise TGDError("a TGD needs a non-empty head")
        # The chase classifies a TGD's variables for every trigger it fires
        # (frontier keys, fresh nulls, the head check), and a TGD never
        # changes, so the classification is computed once here — the way
        # Atom caches its hash.  These are not dataclass fields: equality
        # and hashing still compare name, body and head only.
        body_vars = frozenset(v for atom in self.body for v in atom.variables())
        head_vars = frozenset(v for atom in self.head for v in atom.variables())
        frontier = body_vars & head_vars
        existentials = head_vars - body_vars
        object.__setattr__(self, "_body_variables", body_vars)
        object.__setattr__(self, "_head_variables", head_vars)
        object.__setattr__(self, "_frontier", frontier)
        object.__setattr__(self, "_existentials", existentials)
        object.__setattr__(self, "sorted_frontier", _by_name(frontier))
        object.__setattr__(self, "sorted_existentials", _by_name(existentials))

    # ------------------------------------------------------------------
    # Variable classification (computed once, in __init__).  Besides the
    # methods below, two plain attributes hold name-ordered tuples:
    # ``sorted_frontier`` (the order of frontier keys, trigger bindings and
    # the free variables of body_query/head_query) and
    # ``sorted_existentials`` (the order in which a firing draws nulls).
    # ------------------------------------------------------------------
    def body_variables(self) -> FrozenSet[Variable]:
        """All variables of the body (x̄ ∪ ȳ)."""
        return self._body_variables  # type: ignore[attr-defined]

    def head_variables(self) -> FrozenSet[Variable]:
        """All variables of the head (ȳ ∪ z̄)."""
        return self._head_variables  # type: ignore[attr-defined]

    def frontier(self) -> FrozenSet[Variable]:
        """The frontier ȳ: variables shared between body and head."""
        return self._frontier  # type: ignore[attr-defined]

    def existential_variables(self) -> FrozenSet[Variable]:
        """The existential head variables z̄."""
        return self._existentials  # type: ignore[attr-defined]

    def constants(self) -> FrozenSet[Constant]:
        """All constants mentioned by the dependency."""
        result = set()
        for atom in self.body + self.head:
            result.update(atom.constants())
        return frozenset(result)

    def predicates(self) -> FrozenSet[str]:
        """All predicate names mentioned by the dependency."""
        return frozenset(atom.predicate for atom in self.body + self.head)

    def is_full(self) -> bool:
        """True when the TGD has no existential variables (a "full" TGD)."""
        return not self._existentials  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Views of the two sides as conjunctive queries
    # ------------------------------------------------------------------
    def body_query(self) -> ConjunctiveQuery:
        """The body as a CQ with the frontier as free variables."""
        return ConjunctiveQuery(f"{self.name}::body", self.sorted_frontier, self.body)

    def head_query(self) -> ConjunctiveQuery:
        """The head as a CQ with the frontier as free variables."""
        return ConjunctiveQuery(f"{self.name}::head", self.sorted_frontier, self.head)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(repr(a) for a in self.body)
        head = ", ".join(repr(a) for a in self.head)
        return f"[{self.name}] {body} -> {head}"

    # ------------------------------------------------------------------
    @staticmethod
    def parse(text: str, name: str = "") -> "TGD":
        """Parse ``"R(x,y), S(y,z) -> T(x,w), U(w,#a)"`` into a TGD."""
        if "->" not in text:
            raise TGDError("a TGD needs a '->' separating body and head")
        body_text, head_text = text.split("->", 1)
        body = [parse_atom(p, as_query_atom=True) for p in _split_atoms(body_text)]
        head = [parse_atom(p, as_query_atom=True) for p in _split_atoms(head_text)]
        return TGD(name or "tgd", body, head)


def parse_tgds(*texts: str, prefix: str = "tgd") -> List[TGD]:
    """Parse several TGDs, naming them ``prefix0, prefix1, …``."""
    return [TGD.parse(text, name=f"{prefix}{i}") for i, text in enumerate(texts)]


def rename_tgd_predicates(tgd: TGD, renaming) -> TGD:
    """Apply a predicate renaming to both sides of a TGD."""
    return TGD(
        tgd.name,
        tuple(atom.rename_predicate(renaming) for atom in tgd.body),
        tuple(atom.rename_predicate(renaming) for atom in tgd.head),
    )


def standardise_apart(tgds: Sequence[TGD]) -> List[TGD]:
    """Rename variables so that distinct TGDs share no variable names.

    Not required for correctness of the chase (each TGD is matched
    independently) but convenient when sets of TGDs are merged, printed or
    compared.
    """
    result: List[TGD] = []
    for index, tgd in enumerate(tgds):
        mapping = {
            var: Variable(f"{var.name}__{index}")
            for var in (tgd.body_variables() | tgd.head_variables())
        }
        result.append(
            TGD(
                tgd.name,
                tuple(atom.substitute(mapping) for atom in tgd.body),
                tuple(atom.substitute(mapping) for atom in tgd.head),
            )
        )
    return result
