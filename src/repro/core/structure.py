"""Finite relational structures (database instances).

A :class:`Structure` is a set of positive ground atoms together with a domain
(Section II.A of the paper).  The domain may contain isolated elements (not
occurring in any atom) and always contains every declared constant.

The class is mutable (atoms and elements can be added), because the chase and
the various grid/counter-model constructions of the paper grow structures in
place; :meth:`Structure.copy` and :meth:`Structure.freeze` give cheap
snapshots where an immutable view is needed.

Operations provided here are exactly those the paper uses:

* substructure / superstructure tests,
* union and disjoint union (constants are shared, other elements renamed),
* quotients by an equivalence on elements (used by ``compile`` of spiders and
  by the grid constructions where border vertices coincide),
* induced substructures and predicate restrictions (used for ``D ↾ G`` and
  ``D ↾ R`` in the green-red machinery).
"""

from __future__ import annotations

from collections import defaultdict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from .atoms import Atom
from .signature import Signature
from .terms import Constant


class StructureListener:
    """Observer protocol for incremental maintenance of derived data.

    Indexes (see :mod:`repro.engine.indexes`) attach themselves to a structure
    and are told about every atom mutation, which lets them stay in sync
    without rescanning the atom set.  Listeners are deliberately *not* carried
    over by :meth:`Structure.copy`: a copy is a fresh structure and whoever
    needs an index on it attaches a fresh one.
    """

    def atom_added(self, atom: Atom) -> None:  # pragma: no cover - protocol
        """Called after *atom* was genuinely added."""

    def atom_removed(self, atom: Atom) -> None:  # pragma: no cover - protocol
        """Called after *atom* was genuinely removed."""


class Structure:
    """A finite relational structure over an (optional) signature."""

    def __init__(
        self,
        atoms: Iterable[Atom] = (),
        domain: Iterable[object] = (),
        signature: Optional[Signature] = None,
        name: str = "",
    ) -> None:
        self.name = name
        self._signature = signature
        self._atoms: Set[Atom] = set()
        self._by_predicate: Dict[str, Set[Atom]] = defaultdict(set)
        self._domain: Set[object] = set()
        self._listeners: List["StructureListener"] = []
        self._generation = 0
        self._canonical_cache: Optional[Tuple[int, Tuple[Atom, ...]]] = None
        if signature is not None:
            for constant in signature.constants:
                self._domain.add(constant)
        for element in domain:
            self._domain.add(element)
        for atom in atoms:
            self.add_atom(atom)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def signature(self) -> Optional[Signature]:
        """The declared signature, or ``None`` when the structure is schemaless."""
        return self._signature

    @property
    def generation(self) -> int:
        """A counter bumped by every mutation (atom or element add/remove).

        Derived caches — most importantly the compiled query plans of
        :mod:`repro.query.compile` — key their validity checks on this value:
        equal generations guarantee the structure is unchanged since the
        cache entry was built, without comparing any content.
        """
        return self._generation

    def inferred_signature(self) -> Signature:
        """A signature inferred from the atoms (and declared constants)."""
        constants = [e for e in self._domain if isinstance(e, Constant)]
        return Signature.from_atoms(self._atoms, constants)

    def atoms(self) -> FrozenSet[Atom]:
        """All atoms of the structure."""
        return frozenset(self._atoms)

    def domain(self) -> FrozenSet[object]:
        """All elements of the structure (including isolated ones)."""
        return frozenset(self._domain)

    def predicates(self) -> FrozenSet[str]:
        """The predicate names that occur in at least one atom."""
        return frozenset(p for p, atoms in self._by_predicate.items() if atoms)

    def atoms_with_predicate(self, predicate: str) -> FrozenSet[Atom]:
        """All atoms whose predicate is *predicate*."""
        return frozenset(self._by_predicate.get(predicate, ()))

    def iter_atoms_with_predicate(self, predicate: str) -> Iterator[Atom]:
        """Iterate over the atoms with *predicate* without materialising a set.

        The iterator reads the live internal index; callers that mutate the
        structure while iterating must materialise first (as
        :meth:`atoms_with_predicate` does).
        """
        return iter(self._by_predicate.get(predicate, ()))

    def count_atoms_with_predicate(self, predicate: str) -> int:
        """Number of atoms with *predicate* (O(1))."""
        return len(self._by_predicate.get(predicate, ()))

    def has_element(self, element: object) -> bool:
        """``element ∈ dom(D)`` without materialising the domain frozenset."""
        return element in self._domain

    def atoms_containing(self, element: object) -> FrozenSet[Atom]:
        """All atoms having *element* among their arguments (a scan)."""
        return frozenset(atom for atom in self._atoms if element in atom.args)

    def constants(self) -> FrozenSet[Constant]:
        """The constants present in the domain."""
        return frozenset(e for e in self._domain if isinstance(e, Constant))

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __bool__(self) -> bool:
        return bool(self._atoms) or bool(self._domain)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return self._atoms == other._atoms and self._domain == other._domain

    def __hash__(self) -> int:
        return hash((frozenset(self._atoms), frozenset(self._domain)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "Structure"
        return f"<{label}: {len(self._atoms)} atoms, {len(self._domain)} elements>"

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_atom(self, atom: Atom) -> bool:
        """Add *atom*; return ``True`` when it was not already present."""
        if self._signature is not None:
            self._signature.validate_atom(atom)
        if atom in self._atoms:
            return False
        self._generation += 1
        self._atoms.add(atom)
        self._by_predicate[atom.predicate].add(atom)
        self._domain.update(atom.args)
        if self._listeners:
            for listener in self._listeners:
                listener.atom_added(atom)
        return True

    def add_atoms(self, atoms: Iterable[Atom]) -> int:
        """Add several atoms; return the number of genuinely new ones."""
        return sum(1 for atom in atoms if self.add_atom(atom))

    def add_element(self, element: object) -> bool:
        """Add a (possibly isolated) element to the domain."""
        if element in self._domain:
            return False
        self._generation += 1
        self._domain.add(element)
        return True

    def add_fact(self, predicate: str, *args: object) -> bool:
        """Convenience wrapper: ``add_atom(Atom(predicate, args))``."""
        return self.add_atom(Atom(predicate, args))

    def remove_atom(self, atom: Atom) -> bool:
        """Remove *atom* (elements stay in the domain); return ``True`` if present."""
        if atom not in self._atoms:
            return False
        self._generation += 1
        self._atoms.discard(atom)
        self._by_predicate[atom.predicate].discard(atom)
        if self._listeners:
            for listener in self._listeners:
                listener.atom_removed(atom)
        return True

    # ------------------------------------------------------------------
    # Listeners (incremental index maintenance)
    # ------------------------------------------------------------------
    def add_listener(self, listener: StructureListener) -> None:
        """Attach *listener*; it will be told about every atom mutation."""
        self._listeners.append(listener)

    def remove_listener(self, listener: StructureListener) -> None:
        """Detach *listener* (no-op when it was not attached)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Relationships
    # ------------------------------------------------------------------
    def is_substructure_of(self, other: "Structure") -> bool:
        """True when every atom of ``self`` is an atom of *other* (Section II.A)."""
        return self._atoms <= other._atoms

    def is_superstructure_of(self, other: "Structure") -> bool:
        """True when *other* is a substructure of ``self``."""
        return other.is_substructure_of(self)

    def satisfies_atom(self, atom: Atom) -> bool:
        """``D |= A`` for a ground atom *A*."""
        return atom in self._atoms

    # ------------------------------------------------------------------
    # Derived structures
    # ------------------------------------------------------------------
    def copy(self, name: str = "") -> "Structure":
        """A deep-enough copy (atoms are immutable so sharing them is safe).

        A current :meth:`canonical_atoms` tuple is shared with the copy
        (tuples are immutable; either side's next mutation invalidates only
        its own cache), so copying a structure does not cost a re-sort.
        """
        cloned = Structure(
            signature=self._signature, name=name or self.name
        )
        cloned._atoms = set(self._atoms)
        cloned._by_predicate = defaultdict(set)
        for pred, atoms in self._by_predicate.items():
            cloned._by_predicate[pred] = set(atoms)
        cloned._domain = set(self._domain)
        cached = self._canonical_cache
        if cached is not None and cached[0] == self._generation:
            cloned._canonical_cache = (cloned._generation, cached[1])
        return cloned

    def freeze(self) -> FrozenSet[Atom]:
        """A hashable snapshot of the atom set."""
        return frozenset(self._atoms)

    def canonical_atoms(self) -> Tuple[Atom, ...]:
        """The atoms in canonical (``repr``) order, cached per generation.

        This is the snapshot-export primitive shared by index bulk-loading,
        the parallel-discovery wire format and the differential harnesses:
        the ordering is independent of set iteration order (and therefore of
        ``PYTHONHASHSEED``), and the cache is keyed on the :attr:`generation`
        counter so repeated exports of an unchanged structure cost one
        integer comparison instead of a sort.
        """
        cached = self._canonical_cache
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        atoms = tuple(sorted(self._atoms, key=repr))
        self._canonical_cache = (self._generation, atoms)
        return atoms

    def restrict_predicates(
        self, keep: Callable[[str], bool] | Iterable[str], name: str = ""
    ) -> "Structure":
        """The substructure with only atoms whose predicate satisfies *keep*.

        The domain is preserved (restriction never removes elements); this is
        what the paper's ``D ↾ G`` / ``D ↾ R`` operations need, since the
        colour fragments share the full vertex set.
        """
        if not callable(keep):
            allowed = set(keep)
            predicate_filter: Callable[[str], bool] = lambda p: p in allowed
        else:
            predicate_filter = keep
        result = Structure(signature=self._signature, name=name)
        for element in self._domain:
            result.add_element(element)
        for atom in self._atoms:
            if predicate_filter(atom.predicate):
                result.add_atom(atom)
        return result

    def induced(self, elements: Iterable[object], name: str = "") -> "Structure":
        """The substructure induced by *elements* (atoms entirely inside them)."""
        kept = set(elements)
        result = Structure(signature=self._signature, name=name)
        for element in kept:
            result.add_element(element)
        for atom in self._atoms:
            if all(arg in kept for arg in atom.args):
                result.add_atom(atom)
        return result

    def rename_elements(
        self, mapping: Mapping[object, object], name: str = ""
    ) -> "Structure":
        """Apply an element renaming; elements missing from *mapping* are kept."""
        result = Structure(signature=self._signature, name=name or self.name)
        for element in self._domain:
            result.add_element(mapping.get(element, element))
        for atom in self._atoms:
            result.add_atom(atom.substitute(mapping))
        return result

    def rename_predicates(
        self, renaming: Callable[[str], str], name: str = ""
    ) -> "Structure":
        """Apply a predicate renaming to every atom."""
        result = Structure(name=name or self.name)
        for element in self._domain:
            result.add_element(element)
        for atom in self._atoms:
            result.add_atom(atom.rename_predicate(renaming))
        return result

    def union(self, other: "Structure", name: str = "") -> "Structure":
        """Set-theoretic union of atoms and domains (elements are shared)."""
        result = self.copy(name=name)
        result._signature = _merge_signatures(self._signature, other._signature)
        for element in other._domain:
            result.add_element(element)
        for atom in other._atoms:
            result.add_atom(atom)
        return result

    def disjoint_union(
        self,
        other: "Structure",
        tags: Tuple[str, str] = ("L", "R"),
        name: str = "",
    ) -> "Structure":
        """Disjoint union: non-constant elements are tagged apart, constants shared.

        This mirrors the paper's convention (Section IX, footnote 25): the
        constants ``a`` and ``b`` belong to all copies, so "disjoint" does not
        apply to them.
        """
        left_map = {
            e: _tagged(e, tags[0]) for e in self._domain if not isinstance(e, Constant)
        }
        right_map = {
            e: _tagged(e, tags[1]) for e in other._domain if not isinstance(e, Constant)
        }
        left = self.rename_elements(left_map)
        right = other.rename_elements(right_map)
        return left.union(right, name=name)

    def quotient(
        self, class_of: Mapping[object, object] | Callable[[object], object], name: str = ""
    ) -> "Structure":
        """The quotient structure: each element replaced by its class representative."""
        if callable(class_of):
            mapping = {e: class_of(e) for e in self._domain}
        else:
            mapping = {e: class_of.get(e, e) for e in self._domain}
        return self.rename_elements(mapping, name=name)

    def difference_atoms(self, other: "Structure") -> FrozenSet[Atom]:
        """Atoms of ``self`` that are not atoms of *other*."""
        return frozenset(self._atoms - other._atoms)

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_facts(
        facts: Iterable[Tuple[str, Tuple[object, ...]]],
        signature: Optional[Signature] = None,
        name: str = "",
    ) -> "Structure":
        """Build a structure from ``(predicate, args)`` pairs."""
        atoms = [Atom(pred, args) for pred, args in facts]
        return Structure(atoms, signature=signature, name=name)


def _merge_signatures(
    first: Optional[Signature], second: Optional[Signature]
) -> Optional[Signature]:
    if first is None:
        return second
    if second is None:
        return first
    return first.union(second)


def _tagged(element: object, tag: str) -> Tuple[str, object]:
    return (tag, element)


def disjoint_union_all(
    structures: Iterable[Structure], name: str = ""
) -> Structure:
    """Disjoint union of several structures (constants shared across copies)."""
    result = Structure(name=name)
    for index, structure in enumerate(structures):
        mapping = {
            e: (f"copy{index}", e)
            for e in structure.domain()
            if not isinstance(e, Constant)
        }
        result = result.union(structure.rename_elements(mapping))
    result.name = name
    return result
