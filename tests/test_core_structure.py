"""Unit tests for repro.core.structure."""

from repro.core.atoms import Atom
from repro.core.builders import structure_from_text
from repro.core.signature import Signature
from repro.core.structure import Structure, disjoint_union_all
from repro.core.terms import Constant


def test_add_atom_updates_domain_and_indexes():
    structure = Structure()
    assert structure.add_fact("R", "1", "2")
    assert not structure.add_fact("R", "1", "2")
    assert structure.domain() == {"1", "2"}
    assert structure.atoms_with_predicate("R") == {Atom("R", ("1", "2"))}
    assert structure.atoms_containing("1") == {Atom("R", ("1", "2"))}
    assert structure.add_fact("S", "2", "3")
    snapshot = structure.copy()
    assert structure.remove_atom(Atom("R", ("1", "2")))
    assert structure.atoms_containing("1") == set()
    assert structure.atoms_containing("2") == {Atom("S", ("2", "3"))}
    # The copy keeps its own atoms: the removal does not reach it.
    assert snapshot.atoms_containing("1") == {Atom("R", ("1", "2"))}
    assert snapshot.atoms_containing("2") == {
        Atom("R", ("1", "2")),
        Atom("S", ("2", "3")),
    }


def test_constants_from_signature_belong_to_domain():
    sig = Signature({"R": 1}, constants=(Constant("c"),))
    structure = Structure(signature=sig)
    assert Constant("c") in structure.domain()


def test_substructure_relation():
    small = structure_from_text("R(1,2)")
    big = structure_from_text("R(1,2), R(2,3)")
    assert small.is_substructure_of(big)
    assert big.is_superstructure_of(small)
    assert not big.is_substructure_of(small)


def test_isolated_elements_survive_copy_and_union():
    structure = Structure()
    structure.add_element("lonely")
    copy = structure.copy()
    assert "lonely" in copy.domain()
    merged = copy.union(structure_from_text("R(1,1)"))
    assert "lonely" in merged.domain()


def test_restrict_predicates_keeps_domain():
    structure = structure_from_text("R(1,2), S(2,3)")
    restricted = structure.restrict_predicates(["R"])
    assert restricted.atoms() == {Atom("R", ("1", "2"))}
    assert restricted.domain() == structure.domain()


def test_induced_substructure():
    structure = structure_from_text("R(1,2), R(2,3)")
    induced = structure.induced({"1", "2"})
    assert induced.atoms() == {Atom("R", ("1", "2"))}


def test_rename_elements_preserves_constants():
    structure = Structure([Atom("R", (Constant("a"), "1"))])
    renamed = structure.rename_elements({"1": "one"})
    assert Atom("R", (Constant("a"), "one")) in renamed.atoms()


def test_rename_predicates():
    structure = structure_from_text("R(1,2)")
    renamed = structure.rename_predicates(lambda n: n.lower())
    assert Atom("r", ("1", "2")) in renamed.atoms()


def test_disjoint_union_shares_constants_only():
    left = Structure([Atom("R", (Constant("a"), "x"))])
    right = Structure([Atom("R", (Constant("a"), "x"))])
    union = left.disjoint_union(right)
    # The constant is shared, the element "x" is duplicated.
    assert len(union.atoms()) == 2
    assert len([e for e in union.domain() if not isinstance(e, Constant)]) == 2


def test_quotient_merges_elements():
    structure = structure_from_text("R(1,2), R(3,2)")
    merged = structure.quotient({"3": "1"})
    assert merged.atoms() == {Atom("R", ("1", "2"))}


def test_difference_atoms():
    big = structure_from_text("R(1,2), R(2,3)")
    small = structure_from_text("R(1,2)")
    assert big.difference_atoms(small) == {Atom("R", ("2", "3"))}


def test_equality_and_hash_depend_on_atoms_and_domain():
    first = structure_from_text("R(1,2)")
    second = structure_from_text("R(1,2)")
    assert first == second
    second.add_element("extra")
    assert first != second


def test_disjoint_union_all_counts_copies():
    part = structure_from_text("R(1,1)")
    combined = disjoint_union_all([part, part, part])
    assert len(combined.atoms()) == 3


def test_from_facts_constructor():
    structure = Structure.from_facts([("R", ("1", "2")), ("S", ("2",))])
    assert len(structure.atoms()) == 2


def test_remove_atom():
    structure = structure_from_text("R(1,2)")
    assert structure.remove_atom(Atom("R", ("1", "2")))
    assert not structure.remove_atom(Atom("R", ("1", "2")))
    assert len(structure.atoms()) == 0


def test_copy_shares_a_current_canonical_order_until_either_side_mutates():
    structure = structure_from_text("R(3,1), R(1,2), S(2,3)")
    ordered = structure.canonical_atoms()
    copy = structure.copy()
    # The copy inherits the parent's sorted tuple itself: no re-sort.
    assert copy.canonical_atoms() is ordered
    # Mutating the copy re-sorts the copy only.
    copy.add_fact("R", "0", "0")
    assert copy.canonical_atoms() is not ordered
    assert copy.canonical_atoms() == tuple(sorted(copy.atoms(), key=repr))
    assert structure.canonical_atoms() is ordered
    # A copy taken after the parent mutated does not inherit a stale order.
    structure.remove_atom(Atom("S", ("2", "3")))
    fresh = structure.copy()
    assert fresh.canonical_atoms() == tuple(sorted(structure.atoms(), key=repr))
    assert Atom("S", ("2", "3")) not in fresh.canonical_atoms()


def test_copy_without_a_cached_order_sorts_on_demand():
    structure = structure_from_text("R(2,1), R(1,2)")
    copy = structure.copy()
    assert copy.canonical_atoms() == tuple(sorted(structure.atoms(), key=repr))
