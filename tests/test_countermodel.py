"""The Section VIII.E reverse construction against its hand-written oracle."""

import hashlib

import pytest

from countermodel_oracle import oracle_reverse_construction
from repro.greengraph.graph import GreenGraph
from repro.rainworm import (
    build_countermodel,
    configuration_graph,
    halting_after_two_cycles_machine,
    halting_computation,
    halting_example_machine,
    immediately_halting_machine,
    machine_rules,
)
from repro.rainworm.countermodel import reverse_construction

#: sha256 of the sorted atom reprs of the ``tm_steps=1`` counter-model, as
#: the oracle builds it (about 20 s, too slow to run here).
TM_STEPS_1_ATOMS_SHA256 = (
    "50054279bd1396a91be633d97476958451ef78f476481adcc6aa74595167891a"
)


def _inputs(machine):
    final, steps = halting_computation(machine, 500)
    return configuration_graph(final), machine_rules(machine), steps + 1


@pytest.mark.parametrize(
    "machine", [immediately_halting_machine, halting_after_two_cycles_machine]
)
def test_reverse_construction_matches_the_oracle(machine):
    base, rules, rounds = _inputs(machine())
    produced = reverse_construction(base, rules, rounds)
    expected = oracle_reverse_construction(base, rules, rounds)
    assert produced.structure().atoms() == expected.structure().atoms()
    assert produced.vertices() == expected.vertices()
    # The rounds must add witnesses, or this compares the start graph.
    assert len(produced) > len(base)


def test_reverse_construction_copies_the_graph_once(monkeypatch):
    copies = []
    original = GreenGraph.copy

    def counting_copy(self, name=""):
        copies.append(name)
        return original(self, name)

    monkeypatch.setattr(GreenGraph, "copy", counting_copy)
    base, rules, rounds = _inputs(halting_after_two_cycles_machine())
    reverse_construction(base, rules, rounds)
    assert len(copies) == 1


def test_tm_steps_1_countermodel_is_the_oracle_graph():
    report = build_countermodel(halting_example_machine(tm_steps=1), add_grids=False)
    atoms = report.countermodel.structure().atoms()
    assert len(atoms) == 80
    digest = hashlib.sha256("\n".join(sorted(map(repr, atoms))).encode()).hexdigest()
    assert digest == TM_STEPS_1_ATOMS_SHA256


@pytest.mark.parametrize("tm_steps", [2, 3])
def test_larger_halting_machines_have_valid_countermodels(tm_steps):
    report = build_countermodel(halting_example_machine(tm_steps=tm_steps))
    assert report.grid_chase is not None
    assert report.with_grids.edge_count() == len(report.grid_chase.result.structure)
    assert report.is_valid
