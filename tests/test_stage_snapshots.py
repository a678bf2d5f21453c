"""Lazy stage snapshots against the eager oracle ``ChaseEngine.iter_stages``.

``ChaseResult.stage_snapshots`` is a view that builds stage *k* from the
input copy and the provenance on first access.  ``iter_stages`` still copies
every stage as it computes it, so it is the oracle: every engine's view must
give the same length and, stage by stage, the same atoms, domain and name.
The stages are read in reverse and in binary-search order, so a stage is
often built from a cached stage other than its immediate predecessor.
"""

import pytest

from repro.chase import parse_tgds
from repro.chase.chase import ChaseEngine
from repro.core.atoms import Atom
from repro.core.builders import structure_from_text
from repro.core.structure import Structure
from repro.engine import run_chase
from repro.engine.shm import SHM_AVAILABLE
from repro.greengraph.graph import initial_graph
from repro.separating.t_infinity import t_infinity_rules

from test_differential_modes import MAX_ATOMS, MAX_STAGES, random_case

shm_only = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="multiprocessing.shared_memory unavailable"
)


def _chain_closure():
    rules = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    chain = Structure([Atom("R", (f"n{i}", f"n{i + 1}")) for i in range(15)])
    return rules, chain, None, None


def _successor_cut():
    return parse_tgds("R(x,y) -> R(y,z)"), structure_from_text("R(1,2)"), 6, None


def _atom_budget_cut():
    rules = parse_tgds("R(x,y) -> R(y,z), S(x,z)", "S(x,y) -> T(y,x)")
    return rules, structure_from_text("R(1,2), R(2,3)"), None, 25


def _t_infinity():
    tgds = t_infinity_rules().tgds()
    return tgds, initial_graph().structure(), 30, 50_000


def _random(seed):
    return lambda: (*random_case(seed), MAX_STAGES, MAX_ATOMS)


CASES = [
    pytest.param(_chain_closure, id="fixpoint"),
    pytest.param(_successor_cut, id="max-stages"),
    pytest.param(_atom_budget_cut, id="max-atoms"),
    pytest.param(_t_infinity, id="t-infinity-30"),
] + [pytest.param(_random(seed), id=f"random-{seed}") for seed in range(20)]


def _reference(tgds, instance, max_stages, max_atoms):
    return ChaseEngine(tgds=list(tgds), max_stages=max_stages, max_atoms=max_atoms).run(
        instance
    )


def _seminaive(tgds, instance, max_stages, max_atoms):
    return run_chase(tgds, instance, max_stages, max_atoms)


def _parallel(tgds, instance, max_stages, max_atoms):
    return run_chase(tgds, instance, max_stages, max_atoms, workers=2)


ENGINES = [
    pytest.param(_reference, id="reference"),
    pytest.param(_seminaive, id="seminaive"),
    pytest.param(_parallel, id="workers-2", marks=shm_only),
]


def _oracle(tgds, instance, max_stages, max_atoms):
    engine = ChaseEngine(tgds=list(tgds), max_stages=max_stages, max_atoms=max_atoms)
    return list(engine.iter_stages(instance))


def _bisection_order(length):
    """``range(length)`` in binary-search order: each span's middle first."""
    order, spans = [], [(0, length)]
    while spans:
        lo, hi = spans.pop(0)
        if lo < hi:
            middle = (lo + hi) // 2
            order.append(middle)
            spans += [(lo, middle), (middle + 1, hi)]
    return order


def _assert_stage(produced, expected):
    assert produced.atoms() == expected.atoms(), expected.name
    assert produced.domain() == expected.domain(), expected.name
    assert produced.name == expected.name


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", CASES)
def test_lazy_snapshots_match_the_eager_oracle(case, engine):
    tgds, instance, max_stages, max_atoms = case()
    expected = _oracle(tgds, instance, max_stages, max_atoms)
    assert sorted(_bisection_order(len(expected))) == list(range(len(expected)))
    for order in (
        range(len(expected) - 1, -1, -1),
        _bisection_order(len(expected)),
    ):
        snapshots = engine(tgds, instance, max_stages, max_atoms).stage_snapshots
        assert len(snapshots) == len(expected)
        for index in order:
            _assert_stage(snapshots[index], expected[index])
        # Every stage is now cached: a second read returns the same object,
        # and iteration, negative indexes and slices agree with the oracle.
        assert snapshots[len(expected) - 1] is snapshots[-1]
        for produced, oracle in zip(snapshots, expected):
            _assert_stage(produced, oracle)
        assert len(list(snapshots)) == len(expected)
        assert [s.name for s in snapshots[1::2]] == [s.name for s in expected[1::2]]


@pytest.mark.parametrize("engine", ENGINES[:2])
def test_snapshots_are_isolated_from_later_mutation(engine):
    """The view never reads the live structure or the input instance."""
    tgds, instance, max_stages, max_atoms = _t_infinity()
    expected = _oracle(tgds, instance, 12, max_atoms)
    result = engine(tgds, instance, 12, max_atoms)
    intruder = Atom("Intruder", ("a", "b"))
    result.structure.add_atom(intruder)
    instance.add_atom(intruder)
    assert result.atoms_added() == len(expected[-1]) - len(expected[0])
    for index in (len(expected) - 1, 0, len(expected) // 2):
        _assert_stage(result.stage_snapshots[index], expected[index])
        assert intruder not in result.stage_snapshots[index]
    assert result.new_atoms_at_stage(0) == expected[0].atoms()
    for index in range(1, len(expected)):
        assert result.new_atoms_at_stage(index) == (
            expected[index].atoms() - expected[index - 1].atoms()
        )
    assert result.new_atoms_at_stage(-1) == result.new_atoms_at_stage(
        len(expected) - 1
    )
    with pytest.raises(IndexError):
        result.new_atoms_at_stage(len(expected))
