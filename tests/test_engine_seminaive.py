"""Unit and corpus tests for the semi-naive chase engine (repro.engine)."""

import pytest

from repro.chase import chase, parse_tgds
from repro.chase.chase import ChaseBudgetExceeded, ChaseEngine, iterate_chase
from repro.chase.trigger import frontier_key
from repro.core.atoms import Atom
from repro.core.builders import structure_from_text
from repro.core.structure import Structure
from repro.engine import (
    AtomIndex,
    SemiNaiveChaseEngine,
    compiled_delta_matches,
    head_satisfied_indexed,
    lazy_strategy,
    make_engine,
    run_chase,
    semi_oblivious_strategy,
)
from repro.engine.strategies import resolve_strategy
from repro.query import EvalContext

from delta_oracle import reference_delta_matches


# ----------------------------------------------------------------------
# AtomIndex
# ----------------------------------------------------------------------
def test_index_tracks_structure_mutations_incrementally():
    structure = structure_from_text("R(1,2), R(2,3), S(3,4)")
    index = AtomIndex(structure)
    assert index.count("R") == 2
    assert index.count("S") == 1
    watermark = index.watermark()
    structure.add_fact("R", "9", "9")
    assert index.count("R") == 3
    # The new atom is stamped after the watermark: prefixes are stable views.
    assert index.count("R", hi=watermark) == 2
    assert list(index.atoms("R", lo=watermark)) == [Atom("R", ("9", "9"))]


def test_index_position_value_lookup():
    structure = structure_from_text("R(1,2), R(1,3), R(4,2)")
    index = AtomIndex(structure)
    at_pos0 = set(index.atoms_with_value("R", 0, "1"))
    assert at_pos0 == {Atom("R", ("1", "2")), Atom("R", ("1", "3"))}
    assert index.count_with_value("R", 1, "2") == 2
    assert index.count_with_value("R", 0, "missing") == 0


def test_index_survives_atom_removal_by_rebuilding():
    structure = structure_from_text("R(1,2), R(2,3)")
    index = AtomIndex(structure)
    watermark = index.watermark()
    structure.remove_atom(Atom("R", ("1", "2")))
    assert index.count("R") == 1
    assert list(index.atoms("R")) == [Atom("R", ("2", "3"))]
    # Stamps stay monotone across the rebuild: an old watermark now denotes
    # an empty prefix (conservative), never a wrong non-empty one.
    assert index.watermark() >= watermark
    assert index.count("R", hi=watermark) == 0


def test_index_detach_stops_following():
    structure = structure_from_text("R(1,2)")
    index = AtomIndex(structure)
    index.detach()
    structure.add_fact("R", "7", "8")
    assert index.count("R") == 1


# ----------------------------------------------------------------------
# Delta discovery + indexed head satisfaction
# ----------------------------------------------------------------------
def test_delta_discovery_only_sees_matches_using_the_delta():
    tgd = parse_tgds("R(x,y), R(y,z) -> S(x,z)")[0]
    structure = structure_from_text("R(1,2), R(2,3)")
    index = AtomIndex(structure)
    watermark = index.watermark()
    structure.add_fact("R", "3", "4")

    def frontier_keys(delta_lo):
        return {
            frontier_key(tgd, assignment)
            for assignment in compiled_delta_matches(
                tgd, index, delta_lo, index.watermark()
            )
        }

    # Full enumeration over everything:
    assert len(frontier_keys(0)) == 2  # (1,3) and (2,4)
    # Only matches touching the delta atom R(3,4):
    assert len(frontier_keys(watermark)) == 1
    # Both agree with the oracle: matches at the stage start minus matches
    # before the delta.
    for delta_lo in (0, watermark):
        expected = reference_delta_matches(tgd, index, delta_lo, index.watermark())
        assert frontier_keys(delta_lo) == {
            frontier_key(tgd, assignment) for assignment in expected
        }


def test_delta_discovery_produces_each_match_exactly_once():
    tgd = parse_tgds("R(x,y), R(y,z) -> S(x,z)")[0]
    structure = structure_from_text("R(1,2), R(2,3), R(3,4)")
    index = AtomIndex(structure)
    # delta = everything (stage 1): the two chain matches, once each, even
    # though both their body atoms lie in the delta window.
    def canonical(assignments):
        return sorted(
            tuple(sorted(assignment.items(), key=repr))
            for assignment in assignments
        )

    matches = canonical(compiled_delta_matches(tgd, index, 0, index.watermark()))
    assert len(matches) == len(set(matches)) == 2
    assert matches == canonical(
        reference_delta_matches(tgd, index, 0, index.watermark())
    )


def test_indexed_head_satisfaction_matches_reference_semantics():
    tgd = parse_tgds("R(x,y) -> S(y,z)")[0]
    structure = structure_from_text("R(1,2), S(2,3)")
    index = AtomIndex(structure)
    y = next(iter(tgd.frontier()))
    assert head_satisfied_indexed(tgd, index, {y: "2"})
    assert not head_satisfied_indexed(tgd, index, {y: "9"})


# ----------------------------------------------------------------------
# SemiNaiveChaseEngine: reference-identical behaviour
# ----------------------------------------------------------------------
def _assert_identical(reference, seminaive):
    assert seminaive.stages_run == reference.stages_run
    assert seminaive.reached_fixpoint == reference.reached_fixpoint
    assert len(seminaive.stage_snapshots) == len(reference.stage_snapshots)
    for expected, produced in zip(
        reference.stage_snapshots, seminaive.stage_snapshots
    ):
        assert produced.atoms() == expected.atoms()
        assert produced.domain() == expected.domain()


def test_seminaive_matches_reference_on_transitive_closure():
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    instance = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(15))
    )
    reference = chase(tgds, instance, max_stages=40, max_atoms=50_000)
    seminaive = run_chase(tgds, instance, max_stages=40, max_atoms=50_000)
    assert reference.reached_fixpoint
    _assert_identical(reference, seminaive)


def test_seminaive_matches_reference_on_existential_cascade():
    tgds = parse_tgds("R(x,y) -> S(y,z), T(z,x)", "S(x,y), T(y,z) -> R(x,y)")
    instance = structure_from_text("R(1,2), R(2,3)")
    _assert_identical(
        chase(tgds, instance, max_stages=6),
        run_chase(tgds, instance, max_stages=6),
    )


def test_seminaive_matches_reference_on_figure1():
    from repro.separating.t_infinity import t_infinity_rules
    from repro.greengraph.graph import initial_graph

    tgds = t_infinity_rules().tgds()
    instance = initial_graph().structure()
    _assert_identical(
        chase(tgds, instance, max_stages=12, max_atoms=10_000),
        run_chase(tgds, instance, max_stages=12, max_atoms=10_000),
    )


def test_seminaive_respects_atom_budget_and_raise_flag():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    instance = structure_from_text("R(1,2)")
    result = run_chase(tgds, instance, max_stages=500, max_atoms=20)
    assert not result.reached_fixpoint
    assert result.stages_run < 500
    engine = SemiNaiveChaseEngine(
        tgds=tgds, max_stages=500, max_atoms=20, raise_on_budget=True
    )
    with pytest.raises(ChaseBudgetExceeded):
        engine.run(instance)


def test_run_chase_accepts_and_ignores_keep_snapshots():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    result = run_chase(
        tgds,
        structure_from_text("R(1,2)"),
        max_stages=4,
        keep_snapshots=False,
    )
    assert result.stages_run == 4
    assert len(result.stage_snapshots) == result.stages_run + 1
    assert [len(stage) for stage in result.stage_snapshots] == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# Firing strategies
# ----------------------------------------------------------------------
def test_strategies_fire_increasingly_many_triggers():
    tgds = parse_tgds("R(x,y) -> S(y,z)")
    instance = structure_from_text("R(1,2), R(3,2)")
    lazy = run_chase(tgds, instance, max_stages=5)
    semi = run_chase(tgds, instance, max_stages=5, strategy="semi-oblivious")
    oblivious = run_chase(tgds, instance, max_stages=5, strategy="oblivious")
    # The two matches share their frontier (y=2): lazy and semi-oblivious
    # fire once, oblivious fires once per body homomorphism.
    assert len(lazy.structure.atoms_with_predicate("S")) == 1
    assert len(semi.structure.atoms_with_predicate("S")) == 1
    assert len(oblivious.structure.atoms_with_predicate("S")) == 2


def test_eager_strategies_ignore_head_satisfaction():
    tgds = parse_tgds("R(x,y) -> S(y,z)")
    instance = structure_from_text("R(1,2), S(2,9)")
    assert len(run_chase(tgds, instance, max_stages=5).structure.atoms_with_predicate("S")) == 1
    assert (
        len(
            run_chase(tgds, instance, max_stages=5, strategy="semi-oblivious")
            .structure.atoms_with_predicate("S")
        )
        == 2
    )


def test_strategy_budgets_cap_engine_budgets():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    instance = structure_from_text("R(1,2)")
    capped = run_chase(tgds, instance, strategy=lazy_strategy(max_stages=3))
    assert capped.stages_run == 3
    atom_capped = run_chase(
        tgds, instance, max_stages=100, strategy=lazy_strategy(max_atoms=5)
    )
    assert not atom_capped.reached_fixpoint
    assert len(atom_capped.structure) <= 6


def test_eager_strategies_do_not_conflate_same_named_tgds():
    from repro.chase import TGD

    first = TGD.parse("R(x,y) -> S(x,y)", "t")
    second = TGD.parse("P(x,y) -> U(x,y)", "t")  # same name, different rule
    result = run_chase(
        [first, second],
        structure_from_text("R(1,2), P(1,2)"),
        max_stages=5,
        strategy="oblivious",
    )
    assert len(result.structure.atoms_with_predicate("S")) == 1
    assert len(result.structure.atoms_with_predicate("U")) == 1


def test_resolve_strategy_accepts_names_instances_and_rejects_junk():
    assert resolve_strategy(None).name == "lazy"
    assert resolve_strategy("oblivious").name == "oblivious"
    strategy = semi_oblivious_strategy()
    assert resolve_strategy(strategy) is strategy
    with pytest.raises(ValueError):
        resolve_strategy("nonsense")
    with pytest.raises(TypeError):
        resolve_strategy(42)


# ----------------------------------------------------------------------
# Engine selection plumbing
# ----------------------------------------------------------------------
def test_make_engine_resolves_names_and_instances():
    tgds = parse_tgds("R(x,y) -> S(y,x)")
    assert isinstance(make_engine(None, tgds), SemiNaiveChaseEngine)
    assert isinstance(make_engine("seminaive", tgds), SemiNaiveChaseEngine)
    reference = make_engine("reference", tgds)
    assert not isinstance(reference, SemiNaiveChaseEngine)
    with pytest.raises(ValueError):
        make_engine("warp-drive", tgds)


@pytest.mark.parametrize("route", ["name", "instance"])
@pytest.mark.parametrize(
    "option, message",
    [
        pytest.param({"strategy": "oblivious"}, "firing strategies", id="strategy"),
        pytest.param({"workers": 2}, "parallel discovery", id="workers"),
        pytest.param(
            {"stage_deadline": 5.0}, "stage deadlines", id="stage_deadline"
        ),
        pytest.param({"context": EvalContext()}, "index hand-off", id="context"),
    ],
)
def test_reference_engine_rejects_semi_naive_options(route, option, message):
    tgds = parse_tgds("R(x,y) -> R(y,x)")
    engine = "reference" if route == "name" else ChaseEngine(tgds=[])
    with pytest.raises(ValueError, match=message):
        make_engine(engine, tgds, **option)
    # The no-op values stay accepted for config-driven callers.
    for accepted in (
        {"workers": 0},
        {"workers": 1},
        {"stage_deadline": None},
    ):
        assert type(make_engine(engine, tgds, **accepted)) is ChaseEngine


def test_make_engine_rebinds_prebuilt_instances_to_the_call_site_workload():
    tgds = parse_tgds("R(x,y) -> S(y,x)")
    prebuilt = SemiNaiveChaseEngine(
        tgds=[], max_stages=None, raise_on_budget=True
    )
    resolved = make_engine(prebuilt, tgds, max_stages=7, max_atoms=99)
    # The instance contributes its kind and configuration, the call site its
    # workload and safety budgets — an unbounded prebuilt engine must not
    # silently drop a wrapper's max_stages/max_atoms.
    assert resolved.tgds == tgds
    assert resolved.max_stages == 7
    assert resolved.max_atoms == 99
    assert resolved.raise_on_budget is True
    # Budgets are intersected: an instance's own tighter bound also survives
    # a call site that passes the default None.
    bounded = SemiNaiveChaseEngine(tgds=[], max_stages=5, max_atoms=100)
    resolved = make_engine(bounded, tgds, max_stages=None, max_atoms=250)
    assert resolved.max_stages == 5
    assert resolved.max_atoms == 100
    # A non-terminating rule set stays bounded through a prebuilt engine.
    looping = parse_tgds("R(x,y) -> R(y,z)")
    result = run_chase(
        looping,
        structure_from_text("R(1,2)"),
        max_stages=4,
        engine=SemiNaiveChaseEngine(tgds=[]),
    )
    assert result.stages_run == 4


def test_rule_set_chase_accepts_engine_parameter():
    from repro.separating.t_infinity import chase_t_infinity

    fast = chase_t_infinity(6)
    slow = chase_t_infinity(6, engine="reference")
    assert fast.graph().structure().atoms() == slow.graph().structure().atoms()


def test_countermodel_engines_agree():
    from repro.rainworm.examples import immediately_halting_machine
    from repro.rainworm.countermodel import build_countermodel

    fast = build_countermodel(
        immediately_halting_machine(), grid_stages=3, max_atoms=4_000
    )
    slow = build_countermodel(
        immediately_halting_machine(),
        grid_stages=3,
        max_atoms=4_000,
        engine="reference",
    )
    assert fast.is_valid == slow.is_valid
    assert (
        fast.with_grids.structure().atoms() == slow.with_grids.structure().atoms()
    )


def test_late_chase_engines_agree():
    from repro.fo.late_chase import chase_fragments

    fast = chase_fragments(2)
    slow = chase_fragments(2, engine="reference")
    assert fast.early.atoms() == slow.early.atoms()
    assert fast.late.atoms() == slow.late.atoms()


def test_simulator_chase_cross_validation():
    from repro.rainworm.examples import forever_creeping_machine
    from repro.rainworm.simulator import simulation_matches_chase

    assert simulation_matches_chase(
        forever_creeping_machine(), simulate_steps=5, chase_stages=9
    )


# ----------------------------------------------------------------------
# iterate_chase is a true generator (satellite)
# ----------------------------------------------------------------------
def test_iterate_chase_is_lazy():
    tgds = parse_tgds("R(x,y) -> R(y,z)")
    instance = structure_from_text("R(1,2)")
    stages = iterate_chase(tgds, instance, max_stages=1_000_000)
    # Consuming only three stages of a million-stage bound must return
    # immediately — impossible if the whole chase ran eagerly first.
    first = next(stages)
    second = next(stages)
    third = next(stages)
    assert len(first.atoms()) == 1
    assert len(second.atoms()) == 2
    assert len(third.atoms()) == 3
    stages.close()


def test_iterate_chase_raises_budget_before_yielding_offending_stage():
    from repro.chase.chase import ChaseEngine

    tgds = parse_tgds("R(x,y) -> R(y,z)")
    engine = ChaseEngine(tgds=tgds, max_stages=100, max_atoms=3, raise_on_budget=True)
    stages = engine.iter_stages(structure_from_text("R(1,2)"))
    collected = []
    with pytest.raises(ChaseBudgetExceeded):
        for snapshot in stages:
            collected.append(len(snapshot.atoms()))
    # The over-budget stage (4 atoms > budget 3) was never yielded.
    assert collected == [1, 2, 3]


def test_iterate_chase_stops_at_fixpoint():
    tgds = parse_tgds("R(x,y) -> S(y,x)")
    stages = list(iterate_chase(tgds, structure_from_text("R(1,2)"), 10))
    assert len(stages) == 2  # chase_0 and the single productive stage
    assert stages[-1].atoms() == chase(
        tgds, structure_from_text("R(1,2)"), max_stages=10
    ).structure.atoms()
