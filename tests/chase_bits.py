"""The one bit-identity check for chase results.

The paper's constructions depend on canonical trigger order — stage
numbers, null names and provenance are all part of downstream proofs — so
two chase runs agree only when every observable bit does: the final atoms
and domain (null names included), the fixpoint flag, every stage snapshot
and the full provenance, step by step.
"""


def assert_bit_identical(expected, produced, label=""):
    """Every observable bit of two chase results must coincide."""
    assert produced.stages_run == expected.stages_run, label
    assert produced.reached_fixpoint == expected.reached_fixpoint, label
    assert produced.structure.atoms() == expected.structure.atoms(), label
    assert produced.structure.domain() == expected.structure.domain(), label
    assert len(produced.stage_snapshots) == len(expected.stage_snapshots), label
    for expected_stage, produced_stage in zip(
        expected.stage_snapshots, produced.stage_snapshots
    ):
        assert produced_stage.atoms() == expected_stage.atoms(), label
        assert produced_stage.domain() == expected_stage.domain(), label
        assert produced_stage.name == expected_stage.name, label
    # The fact sequence and trigger order, step by step: this is the part a
    # nondeterministic merge would corrupt first.
    assert len(produced.provenance) == len(expected.provenance), label
    for expected_step, produced_step in zip(expected.provenance, produced.provenance):
        assert produced_step.stage == expected_step.stage, label
        assert produced_step.trigger == expected_step.trigger, label
        assert produced_step.new_atoms == expected_step.new_atoms, label
        assert produced_step.new_elements == expected_step.new_elements, label
