"""E11 (Section VIII.E): the finite counter-model for halting rainworms."""

from functools import partial

import pytest

from repro.rainworm import (
    build_countermodel,
    halting_after_two_cycles_machine,
    halting_example_machine,
    immediately_halting_machine,
)

MACHINES = {
    "halt-immediately": immediately_halting_machine,
    "halt-after-two-cycles": halting_after_two_cycles_machine,
    **{
        f"halting-after-{steps}-tm-steps": partial(
            halting_example_machine, tm_steps=steps
        )
        for steps in (1, 2, 3)
    },
}


@pytest.mark.experiment("E11")
@pytest.mark.parametrize("name", sorted(MACHINES))
def test_countermodel_construction(benchmark, name, report_lines):
    machine = MACHINES[name]()
    report = benchmark(build_countermodel, machine)
    report_lines(
        f"[E11/VIII.E] machine={name:24s} k_M={report.steps:3d}  "
        f"M̄ edges={report.countermodel.edge_count():3d}  "
        f"⊨ T_M: {report.satisfies_machine_rules}  "
        f"β-edges only from M0: {report.beta_edges_only_initial}  "
        f"grids pattern-free: {report.grid_pattern_free}"
    )
    assert report.is_valid
