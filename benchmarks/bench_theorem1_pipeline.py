"""E12 (Theorem 1/5): the end-to-end reduction pipeline and its bounded evidence."""

import pytest

from repro.rainworm import (
    forever_creeping_machine,
    halting_after_two_cycles_machine,
    halting_example_machine,
    immediately_halting_machine,
)
from repro.reduction import (
    creeping_direction_evidence,
    halting_direction_evidence,
    reduce_machine,
)


@pytest.mark.experiment("E12")
@pytest.mark.parametrize("name", ["halt-immediately", "halt-after-two-cycles"])
def test_reduction_instance_sizes(benchmark, name, report_lines):
    machine = {
        "halt-immediately": immediately_halting_machine,
        "halt-after-two-cycles": halting_after_two_cycles_machine,
    }[name]()

    def build():
        instance = reduce_machine(machine)
        return instance.sizes()

    sizes = benchmark(build)
    report_lines(
        f"[E12/Thm1] machine={name:22s} |∆|={sizes['instructions']:3d}  "
        f"|T_M∪T□|={sizes['green_graph_rules']:3d}  |Precompile|={sizes['level1_rules']:3d}  "
        f"|Q|={sizes['views']:3d} views ({sizes['view_atoms']:6d} atoms)  "
        f"|Q0|={sizes['query_atoms']:4d} atoms"
    )
    assert sizes["views"] == sizes["level1_rules"]


@pytest.mark.experiment("E12")
@pytest.mark.parametrize(
    "name", ["halt-after-two-cycles", "halting-after-1-tm-steps"]
)
def test_halting_direction(benchmark, name, report_lines):
    machine = {
        "halt-after-two-cycles": halting_after_two_cycles_machine,
        "halting-after-1-tm-steps": lambda: halting_example_machine(tm_steps=1),
    }[name]()
    evidence = benchmark.pedantic(
        halting_direction_evidence,
        args=(machine,),
        iterations=1,
        rounds=1,
    )
    report_lines(
        f"[E12/Thm1] machine={name:24s} halting ⇒ finite counter-model valid "
        f"(Q does NOT finitely determine Q0): {evidence.supports_lemma24}"
    )
    assert evidence.supports_lemma24


@pytest.mark.experiment("E12")
def test_creeping_direction(benchmark, report_lines):
    evidence = benchmark.pedantic(
        creeping_direction_evidence,
        args=(forever_creeping_machine(),),
        kwargs={"simulate_steps": 7, "chase_stages": 9},
        iterations=1,
        rounds=1,
    )
    report_lines(
        "[E12/Thm1] creeping machine ⇒ Lemma 25 words + folding pattern "
        f"(Q finitely determines Q0): {evidence.supports_lemma24}"
    )
    assert evidence.supports_lemma24
