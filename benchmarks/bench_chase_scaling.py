"""E15 (ablation): chase engine and determinacy checker scaling on synthetic workloads."""

import pytest

from repro.chase import chase, parse_tgds
from repro.core.builders import parse_cq, structure_from_text
from repro.engine import run_chase
from repro.greenred import check_unrestricted_determinacy


def _chain_instance(length: int):
    facts = ", ".join(f"R({i},{i + 1})" for i in range(length))
    return structure_from_text(facts)


CHAIN_LENGTHS = (10, 20, 40)

#: Engines compared by the scaling ablation (the semi-naive engine must beat
#: the reference by a wide margin on the largest configuration): the
#: reference oracle ``repro.chase.chase`` and the semi-naive ``run_chase``.
ENGINES = {"reference": chase, "seminaive": run_chase}


@pytest.mark.experiment("E15")
@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("length", CHAIN_LENGTHS)
def test_chase_scaling_on_chains(benchmark, length, engine, report_lines):
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    result = benchmark(
        ENGINES[engine], tgds, _chain_instance(length), max_stages=50, max_atoms=50_000
    )
    report_lines(
        f"[E15/chase] engine={engine:9s} chain length={length:3d}  "
        f"stages={result.stages_run:3d}  "
        f"atoms={len(result.structure.atoms()):5d}  fixpoint={result.reached_fixpoint}"
    )
    assert result.reached_fixpoint


VIEW_CASES = {
    "determined": (
        ["v1(x, y) :- R(x, z), S(z, y)", "v2(x, z) :- R(x, z)"],
        "q(x, y) :- R(x, z), S(z, y)",
        True,
    ),
    "not-determined": (
        ["v1(x) :- R(x, z)"],
        "q(x, y) :- R(x, y)",
        False,
    ),
}


@pytest.mark.experiment("E15")
@pytest.mark.parametrize("case", sorted(VIEW_CASES))
def test_determinacy_checker_scaling(benchmark, case, report_lines):
    view_texts, query_text, expected = VIEW_CASES[case]
    views = [parse_cq(text) for text in view_texts]
    query = parse_cq(query_text)
    report = benchmark(check_unrestricted_determinacy, views, query, 12, 10_000)
    report_lines(
        f"[E15/determinacy] case={case:15s} verdict={report.verdict.value:15s} "
        f"({report.detail})"
    )
    assert (report.verdict.value == "determined") is expected
