"""Hash-seed determinism probe: Figure 1's T∞ chase with parallel discovery.

Chases the rule set T∞ of Section VII, Step 1 from the one-edge structure
``DI`` with ``workers=2`` and prints every output bit that must not depend
on the interpreter's hash seed: the atoms, the stage sizes, the null names
and the provenance (stage, trigger and new atoms/elements of every step, in
firing order).  CI runs it under several ``PYTHONHASHSEED`` values and
fails on any difference:

    for seed in 0 1 2; do
        PYTHONHASHSEED=$seed PYTHONPATH=src \\
            python benchmarks/fig1_determinism.py > fig1-$seed.txt
    done
    diff fig1-0.txt fig1-1.txt && diff fig1-0.txt fig1-2.txt

A faulted pool finishes the run serially with the same output, which would
pass the diff without exercising the pool at all, so the probe exits
non-zero on any fault.
"""

import sys

from repro.core.terms import LabeledNull
from repro.engine import run_chase
from repro.greengraph.graph import initial_graph
from repro.separating.t_infinity import t_infinity_rules

#: Chase stages the probe runs.
STAGES = 40


def main() -> int:
    result = run_chase(
        t_infinity_rules().tgds(),
        initial_graph().structure(),
        max_stages=STAGES,
        max_atoms=50_000,
        workers=2,
    )
    structure = result.structure
    print(f"stages {result.stages_run} fixpoint {result.reached_fixpoint}")
    print(f"faults {result.stats.faults}")
    print("stage sizes", [len(snapshot) for snapshot in result.stage_snapshots])
    for atom in sorted(repr(atom) for atom in structure.atoms()):
        print("atom", atom)
    nulls = sorted(
        repr(element)
        for element in structure.domain()
        if isinstance(element, LabeledNull)
    )
    print("nulls", nulls)
    for step in result.provenance:
        print(
            "step",
            step.stage,
            repr(step.trigger),
            [repr(atom) for atom in step.new_atoms],
            [repr(element) for element in step.new_elements],
        )
    faults = result.stats.faults
    if faults.get("detected", 0) or faults.get("degraded", 0):
        print(f"parallel discovery faulted: {faults}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
