"""Hash-seed determinism probe: two chases with parallel discovery.

Chases the rule set T∞ of Section VII, Step 1 from the one-edge structure
``DI`` with ``workers=2`` and prints every output bit that must not depend
on the interpreter's hash seed: the atoms, the stage sizes, the null names
and the provenance (stage, trigger and new atoms/elements of every step, in
firing order).  Every head of T∞ is existential, so the probe then prints
the same bits for a ``workers=2`` transitive closure of a 40-edge chain,
whose two TGDs are full: there the head check is the insertion itself.
CI runs it under several ``PYTHONHASHSEED`` values and fails on any
difference:

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

from repro.chase import parse_tgds
from repro.core.builders import structure_from_text
from repro.core.terms import LabeledNull
from repro.engine import run_chase
from repro.greengraph.graph import initial_graph
from repro.separating.t_infinity import t_infinity_rules

#: Chase stages the Figure 1 run takes.
STAGES = 40
#: Edges of the chain the transitive-closure run closes.
CHAIN_EDGES = 40


def main() -> int:
    print("== Figure 1: T-infinity ==")
    status = report(
        run_chase(
            t_infinity_rules().tgds(),
            initial_graph().structure(),
            max_stages=STAGES,
            max_atoms=50_000,
            workers=2,
        )
    )
    print("== transitive closure (full TGDs) ==")
    chain = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(CHAIN_EDGES))
    )
    closure = parse_tgds("R(x,y) -> S(x,y)", "S(x,y), R(y,z) -> S(x,z)")
    return report(run_chase(closure, chain, workers=2)) or status


def report(result) -> int:
    """Print *result*'s seed-independent bits; non-zero on a pool fault."""
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
