"""Observation 6: daltonised chases never invent anything new.

The paper's Observation 6 ("very easy"): for a structure ``D`` over ``Σ_G``
and a set ``Q`` of CQs there is a homomorphism

    h : dalt(chase(T_Q, D)) → dalt(D).

Intuitively the TGDs in ``T_Q`` only ever repaint (copies of) what was
already there, so after erasing colours the chase collapses back onto the
input.  The module provides both a *constructive* witness (built directly
from the chase provenance, mirroring the easy proof) and an independent
search-based check used to cross-validate it in tests.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..chase.chase import ChaseResult
from ..engine import run_chase
from ..core.query import ConjunctiveQuery
from ..core.structure import Structure
from ..query.evaluator import find_homomorphism, is_homomorphism
from .coloring import dalt_structure
from .tq import build_tq


def chase_collapse_witness(result: ChaseResult) -> Dict[object, object]:
    """A homomorphism ``dalt(chase) → dalt(input)`` built from provenance.

    Every chase step of a green-red TGD creates fresh nulls for the
    existential variables of the head; each such variable is a repainted copy
    of an existential variable of the generating query, whose body was
    matched in the pre-existing structure.  Mapping every fresh null to the
    element its *body-side* counterpart was matched to (and every old element
    to itself) daltonises to a homomorphism onto the input — which is the
    content of Observation 6.
    """
    collapse: Dict[object, object] = {
        element: element for element in result.stage_snapshots[0].domain()
    }
    for step in result.provenance:
        tgd = step.trigger.tgd
        frontier = step.trigger.frontier_assignment
        # Reconstruct where the body of the generating query was matched by
        # re-finding the body homomorphism extending the frontier in the
        # structure as it existed before this step.  For the green-red TGDs
        # of Definition 3 the head variable ``v__fresh`` corresponds to the
        # body variable ``v``; we use that naming convention here.
        for atom, element_hint in zip(tgd.head, step.new_atoms):
            for head_arg, ground_arg in zip(atom.args, element_hint.args):
                if ground_arg in collapse:
                    continue
                name = getattr(head_arg, "name", "")
                base_name = name[: -len("__fresh")] if name.endswith("__fresh") else name
                body_var = next(
                    (v for v in tgd.body_variables() if v.name == base_name), None
                )
                if body_var is not None and body_var in frontier:
                    anchor = frontier[body_var]
                    collapse[ground_arg] = collapse.get(anchor, anchor)
        # Any still-unmapped fresh element will be handled by the fallback
        # below (it can only happen for non-green-red TGDs).
    for element in result.structure.domain():
        collapse.setdefault(element, element)
    # Close the mapping transitively onto the input domain.
    input_domain = result.stage_snapshots[0].domain()
    changed = True
    while changed:
        changed = False
        for element, image in list(collapse.items()):
            if image not in input_domain and image in collapse and collapse[image] != image:
                collapse[element] = collapse[image]
                changed = True
    return collapse


def verify_observation6(
    queries: Sequence[ConjunctiveQuery],
    green_instance: Structure,
    max_stages: int = 6,
    max_atoms: int = 4_000,
) -> bool:
    """Check Observation 6 on a bounded chase prefix of *green_instance*.

    Returns ``True`` when a homomorphism ``dalt(chase prefix) → dalt(D)``
    exists.  (For a bounded prefix this is implied by the observation for the
    full chase, and it is exactly what the tests exercise.)  The fallback
    search runs on the planned index-backed evaluator.  The witness may be
    an empty mapping, so its existence is tested with ``is not None``.
    """
    witness = observation6_witness(
        queries, green_instance, max_stages=max_stages, max_atoms=max_atoms
    )
    return witness is not None


def observation6_witness(
    queries: Sequence[ConjunctiveQuery],
    green_instance: Structure,
    max_stages: int = 6,
    max_atoms: int = 4_000,
) -> Optional[Dict[object, object]]:
    """Return an explicit Observation 6 homomorphism for a chase prefix."""
    tgds = build_tq(queries)
    result = run_chase(
        tgds, green_instance, max_stages=max_stages, max_atoms=max_atoms
    )
    collapsed_chase = dalt_structure(result.structure)
    collapsed_input = dalt_structure(green_instance)
    witness = chase_collapse_witness(result)
    if is_homomorphism(witness, collapsed_chase, collapsed_input):
        return witness
    return find_homomorphism(collapsed_chase, collapsed_input)
