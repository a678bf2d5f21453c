"""Reference oracle for semi-naive delta discovery.

The delta matches of a TGD body over the stamp window
``[delta_lo, stage_start)`` are, by definition, the body matches in the
structure as it stood at ``stage_start`` minus the matches already present
at ``delta_lo``.  :func:`reference_delta_matches` computes exactly that with
the authoritative backtracking search
(:class:`~repro.core.homomorphism.HomomorphismProblem`) over the index's
stamp prefixes, so the compiled enumeration
(:func:`repro.engine.delta.compiled_delta_matches`) can be held against it.
"""

from repro.core.homomorphism import HomomorphismProblem
from repro.core.structure import Structure
from repro.engine.delta import assignment_layout


def prefix_structure(index, hi):
    """The indexed atoms with stamp < *hi*, as a fresh structure."""
    atoms = []
    for predicate in index.interner.predicates_since(0):
        atoms.extend(index.atoms(predicate, None, hi))
    return Structure(atoms)


def reference_delta_matches(tgd, index, delta_lo, stage_start):
    """Body matches over the prefix ``< stage_start`` minus those over the
    prefix ``< delta_lo``, as assignments of the TGD's non-rigid body terms.
    """
    layout = assignment_layout(tgd)

    def matches(hi):
        problem = HomomorphismProblem(list(tgd.body), prefix_structure(index, hi))
        return {
            tuple(solution[term] for term in layout)
            for solution in problem.solutions()
        }

    return [
        dict(zip(layout, row)) for row in matches(stage_start) - matches(delta_lo)
    ]
