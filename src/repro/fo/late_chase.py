"""Early and late chase fragments (Section IX.B).

For the FO non-rewritability argument the paper cuts the infinite chase
``chase(T_{Q∞}, I)`` into pieces:

* the *early* fragment ``chase_i(T_{Q∞}, I)`` — the first ``i`` stages;
* the *late* fragment ``chase^L_{2i}(T_{Q∞}, I)`` — the atoms added at some
  stage ``j`` with ``i ≤ j ≤ 2i`` (equivalently: atoms of ``chase_{2i}``
  that are not atoms of ``chase_i``), together with all elements involved
  with these atoms, including the constants ``a`` and ``b``.

Both fragments, and their daltonised green / red parts, are the building
blocks of the structures ``Dy`` and ``Dn``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..chase.chase import ChaseResult
from ..core.structure import Structure
from ..engine import run_chase
from ..greenred.coloring import dalt_structure, green_part, red_part
from ..greengraph.precompile import precompile
from ..separating.t_infinity import t_infinity_rules
from ..spiders.compile_ops import compile_swarm
from ..swarm.compile import universe_for_rules
from ..swarm.swarm import Swarm
from ..spiders.ideal import FULL_GREEN
from .q_infinity import ANTENNA_B, TAIL_A, q_infinity_tgds, seed_green_spider


@dataclass
class ChaseFragments:
    """The early and late fragments of a bounded chase of ``T_{Q∞}``."""

    i: int
    result: ChaseResult
    early: Structure
    late: Structure

    # ------------------------------------------------------------------
    def early_green_dalt(self) -> Structure:
        """``dalt(chase_i ↾ G)``."""
        return dalt_structure(green_part(self.early), name=f"dalt(early|G,{self.i})")

    def early_red_dalt(self) -> Structure:
        """``dalt(chase_i ↾ R)``."""
        return dalt_structure(red_part(self.early), name=f"dalt(early|R,{self.i})")

    def late_green_dalt(self) -> Structure:
        """``dalt(chase^L_{2i} ↾ G)``."""
        return dalt_structure(green_part(self.late), name=f"dalt(late|G,{self.i})")

    def late_red_dalt(self) -> Structure:
        """``dalt(chase^L_{2i} ↾ R)``."""
        return dalt_structure(red_part(self.late), name=f"dalt(late|R,{self.i})")


def chase_fragments(
    i: int,
    max_atoms: int = 60_000,
    seed: Optional[Structure] = None,
    via_level1: bool = True,
) -> ChaseFragments:
    """Compute the early (``chase_i``) and late (``chase^L_{2i}``) fragments.

    Two construction routes are offered:

    * ``via_level1=False`` runs the Level-0 chase of ``T_{Q∞}`` literally (the
      paper's definition).  It is faithful but expensive — the spider-query
      bodies have hundreds of atoms — and is only advisable for ``i ≤ 1``.
    * ``via_level1=True`` (default) runs the equivalent chase at Abstraction
      Level 1 (swarm rewriting rules, which is what the paper itself does
      when reasoning about these structures) and then ``compile``s the swarm
      down to Level 0 (Definition 29).  By Lemma 27 the compiled structure
      satisfies ``T_{Q∞}`` and contains exactly the same spiders, so the
      daltonised fragments have the same shape; this route is what makes the
      Theorem 2 experiment tractable and is recorded as a substitution in
      EXPERIMENTS.md.
    """
    if not via_level1 or seed is not None:
        start = seed if seed is not None else seed_green_spider()
        tgds = q_infinity_tgds()
        result = run_chase(tgds, start, max_stages=2 * i, max_atoms=max_atoms)
        stages = result.stage_snapshots
        early_index = min(i, len(stages) - 1)
        early = stages[early_index].copy(name=f"chase_{i}")
        late_atoms = result.structure.atoms() - stages[early_index].atoms()
        late = Structure(late_atoms, name=f"chaseL_{2 * i}")
        late.add_element(TAIL_A)
        late.add_element(ANTENNA_B)
        return ChaseFragments(i=i, result=result, early=early, late=late)
    return _fragments_via_level1(i, max_atoms)


def _fragments_via_level1(i: int, max_atoms: int) -> ChaseFragments:
    """The Level-1 route: chase the swarm rules, then compile each fragment."""
    level1 = precompile(t_infinity_rules())
    universe = universe_for_rules(level1.rules)
    start = Swarm(name="swarm-seed")
    start.add_edge(FULL_GREEN, TAIL_A, ANTENNA_B)
    result = run_chase(
        level1.tgds(), start.structure(), max_stages=2 * i, max_atoms=max_atoms
    )
    stages = result.stage_snapshots
    early_index = min(i, len(stages) - 1)
    early_swarm = Swarm.from_structure(stages[early_index], name=f"swarm_chase_{i}")
    late_atoms = result.structure.atoms() - stages[early_index].atoms()
    late_structure = Structure(late_atoms, name=f"swarm_chaseL_{2 * i}")
    late_swarm = Swarm.from_structure(late_structure, name=f"swarm_chaseL_{2 * i}")
    early = compile_swarm(early_swarm, universe, name=f"chase_{i}")
    late = compile_swarm(late_swarm, universe, name=f"chaseL_{2 * i}")
    for fragment in (early, late):
        fragment.add_element(TAIL_A)
        fragment.add_element(ANTENNA_B)
    return ChaseFragments(i=i, result=result, early=early, late=late)
