"""The worst-case-optimal generic-join executor (Leapfrog Triejoin-style).

:func:`execute_wcoj` is the third executor of the compiled query runtime,
sharing the :class:`~repro.query.compile.CompiledQuery` form, the register
protocol and the stamp-window semantics of ``execute_nested`` /
``execute_hash`` — :func:`repro.query.compile.choose_executor` picks it for
large cyclic bodies, and it plugs into the same call sites, delta trigger
discovery included.

Instead of joining atoms pairwise, it resolves **one variable per level** of
the global order chosen by :mod:`~repro.query.wcoj.order`: the candidate
values for a variable are the *intersection*, over every atom containing it,
of the sorted values extending the atom's current trie range.  Intersection
runs as a multiway leapfrog — keep a cursor per participating atom, seek
every cursor to the maximum cursor value via :func:`bisect.bisect_left` on
the sorted trie rows, emit when all cursors agree — so a level never costs
more than the *smallest* participating column, and the total work is
bounded by the AGM fractional-cover bound of the body rather than by the
size of any binary-join intermediate.  On the triangle ``R(x,y), R(y,z),
R(z,x)`` this is the textbook case: binary plans materialise all 2-paths,
generic join touches only edge-supported prefixes.

Pre-bound registers (``fix`` / frozen images, rigid constants are compiled
into the trie filters) occupy the leading levels and cost one seek per
incident atom.  The per-snapshot trie preamble is cached on the compiled
query (``_wcoj_key`` / ``_wcoj_state``) exactly like the nested executor's
posting preamble, keyed by ``(stamp windows, index generation)``; the tries
themselves live in the index's :class:`~repro.query.wcoj.trie.TrieCache`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Iterator, List, Optional

from ...obs.metrics import active as _metrics_active
from ...obs.trace import get_tracer as _get_tracer
from ..compile import CompiledQuery, _resolve_windows
from .order import build_wcoj_plan
from .trie import trie_cache_for

if TYPE_CHECKING:  # type-only: keeps repro.query importable before repro.engine
    from ...engine.indexes import AtomIndex


def execute_wcoj(
    compiled: CompiledQuery,
    index: "AtomIndex",
    registers: List[int],
    hi: Optional[int] = None,
    delta_lo: Optional[int] = None,
    stage_start: Optional[int] = None,
    seed_lo: Optional[int] = None,
    seed_hi: Optional[int] = None,
) -> Iterator[List[int]]:
    """Generic-join execution of *compiled*; yields the shared register file.

    Same contract as :func:`~repro.query.compile.execute_nested`: identical
    solution sets, one yield per solution, callers decode (or copy) before
    advancing; supports the full delta seed-window surface (``delta_lo`` /
    ``stage_start`` / ``seed_lo`` / ``seed_hi``), so
    :mod:`repro.engine.delta` can run trigger discovery on it unchanged.
    """
    steps = compiled.steps
    if not steps:
        yield registers
        return
    plan = compiled._wcoj_plan
    if plan is None:
        plan = compiled._wcoj_plan = build_wcoj_plan(compiled)

    # Per-snapshot preamble: resolve the stamp windows and fetch (build,
    # extend or reuse) one trie per atom.  An empty trie proves there are no
    # solutions at all, and "empty" is cached too.
    exec_key = (hi, delta_lo, stage_start, seed_lo, seed_hi, index.generation())
    registry = _metrics_active()
    if compiled._wcoj_key == exec_key:
        if registry is not None:
            registry.counter("wcoj.preamble.reused").inc()
        tries = compiled._wcoj_state
        if tries is None:
            return
    else:
        if registry is not None:
            registry.counter("wcoj.preamble.resolved").inc()
        tracer = _get_tracer()
        if tracer is not None:
            tracer.event(
                "wcoj.preamble", atoms=len(steps), levels=len(plan.levels)
            )
        cache = trie_cache_for(index)
        watermark = index.watermark()
        windows = _resolve_windows(steps, hi, delta_lo, stage_start, seed_lo, seed_hi)
        tries = []
        for spec, (window_lo, window_hi) in zip(plan.atom_specs, windows):
            trie = cache.get(
                spec,
                0 if window_lo is None else window_lo,
                watermark if window_hi is None else window_hi,
            )
            if not trie.rows:
                tries = None
                break
            tries.append(trie.rows)
        compiled._wcoj_key = exec_key
        compiled._wcoj_state = tries
        if tries is None:
            return

    levels = plan.levels
    nlevels = len(levels)
    if nlevels == 0:
        # Every atom is ground (all-constant body): the non-empty tries above
        # already proved membership of each atom.
        yield registers
        return
    # ranges[atom] is the current trie node of *atom* — the contiguous row
    # range matching the values assigned so far to its earlier columns.
    ranges: List[tuple] = [(0, len(rows)) for rows in tries]

    def descend(level: int) -> Iterator[List[int]]:
        if level == nlevels:
            yield registers
            return
        slot, prebound, parts = levels[level]
        if prebound:
            # The value is fixed before execution: one seek per atom.
            value = registers[slot]
            saved = []
            satisfied = True
            for atom_index, column in parts:
                rows = tries[atom_index]
                range_lo, range_hi = ranges[atom_index]
                prefix = rows[range_lo][:column]
                start = bisect_left(rows, prefix + (value,), range_lo, range_hi)
                if start == range_hi or rows[start][column] != value:
                    satisfied = False
                    break
                stop = bisect_left(rows, prefix + (value + 1,), start, range_hi)
                saved.append((atom_index, range_lo, range_hi))
                ranges[atom_index] = (start, stop)
            if satisfied:
                yield from descend(level + 1)
            for atom_index, range_lo, range_hi in saved:
                ranges[atom_index] = (range_lo, range_hi)
            return
        # Leapfrog intersection over every participating atom's next column.
        count = len(parts)
        columns: List[int] = []
        row_lists: List[list] = []
        prefixes: List[tuple] = []
        highs: List[int] = []
        cursors: List[int] = []
        for atom_index, column in parts:
            rows = tries[atom_index]
            range_lo, range_hi = ranges[atom_index]
            columns.append(column)
            row_lists.append(rows)
            prefixes.append(rows[range_lo][:column])
            highs.append(range_hi)
            cursors.append(range_lo)
        value = max(
            row_lists[j][cursors[j]][columns[j]] for j in range(count)
        )
        while True:
            # Seek every cursor to the first row with column value ≥ `value`;
            # whenever a seek overshoots, restart the sweep at the new max.
            agreed = True
            exhausted = False
            for j in range(count):
                rows = row_lists[j]
                column = columns[j]
                cursor = cursors[j]
                if rows[cursor][column] < value:
                    cursor = bisect_left(
                        rows, prefixes[j] + (value,), cursor, highs[j]
                    )
                    if cursor == highs[j]:
                        exhausted = True
                        break
                    cursors[j] = cursor
                    found = rows[cursor][column]
                    if found > value:
                        value = found
                        agreed = False
                        break
            if exhausted:
                return
            if not agreed:
                continue
            # All cursors agree on `value`: narrow each atom to its sub-node,
            # recurse, then restore and advance past the value.
            registers[slot] = value
            saved = []
            for j in range(count):
                atom_index = parts[j][0]
                stop = bisect_left(
                    row_lists[j], prefixes[j] + (value + 1,), cursors[j], highs[j]
                )
                saved.append((atom_index, ranges[atom_index]))
                ranges[atom_index] = (cursors[j], stop)
                cursors[j] = stop
            yield from descend(level + 1)
            for atom_index, old_range in saved:
                ranges[atom_index] = old_range
            for j in range(count):
                if cursors[j] == highs[j]:
                    return
            value = max(
                row_lists[j][cursors[j]][columns[j]] for j in range(count)
            )

    yield from descend(0)
