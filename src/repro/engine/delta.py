"""Delta-driven trigger discovery (the semi-naive evaluation step).

The key observation behind semi-naive chase evaluation: at stage ``i+1`` the
body of a TGD is matched against ``chase_i``, but any match that lies
entirely inside ``chase_{i-1}`` was already enumerated at stage ``i`` — at
that point it either fired (so its head is satisfied now) or its head was
already satisfied (and head satisfaction is monotone under atom addition).
Either way it is inactive forever after.  Hence only matches using **at
least one atom added during the previous stage** (the *delta*) can fire, and
it suffices to enumerate those: for every body-atom position ``j``, seed the
match with a delta atom at position ``j`` and complete the remaining body
atoms against the stage-start prefix of the index.

All matching here runs the compiled query runtime (:mod:`repro.query`)
against :class:`~repro.engine.indexes.AtomIndex` posting-list prefixes — no
structure copy, no frozenset materialisation.  The reference chase and
:class:`~repro.core.homomorphism.HomomorphismProblem` are the oracles the
tests hold this enumeration against.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple

from ..chase.tgd import TGD
from ..core.terms import is_rigid
from ..obs.metrics import active as _metrics_active
from ..query.compile import STRATEGIES, compiled_for, execute_hash, execute_nested
from ..query.evaluator import exists_match
from ..query.wcoj import execute_wcoj
from .indexes import AtomIndex

Assignment = Dict[object, object]
FrontierKey = Tuple[Tuple[object, object], ...]


def head_satisfied_indexed(
    tgd: TGD, index: AtomIndex, frontier_assignment: Assignment
) -> bool:
    """Indexed version of :func:`repro.chase.trigger.head_satisfied`.

    Checks ``∃z̄ Ψ(z̄, b̄)`` against the *current* (full) contents of the
    index, i.e. the growing structure — the paper's condition (­) — through
    the planned query evaluator.
    """
    return exists_match(list(tgd.head), index, dict(frontier_assignment), hi=None)


def assignment_layout(tgd: TGD) -> Tuple[object, ...]:
    """The canonical order of a TGD's non-rigid body terms.

    This is both the decode order of :func:`compiled_delta_matches` and the
    wire order of the parallel pool (workers encode each discovered
    assignment as the tuple of interned value IDs in this order; the engine
    decodes with the same layout).  Sorted by ``repr`` so every process
    derives it independently of hash seeds.
    """
    terms = {arg for atom in tgd.body for arg in atom.args if not is_rigid(arg)}
    return tuple(sorted(terms, key=repr))


def select_delta_executor(compiled, strategy: str):
    """The compiled executor the delta discipline runs *compiled* on.

    ``"nested"`` (the default everywhere) is the engine's historical
    executor; ``"wcoj"`` / ``"hash"`` force the generic-join or hash-join
    executor; ``"auto"`` upgrades to the worst-case-optimal executor exactly
    when the compiler flagged the seeded body
    (:attr:`~repro.query.compile.CompiledQuery.wcoj_recommended`: cyclic
    over large enough posting lists) and stays nested otherwise.  Every
    executor enumerates the same match set under the same seed windows, so
    the choice never reaches the chase output — the differential harness
    pins this bit for bit.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown match strategy {strategy!r}; known: {', '.join(STRATEGIES)}"
        )
    if strategy == "wcoj" or (strategy == "auto" and compiled.wcoj_recommended):
        return execute_wcoj
    if strategy == "hash":
        return execute_hash
    return execute_nested


def iter_encoded_matches(
    tgd: TGD,
    layout: Tuple[object, ...],
    index: AtomIndex,
    delta_lo: int,
    stage_start: int,
    seed_lo: Optional[int] = None,
    seed_hi: Optional[int] = None,
    strategy: str = "nested",
) -> Iterator[Tuple[int, ...]]:
    """Delta body matches as interned-ID rows in *layout* order.

    The single copy of the delta enumeration both discovery paths share:
    each ``(body, seed position)`` pair is compiled **once per chase** (the
    register program and its slot layout are cached on the index) and
    matching walks interned int rows instead of term-object tuples.  Seed
    positions whose predicate gained no atoms in the delta window are
    skipped before any plan is even looked up, which is what makes
    whole-stage batch discovery one cheap pass when most TGDs are untouched
    by a stage's delta.  Solutions stay in register form — the serial
    caller decodes them (:func:`compiled_delta_matches`), the parallel
    workers ship them as-is (one small int tuple per candidate on the
    wire).

    ``seed_lo`` / ``seed_hi`` restrict the *seed* atom to a stamp sub-range
    of ``[delta_lo, stage_start)`` while leaving the completion windows
    alone.  A match is seeded exactly at its first body position carrying a
    delta atom, so partitioning the delta into disjoint seed windows
    partitions the match set — the property the parallel pool's
    delta-window splitting relies on (each worker produces the serial
    matches whose seed stamp falls in its sub-window, no overlaps, no
    gaps).
    """
    body = tuple(tgd.body)
    if not body:
        return
    window_lo = delta_lo if seed_lo is None else seed_lo
    window_hi = stage_start if seed_hi is None else seed_hi
    interner = index.interner
    # One fetch per (TGD, stage) enumeration; counters separate the seed
    # positions actually enumerated from the ones the empty-delta pre-check
    # discards — the number EXPLAIN-style tuning of batch discovery needs.
    registry = _metrics_active()
    for seed in range(len(body)):
        pid = interner.predicate_id(body[seed].predicate)
        posting = index.posting(pid)
        if posting is None:
            if registry is not None:
                registry.counter("delta.seeds_skipped").inc()
            continue
        start, stop = posting.bounds(window_lo, window_hi)
        if start >= stop:
            if registry is not None:
                registry.counter("delta.seeds_skipped").inc()
            continue  # no delta atoms can seed at this position
        if registry is not None:
            registry.counter("delta.seeds_enumerated").inc()
        compiled = compiled_for(index, body, frozenset(), seed=seed)
        slot_of = dict(compiled.outputs)
        order = tuple(slot_of[term] for term in layout)
        executor = select_delta_executor(compiled, strategy)
        for registers in executor(
            compiled,
            index,
            compiled.fresh_registers(),
            delta_lo=delta_lo,
            stage_start=stage_start,
            seed_lo=seed_lo,
            seed_hi=seed_hi,
        ):
            yield tuple(registers[slot] for slot in order)


def compiled_delta_matches(
    tgd: TGD,
    index: AtomIndex,
    delta_lo: int,
    stage_start: int,
    seed_window: Optional[Tuple[int, int]] = None,
    strategy: str = "nested",
) -> Iterator[Assignment]:
    """All body matches in the stage-start prefix that use at least one atom
    with stamp in ``[delta_lo, stage_start)``, as assignment dicts.

    Classic semi-naive enumeration: a match is seeded at its *first* body
    position carrying a delta atom, so each match is produced exactly once;
    with ``delta_lo == 0`` this degenerates to full (naive) enumeration over
    the prefix, which is exactly what the first stage needs.  A thin decode
    wrapper over :func:`iter_encoded_matches`, which holds the actual
    enumeration logic — keeping serial and parallel discovery on one code
    path.  ``strategy`` selects the compiled executor (see
    :func:`select_delta_executor`).
    """
    layout = assignment_layout(tgd)
    seed_lo, seed_hi = seed_window if seed_window is not None else (None, None)
    term = index.interner.term
    for row in iter_encoded_matches(
        tgd, layout, index, delta_lo, stage_start, seed_lo, seed_hi, strategy
    ):
        yield {variable: term(vid) for variable, vid in zip(layout, row)}
