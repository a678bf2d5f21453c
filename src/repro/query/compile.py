"""The compiled query runtime: slot layouts, plan caching, join executors.

This module turns a conjunctive-query body into a :class:`CompiledQuery` —
a small register program over the interned fact encoding of
:class:`~repro.engine.indexes.AtomIndex` — and caches it on the index so
that repeated evaluations (trigger discovery re-runs the same TGD bodies
thousands of times per chase) skip planning and variable-layout work
entirely.

**Compilation.**  A greedy most-constrained-first join order
(:func:`_greedy_order`) is fixed once; every distinct non-rigid term gets a
dense register *slot*, and each argument position of each planned atom
compiles to one of three ops: ``BIND`` (first occurrence writes the slot),
``CHECK_SLOT`` (later occurrence must equal the slot), or ``CHECK_CONST``
(rigid constants compare against their interned ID).  Execution therefore
never touches a dict or a term object until a full match is decoded.

**Plan caching.**  Compiled queries are cached per index, keyed by the query
*shape* — the atom tuple plus the set of pre-bound terms — and validated
against the structure's generation counter: an unchanged generation is an
exact hit; a grown structure keeps the plan as long as no posting list has
outgrown its planning-time size by more than :data:`GROWTH_FACTOR` (the
greedy order is a heuristic, so bounded staleness is safe — correctness
never depends on the statistics); an atom removal (index rebuild) drops the
cache.  Interned IDs embedded in a plan never dangle: the symbol tables are
append-only, and constants or predicates unseen at compile time are interned
eagerly so the plan stays valid when matching facts appear later.

**Execution.**  Three executors share the compiled form:

* :func:`execute_nested` — depth-first build-as-you-go probing through the
  most selective ``(predicate, position, value)`` posting window; lazy,
  ideal for
  ``exists``-style and ``limit=1`` calls;
* :func:`execute_hash` — breadth-first hash join: per step, one scan of the
  step's posting window builds a table keyed on the already-bound positions,
  and every partial result probes it in O(1).  Selected by ``strategy="auto"``
  for unselective opening scans on acyclic bodies;
* :func:`repro.query.wcoj.execute_wcoj` — worst-case-optimal generic join
  (Leapfrog Triejoin-style): one variable at a time, multiway leapfrog
  intersection over sorted column tries.  Selected by ``strategy="auto"``
  for cyclic bodies over large enough posting lists, where *any* binary
  join order can materialise intermediates asymptotically larger than the
  output (the AGM bound).

All executors produce exactly the same solution *set* as the reference
:class:`~repro.core.homomorphism.HomomorphismProblem`; the differential
suites in ``tests/test_query_eval.py`` / ``tests/test_wcoj.py`` hold them
against each other.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.atoms import Atom
from ..core.terms import is_rigid
from ..obs.metrics import active as _metrics_active
from ..obs.trace import get_tracer as _get_tracer

if TYPE_CHECKING:  # type-only: keeps repro.query importable before repro.engine
    from ..engine.indexes import AtomIndex

# Opcodes of the per-position register program.
OP_BIND = 0
OP_CHECK_SLOT = 1
OP_CHECK_CONST = 2

# Stamp-window tags: which slice of the posting lists a step ranges over.
# Plain queries use W_ALL (bounded by the per-call watermark); the delta
# seeding discipline of :mod:`repro.engine.delta` uses the other three.
W_ALL = 0  # [0, hi)             — the evaluation snapshot
W_PRE = 1  # [0, delta_lo)       — strictly before the delta
W_SEED = 2  # [delta_lo, stage)  — the delta itself
W_STAGE = 3  # [0, stage)        — the stage-start prefix

#: A cached plan survives structure growth until some posting list it scans
#: has grown past ``max(GROWTH_FLOOR, GROWTH_FACTOR ×)`` its planning-time
#: size; then the join order is recomputed against the fresh statistics.
GROWTH_FACTOR = 2
GROWTH_FLOOR = 16

#: ``strategy="auto"`` opens with a hash join when the first step scans an
#: unbound posting list at least this large (and the body has ≥ 3 atoms).
HASH_SCAN_THRESHOLD = 128

#: ``strategy="auto"`` upgrades a *cyclic* body to the worst-case-optimal
#: generic-join executor (:mod:`repro.query.wcoj`) once the largest posting
#: list it scans reaches this size — below it, the trie-build preamble costs
#: more than any binary-join blowup could.
WCOJ_AUTO_THRESHOLD = 64

#: The executor names :func:`execute` accepts.
STRATEGIES = ("auto", "nested", "hash", "wcoj")


class CompiledStep:
    """One planned atom as a register program over encoded rows."""

    __slots__ = (
        "atom",
        "pred_id",
        "window",
        "ops",
        "binds",
        "consts",
        "joins",
        "sames",
        "planned_count",
    )

    def __init__(
        self,
        atom: Atom,
        pred_id: int,
        window: int,
        ops: Tuple[Tuple[int, int, int], ...],
        binds: Tuple[Tuple[int, int], ...],
        consts: Tuple[Tuple[int, int], ...],
        joins: Tuple[Tuple[int, int], ...],
        sames: Tuple[Tuple[int, int], ...],
        planned_count: int,
    ) -> None:
        self.atom = atom
        self.pred_id = pred_id
        self.window = window
        #: ``(opcode, position, operand)`` in argument-position order.
        self.ops = ops
        #: ``(position, slot)`` for first-occurrence BIND positions.
        self.binds = binds
        #: ``(position, value_id)`` for rigid-constant positions.
        self.consts = consts
        #: ``(position, slot)`` for positions checked against a slot that is
        #: bound *before* this step runs — the step's join key.
        self.joins = joins
        #: ``(position, earlier_position)`` for repeats within this atom.
        self.sames = sames
        self.planned_count = planned_count


class CompiledQuery:
    """A fully planned, slot-laid-out, int-encoded conjunctive query."""

    __slots__ = (
        "steps",
        "nslots",
        "prebound",
        "outputs",
        "cyclic",
        "hash_recommended",
        "wcoj_recommended",
        "_exec_key",
        "_exec_state",
        "_hash_key",
        "_hash_state",
        "_wcoj_plan",
        "_wcoj_key",
        "_wcoj_state",
    )

    def __init__(
        self,
        steps: Tuple[CompiledStep, ...],
        nslots: int,
        prebound: Tuple[Tuple[object, int], ...],
        outputs: Tuple[Tuple[object, int], ...],
        hash_recommended: bool,
        cyclic: bool = False,
        wcoj_recommended: bool = False,
    ) -> None:
        self.steps = steps
        self.nslots = nslots
        # Cached executor preamble (windows, posting rows, const probes) for
        # the last (hi, delta_lo, stage_start, watermark) it ran under — see
        # execute_nested.  Repeated evaluation against an unchanged snapshot
        # skips the whole preamble.
        self._exec_key: Optional[tuple] = None
        self._exec_state: Optional[tuple] = None
        # The hash executor's per-step build tables for the last snapshot it
        # ran under, keyed the same way (stamp windows + index generation).
        # Build tables depend only on posting rows and windows — never on the
        # probing registers — so repeated evaluation against an unchanged
        # snapshot (the ROADMAP (i) case) skips every per-step scan.
        self._hash_key: Optional[tuple] = None
        self._hash_state: Optional[list] = None
        #: ``(term, slot)`` for terms the caller pre-binds (fix / frozen /
        #: frontier images); the slot must be filled with the interned ID of
        #: the image before execution.
        self.prebound = prebound
        #: ``(term, slot)`` for terms the execution binds — the decode list.
        self.outputs = outputs
        #: Whether the variable–atom incidence graph of the body has a cycle
        #: (the shape where binary join orders can blow up intermediates).
        self.cyclic = cyclic
        self.hash_recommended = hash_recommended
        #: ``strategy="auto"`` upgrades to the generic-join executor here.
        self.wcoj_recommended = wcoj_recommended
        # The derived worst-case-optimal plan (variable order + per-atom trie
        # specs) and the per-snapshot trie preamble, both lazily filled by
        # :mod:`repro.query.wcoj` — the analogues of the nested executor's
        # ``_exec_*`` pair.  The plan depends only on the compiled form, so
        # it is computed once; the trie state is keyed by the evaluation
        # snapshot exactly like ``_exec_key``.
        self._wcoj_plan = None
        self._wcoj_key: Optional[tuple] = None
        self._wcoj_state: Optional[list] = None

    def order(self) -> Tuple[Atom, ...]:
        """The planned atom order (mostly for tests and debugging)."""
        return tuple(step.atom for step in self.steps)

    def fresh_registers(self) -> List[int]:
        """An unbound register file (``-1`` = unbound; valid IDs are ≥ 0)."""
        return [-1] * self.nslots


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def is_cyclic(atoms: Sequence[Atom]) -> bool:
    """True when the variable–atom incidence graph of *atoms* has a cycle.

    The bipartite incidence graph has one vertex per atom and one per
    distinct non-rigid term, with an edge for each (term occurs in atom)
    incidence.  A cycle there (Berge-cyclicity — e.g. the triangle
    ``R(x,y), R(y,z), R(z,x)``) is the shape where the greedy left-deep
    order degrades: the closing atom re-joins variables bound far apart in
    the order, so every partial binding pays an index probe.  Star-shaped
    bodies sharing one hub variable (the spider queries) stay acyclic here,
    as they must — nested probing is optimal for them.
    """
    n = len(atoms)
    if n < 3:
        return False
    # A bipartite graph is a forest iff #edges == #vertices - #components;
    # count with a union-find over atom and term vertices.
    parent: Dict[object, object] = {}

    def find(vertex: object) -> object:
        root = vertex
        while parent[root] is not root:
            root = parent[root]
        while parent[vertex] is not root:
            parent[vertex], vertex = root, parent[vertex]
        return root

    edges = 0
    vertices = 0
    for i, atom in enumerate(atoms):
        atom_vertex = ("atom", i)
        parent[atom_vertex] = atom_vertex
        vertices += 1
        for term in set(arg for arg in atom.args if not is_rigid(arg)):
            term_vertex = ("term", term)
            if term_vertex not in parent:
                parent[term_vertex] = term_vertex
                vertices += 1
            edges += 1
            parent[find(atom_vertex)] = find(term_vertex)
    components = len({find(vertex) for vertex in list(parent)})
    return edges > vertices - components


def _greedy_order(
    items: List[Tuple[Atom, int]],
    index: "AtomIndex",
    bound: Set[object],
    forced_first: Optional[int] = None,
) -> List[Tuple[Atom, int]]:
    """Most-constrained-first ordering of ``(atom, window)`` pairs.

    The reference search's heuristic: minimise newly introduced variables,
    prefer connectivity to already-bound terms, break ties on posting-list
    size.  ``forced_first`` pins one item to the front (the
    delta seed atom must come first so the seed window drives the scan).
    """
    remaining = list(items)
    bound_now = set(bound)
    ordered: List[Tuple[Atom, int]] = []
    if forced_first is not None:
        seed = items[forced_first]
        remaining.remove(seed)
        ordered.append(seed)
        bound_now.update(seed[0].args)
    while remaining:

        def score(item: Tuple[Atom, int]) -> Tuple[int, int, int]:
            atom = item[0]
            new_vars = 0
            connected = 0
            for arg in set(atom.args):
                if is_rigid(arg):
                    continue
                if arg in bound_now:
                    connected += 1
                else:
                    new_vars += 1
            return (new_vars, -connected, index.count(atom.predicate))

        best = min(remaining, key=score)
        remaining.remove(best)
        ordered.append(best)
        bound_now.update(best[0].args)
    return ordered


def compile_query(
    index: "AtomIndex",
    atoms: Sequence[Atom],
    bound_terms: Iterable[object] = (),
    seed: Optional[int] = None,
) -> CompiledQuery:
    """Compile *atoms* against *index* into a :class:`CompiledQuery`.

    ``bound_terms`` are the terms whose image the caller will supply at
    execution time (their identity matters for the layout, their values do
    not — this is what makes the compiled form cacheable across calls with
    different ``fix`` bindings).  ``seed`` selects delta-seeded compilation:
    body position *seed* is pinned first with the ``W_SEED`` window, earlier
    positions get ``W_PRE`` and later ones ``W_STAGE`` (the classic
    semi-naive discipline that produces every delta match exactly once).
    """
    interner = index.interner
    bound_set = set(bound_terms)
    if seed is None:
        items = [(atom, W_ALL) for atom in atoms]
        ordered = _greedy_order(items, index, bound_set)
    else:
        items = []
        for position, atom in enumerate(atoms):
            if position == seed:
                items.append((atom, W_SEED))
            elif position < seed:
                items.append((atom, W_PRE))
            else:
                items.append((atom, W_STAGE))
        ordered = _greedy_order(items, index, bound_set, forced_first=seed)

    slot_of: Dict[object, int] = {}
    prebound: List[Tuple[object, int]] = []
    outputs: List[Tuple[object, int]] = []
    bound_before: Set[int] = set()
    steps: List[CompiledStep] = []
    for atom, window in ordered:
        pred_id = interner.intern_predicate(atom.predicate)
        ops: List[Tuple[int, int, int]] = []
        binds: List[Tuple[int, int]] = []
        consts: List[Tuple[int, int]] = []
        joins: List[Tuple[int, int]] = []
        sames: List[Tuple[int, int]] = []
        bind_position_of: Dict[int, int] = {}  # slot -> position bound here
        for position, arg in enumerate(atom.args):
            slot = slot_of.get(arg)
            if slot is not None:
                ops.append((OP_CHECK_SLOT, position, slot))
                if slot in bound_before:
                    joins.append((position, slot))
                else:
                    sames.append((position, bind_position_of[slot]))
            elif arg in bound_set:
                slot = len(slot_of)
                slot_of[arg] = slot
                prebound.append((arg, slot))
                bound_before.add(slot)
                ops.append((OP_CHECK_SLOT, position, slot))
                joins.append((position, slot))
            elif is_rigid(arg):
                # Interned eagerly (not looked up) so the compiled plan stays
                # valid if the constant only appears in facts added later.
                vid = interner.intern_term(arg)
                ops.append((OP_CHECK_CONST, position, vid))
                consts.append((position, vid))
            else:
                slot = len(slot_of)
                slot_of[arg] = slot
                outputs.append((arg, slot))
                ops.append((OP_BIND, position, slot))
                binds.append((position, slot))
                bind_position_of[slot] = position
        steps.append(
            CompiledStep(
                atom=atom,
                pred_id=pred_id,
                window=window,
                ops=tuple(ops),
                binds=tuple(binds),
                consts=tuple(consts),
                joins=tuple(joins),
                sames=tuple(sames),
                planned_count=index.count(atom.predicate),
            )
        )
        for _, slot in binds:
            bound_before.add(slot)

    cyclic = len(steps) >= 3 and is_cyclic([atom for atom, _ in ordered])
    hash_recommended = False
    if len(steps) >= 3 and seed is None:
        if cyclic:
            hash_recommended = True
        else:
            first = steps[0]
            if (
                not first.joins
                and not first.consts
                and first.planned_count >= HASH_SCAN_THRESHOLD
            ):
                hash_recommended = True
    # Cyclicity is a property of the body alone, so the generic-join upgrade
    # applies to seeded (delta-window) compilations too — the engine's
    # ``match_strategy="auto"`` consults the flag per compiled (body, seed).
    wcoj_recommended = cyclic and any(
        step.planned_count >= WCOJ_AUTO_THRESHOLD for step in steps
    )
    return CompiledQuery(
        steps=tuple(steps),
        nslots=len(slot_of),
        prebound=tuple(prebound),
        outputs=tuple(outputs),
        hash_recommended=hash_recommended,
        cyclic=cyclic,
        wcoj_recommended=wcoj_recommended,
    )


# ----------------------------------------------------------------------
# The per-index plan cache
# ----------------------------------------------------------------------
class _CacheEntry:
    __slots__ = ("compiled", "validated_generation")

    def __init__(self, compiled: CompiledQuery, generation: Tuple[int, int]) -> None:
        self.compiled = compiled
        self.validated_generation = generation


class PlanCache:
    """Compiled queries of one index, keyed by query shape.

    Validation is generation-based (see the module docstring): exact
    generation match → :attr:`hits`; bounded growth → :attr:`stale_hits`
    (the plan is revalidated without replanning); unbounded growth →
    re-compilation; an index rebuild (atom removal) → :attr:`invalidations`
    of the whole cache.
    """

    __slots__ = ("index", "entries", "hits", "stale_hits", "misses", "invalidations")

    def __init__(self, index: "AtomIndex") -> None:
        self.index = index
        self.entries: Dict[object, _CacheEntry] = {}
        self.hits = 0
        self.stale_hits = 0
        self.misses = 0
        self.invalidations = 0

    def _generation(self) -> Tuple[int, int]:
        """``(rebuilds, mutation counter)`` of the followed structure.

        While the index is attached this is :attr:`Structure.generation` —
        the counter every mutation bumps — paired with the rebuild count;
        a detached index falls back to its own ``(rebuilds, watermark)``.
        Either way, equality means "nothing changed since", which is all the
        validity check needs (plans themselves stay *semantically* valid
        forever — interned IDs never dangle — so staleness only ever costs
        join-order quality, never correctness).
        """
        index = self.index
        structure = index.structure
        if structure is not None:
            return (index.rebuilds, structure.generation)
        return index.generation()

    def lookup(self, key: object) -> Optional[CompiledQuery]:
        # One module-global read per lookup (not per row); the events below
        # mirror the counters for the trace timeline when tracing is on.
        tracer = _get_tracer()
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            if tracer is not None:
                tracer.event("query.plan.miss", reason="absent")
            return None
        generation = self._generation()
        if generation == entry.validated_generation:
            self.hits += 1
            if tracer is not None:
                tracer.event("query.plan.hit")
            return entry.compiled
        if generation[0] != entry.validated_generation[0]:
            # The index rebuilt itself (an atom was removed): posting lists
            # were replaced wholesale, so every cached plan's statistics are
            # void.  IDs stay valid, but recompiling is the simple safe move.
            self.entries.clear()
            self.invalidations += 1
            self.misses += 1
            if tracer is not None:
                tracer.event("query.plan.invalidate", reason="index-rebuild")
                tracer.event("query.plan.miss", reason="invalidated")
            return None
        for step in entry.compiled.steps:
            posting = self.index.posting(step.pred_id)
            current = 0 if posting is None else posting.length
            if current > max(GROWTH_FLOOR, GROWTH_FACTOR * step.planned_count):
                del self.entries[key]
                self.misses += 1
                if tracer is not None:
                    tracer.event(
                        "query.plan.miss",
                        reason="growth",
                        predicate=step.atom.predicate,
                        planned=step.planned_count,
                        current=current,
                    )
                return None
        entry.validated_generation = generation
        self.stale_hits += 1
        if tracer is not None:
            tracer.event("query.plan.stale_hit")
        return entry.compiled

    def store(self, key: object, compiled: CompiledQuery) -> None:
        self.entries[key] = _CacheEntry(compiled, self._generation())


def plan_cache_for(index: "AtomIndex") -> PlanCache:
    """The plan cache of *index*, created on first use."""
    cache = index.plan_cache
    if cache is None:
        cache = index.plan_cache = PlanCache(index)
    return cache


def compiled_for(
    index: "AtomIndex",
    atoms: Tuple[Atom, ...],
    bound_terms: frozenset,
    context=None,
    seed: Optional[int] = None,
) -> CompiledQuery:
    """The cached :class:`CompiledQuery` for this shape, compiling on miss.

    *context*, when given, is an :class:`~repro.query.context.EvalContext`
    whose ``plans_compiled`` / ``plans_reused`` counters are bumped — the
    hooks the cache-behaviour tests and benchmarks observe.
    """
    cache = plan_cache_for(index)
    key = (atoms, bound_terms) if seed is None else (atoms, bound_terms, seed)
    compiled = cache.lookup(key)
    if compiled is not None:
        if context is not None:
            context.plans_reused += 1
        return compiled
    compiled = compile_query(index, atoms, bound_terms, seed=seed)
    cache.store(key, compiled)
    if context is not None:
        context.plans_compiled += 1
    return compiled


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _resolve_windows(
    steps: Tuple[CompiledStep, ...],
    hi: Optional[int],
    delta_lo: Optional[int],
    stage_start: Optional[int],
    seed_lo: Optional[int] = None,
    seed_hi: Optional[int] = None,
) -> List[Tuple[Optional[int], Optional[int]]]:
    """Per-step stamp windows.

    ``seed_lo`` / ``seed_hi`` narrow the ``W_SEED`` window to a sub-range of
    the delta (the parallel pool's delta-window partitioning: each worker
    seeds matches only at delta atoms inside its sub-window, while the
    ``W_PRE`` / ``W_STAGE`` completion windows stay untouched — so the
    workers' match sets partition the serial one exactly).
    """
    windows: List[Tuple[Optional[int], Optional[int]]] = []
    for step in steps:
        if step.window == W_ALL:
            windows.append((None, hi))
        elif step.window == W_PRE:
            windows.append((None, delta_lo))
        elif step.window == W_SEED:
            windows.append(
                (
                    delta_lo if seed_lo is None else seed_lo,
                    stage_start if seed_hi is None else seed_hi,
                )
            )
        else:
            windows.append((None, stage_start))
    return windows


def execute_nested(
    compiled: CompiledQuery,
    index: "AtomIndex",
    registers: List[int],
    hi: Optional[int] = None,
    delta_lo: Optional[int] = None,
    stage_start: Optional[int] = None,
    seed_lo: Optional[int] = None,
    seed_hi: Optional[int] = None,
) -> Iterator[List[int]]:
    """Depth-first compiled execution (index-probe nested-loop join).

    Yields the shared register file once per solution — callers must decode
    (or copy) before advancing the iterator.  Lazy: the first solution costs
    one root-to-leaf descent, which is what ``exists`` / ``limit=1`` callers
    want.

    Implementation notes: this is the innermost loop of the entire library
    (every chase trigger probe and every certificate check lands here), so
    it is written as one iterative generator — no recursion, no per-node
    method dispatch.  Register slots are deliberately *not* reset on
    backtrack: a slot is only ever read by a step whose compile-time bound
    set contains it, and any re-entered step rewrites its own binds before
    deeper steps can read them.
    """
    steps = compiled.steps
    if not steps:
        yield registers
        return
    by_predicate, by_position = index.tables()
    nsteps = len(steps)
    last = nsteps - 1

    # Per-execution preamble: posting columns and constant-position probes
    # do not depend on the registers, so they are resolved once per run, not
    # once per search node — and cached on the compiled query for as long as
    # the evaluation snapshot (stamp bounds + index generation) stays the
    # same, which is exactly the repeated-evaluation case the plan cache
    # serves.  The generation component covers both growth (watermark) and
    # rebuilds: a rebuild replaces the posting-list objects wholesale (and a
    # shared-memory sync re-binds their column views), so cached column
    # references must not survive either even when the watermark happens to
    # come back identical (e.g. removing the only atom).  An empty posting
    # or a constant value with zero rows inside its stamp window proves
    # there are no solutions at all ("empty" is cached too).  Each step's
    # register ops are resolved to ``(op, column, operand)`` here so the
    # per-candidate loop below does a single flat ``column[offset]`` fetch —
    # candidates travel as *offsets* into the step's posting columns, never
    # as materialised row tuples.
    exec_key = (hi, delta_lo, stage_start, seed_lo, seed_hi, index.generation())
    if compiled._exec_key == exec_key:
        state = compiled._exec_state
        if state is None:
            return
        windows, step_ops, step_postings, const_probes = state
    else:
        windows = _resolve_windows(steps, hi, delta_lo, stage_start, seed_lo, seed_hi)
        step_ops: List[Tuple[tuple, ...]] = []
        step_postings: List[object] = []
        const_probes: List[Optional[Tuple[object, int]]] = []
        empty = False
        for depth, step in enumerate(steps):
            posting = by_predicate.get(step.pred_id)
            if posting is None:
                empty = True
                break
            cols = posting.cols
            step_ops.append(
                tuple(
                    (op, cols[position], operand)
                    for op, position, operand in step.ops
                )
            )
            step_postings.append(posting)
            _, hi_d = windows[depth]
            best = None
            for position, vid in step.consts:
                refs = by_position.get((step.pred_id, position, vid))
                if refs is None:
                    empty = True
                    break
                stamps = refs.stamps
                count = len(stamps) if hi_d is None else bisect_left(stamps, hi_d)
                if best is None or count < best[1]:
                    best = (refs, count)
            if empty or (best is not None and best[1] == 0):
                empty = True
                break
            const_probes.append(best)
        compiled._exec_key = exec_key
        compiled._exec_state = (
            None if empty else (windows, step_ops, step_postings, const_probes)
        )
        if empty:
            return

    def candidates(depth: int) -> Iterator[int]:
        """Offsets of step *depth*'s window, through its most selective probe."""
        step = steps[depth]
        lo, hi_d = windows[depth]
        pred_id = step.pred_id
        best = const_probes[depth]
        if best is None:
            best_refs = None
            best_count = None
        else:
            best_refs, best_count = best
        for position, slot in step.joins:
            refs = by_position.get((pred_id, position, registers[slot]))
            if refs is None:
                return iter(())
            stamps = refs.stamps
            count = len(stamps) if hi_d is None else bisect_left(stamps, hi_d)
            if best_count is None or count < best_count:
                best_refs, best_count = refs, count
        if best_refs is not None:
            start = 0 if lo is None else bisect_left(best_refs.stamps, lo)
            return iter(best_refs.offsets[start:best_count])
        stamps = step_postings[depth].stamps
        start = 0 if lo is None else bisect_left(stamps, lo)
        stop = len(stamps) if hi_d is None else bisect_left(stamps, hi_d)
        return iter(range(start, stop))

    iterators: List[Iterator[int]] = [iter(())] * nsteps
    iterators[0] = candidates(0)
    depth = 0
    while depth >= 0:
        ops = step_ops[depth]
        descended = False
        for offset in iterators[depth]:
            matched = True
            for op, column, operand in ops:
                value = column[offset]
                if op == OP_BIND:
                    registers[operand] = value
                elif op == OP_CHECK_SLOT:
                    if registers[operand] != value:
                        matched = False
                        break
                elif operand != value:
                    matched = False
                    break
            if not matched:
                continue
            if depth == last:
                yield registers
                continue
            depth += 1
            iterators[depth] = candidates(depth)
            descended = True
            break
        if not descended:
            depth -= 1


def _build_hash_step(
    step: CompiledStep,
    index: "AtomIndex",
    window: Tuple[Optional[int], Optional[int]],
) -> tuple:
    """The register-independent build side of one hash-join step.

    Returns ``("empty",)`` when the step's window provably holds no matching
    rows, ``("join", table)`` when the step joins on previously-bound slots,
    or ``("scan", values)`` for a cross-product step.  The build scan walks
    the posting's flat columns by offset and projects each surviving row
    down to the tuple of values at the step's *bind* positions — the only
    values the probe side ever reads — so buckets hold compact projected
    tuples, not full rows.  None of this depends on the probing registers,
    so the result is cached on the compiled query per evaluation snapshot.
    """
    posting = index.posting(step.pred_id)
    if posting is None:
        return ("empty",)
    lo, step_hi = window
    start, stop = posting.bounds(lo, step_hi)
    cols = posting.cols
    consts = tuple((cols[position], vid) for position, vid in step.consts)
    sames = tuple((cols[position], cols[earlier]) for position, earlier in step.sames)
    join_cols = tuple(cols[position] for position, _ in step.joins)
    bind_cols = tuple(cols[position] for position, _ in step.binds)

    def offset_passes(offset: int) -> bool:
        for column, vid in consts:
            if column[offset] != vid:
                return False
        for column, earlier in sames:
            if column[offset] != earlier[offset]:
                return False
        return True

    if join_cols:
        table: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
        for offset in range(start, stop):
            if not offset_passes(offset):
                continue
            key = tuple(column[offset] for column in join_cols)
            values = tuple(column[offset] for column in bind_cols)
            bucket = table.get(key)
            if bucket is None:
                table[key] = [values]
            else:
                bucket.append(values)
        return ("join", table)
    matching = [
        tuple(column[offset] for column in bind_cols)
        for offset in range(start, stop)
        if offset_passes(offset)
    ]
    if not matching:
        return ("empty",)
    return ("scan", matching)


def execute_hash(
    compiled: CompiledQuery,
    index: "AtomIndex",
    registers: List[int],
    hi: Optional[int] = None,
    delta_lo: Optional[int] = None,
    stage_start: Optional[int] = None,
    seed_lo: Optional[int] = None,
    seed_hi: Optional[int] = None,
) -> Iterator[List[int]]:
    """Breadth-first compiled execution (build–probe hash join).

    Per step: one scan of the step's posting window builds a hash table
    keyed on the values at the step's join positions; every partial result
    probes it with its bound slots.  Each step's scan is paid **once**
    regardless of how many partials exist — the win over the nested-loop
    executor on cyclic bodies, where every partial would otherwise pay an
    index probe (and its selectivity bookkeeping) per closing atom.

    The build tables are cached on the compiled query keyed by the
    evaluation snapshot ``(stamp windows, index generation)`` — the exact
    analogue of the nested executor's preamble cache — so re-evaluating the
    same query against an unchanged structure (repeated containment checks,
    per-frontier trigger satisfaction) pays zero scans.  The cache fills
    lazily: a run whose partials empty out at step *k* caches the tables of
    steps ``0..k`` only, and a later run extends it on demand.
    """
    steps = compiled.steps
    hash_key = (hi, delta_lo, stage_start, seed_lo, seed_hi, index.generation())
    if compiled._hash_key == hash_key:
        built = compiled._hash_state
    else:
        built = []
        compiled._hash_key = hash_key
        compiled._hash_state = built
    windows = None
    partials: List[List[int]] = [list(registers)]
    for depth, step in enumerate(steps):
        if depth < len(built):
            entry = built[depth]
        else:
            if windows is None:
                windows = _resolve_windows(
                    steps, hi, delta_lo, stage_start, seed_lo, seed_hi
                )
            entry = _build_hash_step(step, index, windows[depth])
            built.append(entry)
        kind = entry[0]
        if kind == "empty":
            return
        # Build buckets hold projected bind-position values (see
        # ``_build_hash_step``), so probing just zips them into the slots.
        slots = tuple(slot for _, slot in step.binds)
        fresh: List[List[int]] = []
        if kind == "join":
            table = entry[1]
            joins = step.joins
            for regs in partials:
                key = tuple(regs[slot] for _, slot in joins)
                bucket = table.get(key)
                if not bucket:
                    continue
                for values in bucket:
                    extended = list(regs)
                    for slot, value in zip(slots, values):
                        extended[slot] = value
                    fresh.append(extended)
        else:
            for regs in partials:
                for values in entry[1]:
                    extended = list(regs)
                    for slot, value in zip(slots, values):
                        extended[slot] = value
                    fresh.append(extended)
        partials = fresh
        if not partials:
            return
    yield from iter(partials)


def execute(
    compiled: CompiledQuery,
    index: "AtomIndex",
    registers: List[int],
    hi: Optional[int] = None,
    delta_lo: Optional[int] = None,
    stage_start: Optional[int] = None,
    strategy: str = "auto",
    first_only: bool = False,
) -> Iterator[List[int]]:
    """Run *compiled* with the executor *strategy* selects.

    ``"auto"`` picks the worst-case-optimal generic join for cyclic bodies
    over large enough posting lists (:attr:`CompiledQuery.wcoj_recommended`),
    the hash join where the planner flagged the shape as degrading for
    left-deep probing (:attr:`CompiledQuery.hash_recommended`) — unless the
    caller only wants the first solution, where the lazy nested executor's
    first root-to-leaf descent is unbeatable — and nested probing otherwise.
    The strategy name is validated up front, before any executor is chosen,
    so a typo fails identically regardless of what ``auto`` would have done.
    """
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown join strategy {strategy!r}; known: {', '.join(STRATEGIES)}"
        )
    if strategy == "wcoj" or (
        strategy == "auto" and compiled.wcoj_recommended and not first_only
    ):
        from .wcoj import execute_wcoj  # function-level: wcoj imports this module

        chosen = "wcoj"
        rows = execute_wcoj(compiled, index, registers, hi, delta_lo, stage_start)
    elif strategy == "hash" or (
        strategy == "auto" and compiled.hash_recommended and not first_only
    ):
        chosen = "hash"
        rows = execute_hash(compiled, index, registers, hi, delta_lo, stage_start)
    else:
        chosen = "nested"
        rows = execute_nested(compiled, index, registers, hi, delta_lo, stage_start)
    tracer = _get_tracer()
    if tracer is not None:
        tracer.event(
            "query.execute",
            executor=chosen,
            requested=strategy,
            atoms=len(compiled.steps),
            first_only=first_only,
        )
    registry = _metrics_active()
    if registry is not None:
        registry.counter(f"query.execute.{chosen}").inc()
        return _counted_rows(rows, registry.counter(f"query.rows.{chosen}"))
    return rows


def _counted_rows(rows: Iterator[List[int]], counter) -> Iterator[List[int]]:
    """Count solutions through an executor (metrics-enabled dispatch only).

    The wrapper exists only while a registry is active — the default path
    returns the executor's iterator untouched, laziness and all.
    """
    for row in rows:
        counter.inc()
        yield row
