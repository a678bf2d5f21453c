"""The semi-naive incremental chase engine.

:class:`SemiNaiveChaseEngine` is a drop-in replacement for the reference
:class:`~repro.chase.chase.ChaseEngine` — same constructor surface, same
:class:`~repro.chase.chase.ChaseResult` — that avoids the two super-linear
costs of the reference implementation:

* **no full re-matching per stage**: body matches are discovered from the
  previous stage's delta through the argument-position indexes of
  :mod:`repro.engine.indexes` (see :mod:`repro.engine.delta` for why this is
  complete for the lazy chase);
* **no structure copy per stage**: "the structure as it was when the stage
  started" is a posting-list prefix located by a sequence-stamp watermark,
  and the stage snapshots are built from the provenance only when read
  (:class:`~repro.chase.chase.StageSnapshots`), so besides its working
  structure a run copies nothing but its input, as stage 0.

The paper's stage discipline is preserved exactly — body matches range over
``chase_i``, head satisfaction is re-checked against the growing structure —
and triggers fire in the same canonical order as the reference engine, so
with the default lazy strategy the two engines produce **bit-identical**
structures, stage snapshots, null names and provenance.  The reference
engine remains authoritative: the property-based differential tests compare
the two stage by stage.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable, List, Optional, Sequence

from ..chase.chase import ChaseBudgetExceeded, ChaseResult, StageSnapshots
from ..chase.provenance import ChaseProvenance, ChaseStep
from ..chase.tgd import TGD
from ..chase.trigger import Trigger, apply_trigger, frontier_key, trigger_sort_key
from ..core.structure import Structure
from ..core.terms import FreshNullFactory
from ..obs.metrics import CLOCK
from ..obs.metrics import active as metrics_active
from ..obs.report import ChaseRunStats, StageStats
from ..obs.trace import NULL_SPAN, get_tracer
from .delta import Assignment, compiled_delta_matches
from .indexes import AtomIndex
from .resilience import SupervisedDiscovery
from .strategies import FiringStrategy, lazy_strategy


@dataclass
class SemiNaiveChaseEngine:
    """A delta-driven, indexed chase runner.

    Accepts the same parameters as the reference engine plus a *strategy*
    (see :mod:`repro.engine.strategies`); the default lazy strategy is the
    paper's chase.  ``workers=N`` additionally fans each stage's batch
    discovery out over a process pool (:mod:`repro.engine.parallel`) without
    changing a single output bit.  Body matching runs on the executor
    :func:`repro.query.compile.choose_executor` picks per compiled body —
    there is no executor option.
    """

    tgds: Sequence[TGD]
    max_stages: Optional[int] = None
    max_atoms: Optional[int] = None
    raise_on_budget: bool = False
    strategy: FiringStrategy = field(default_factory=lazy_strategy)
    #: The :class:`~repro.query.context.EvalContext` the run's index is
    #: donated to, so post-chase queries on the result (certificate checks,
    #: containment) reuse it instead of rebuilding.  ``None`` — the default —
    #: selects the process-wide ``repro.query.context.shared_context``; a
    #: long-lived multi-tenant caller (the session server of
    #: :mod:`repro.service`) passes its per-session context here so one
    #: session's chased index and plan cache never leak into another's.
    context: object = None
    #: Number of parallel discovery workers (``repro.engine.parallel``).
    #: ``0`` / ``1`` keep the stage's batch-discovery pass in-process; with
    #: ``N ≥ 2`` it is fanned out over N worker processes and merged back
    #: into the canonical order, so the run stays bit-identical either way.
    #: The firing pass is always serial — the chase discipline demands it.
    workers: int = 0
    #: Constructor-only compatibility argument: accepts ``None`` or
    #: ``"auto"`` (the executor is always chosen per compiled body) and
    #: rejects anything else.  It goes once the repository benchmark stops
    #: passing ``match_strategy="auto"``.
    match_strategy: InitVar[Optional[str]] = None
    #: Per-stage gather deadline of the parallel discovery pool, in seconds
    #: (``None``, the default, waits forever).  Hang detection needs it;
    #: crashes are caught without it.  Every worker fault has one response
    #: (:mod:`repro.engine.resilience`): the pool closes, the stage's lost
    #: tasks are recomputed engine-side and the rest of the run is serial.
    #: Output stays bit-identical either way — only availability changes.
    stage_deadline: Optional[float] = None
    #: Collect a :class:`~repro.obs.report.ChaseRunStats` for the run and
    #: attach it as ``result.stats`` (per-stage candidates/fired/atoms plus
    #: discovery/dedup/fire wall times — a handful of clock reads per stage).
    #: Set ``False`` for the bare pre-telemetry hot path; stats are still
    #: collected while tracing or metrics are enabled, since those consumers
    #: need the same numbers.  Collection only observes — the chase output
    #: is bit-identical either way (pinned by ``tests/test_obs.py``).
    collect_stats: bool = True
    #: The keep-alive discovery pool (:mod:`repro.engine.parallel`): created
    #: on the first ``run()`` that needs one and **retained across runs** —
    #: replicas are reset (not respawned) per run, so repeated chases on the
    #: same engine skip process start-up.  Released by :meth:`close` (or the
    #: context-manager exit); ``run_chase`` closes the ephemeral engines it
    #: builds, keeping the one-shot path leak-free as before.
    _pool: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, match_strategy: Optional[str]) -> None:
        if match_strategy not in (None, "auto"):
            raise ValueError(
                f"unknown match strategy {match_strategy!r}: the join executor "
                "is chosen per compiled body; only None or 'auto' is accepted"
            )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the keep-alive discovery pool down (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    def __enter__(self) -> "SemiNaiveChaseEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _ensure_pool(self):
        """The pool for the next run: reuse (reset), rebuild, or ``None``.

        ``None`` — serial discovery — also on platforms without
        ``multiprocessing.shared_memory``, the pool's only transport.
        """
        from .shm import SHM_AVAILABLE

        if not (
            SHM_AVAILABLE and self.workers and self.workers >= 2 and self.tgds
        ):
            self.close()
            return None
        pool = self._pool
        if (
            pool is not None
            and not pool.closed
            and pool.workers == self.workers
            # The worker processes carry the TGD list they were spawned
            # with, so reuse is only sound while the engine still runs the
            # very same rule objects — anything else rebuilds the pool.
            and len(pool.rules) == len(self.tgds)
            and all(ours is theirs for ours, theirs in zip(self.tgds, pool.rules))
        ):
            # Same pool, new run: fresh replicas, same worker processes —
            # unless a worker died between runs, which closes the pool.
            pool.reset()
            if not pool.closed:
                return pool
        self.close()
        from .parallel import ParallelDiscovery

        self._pool = pool = ParallelDiscovery(self.tgds, self.workers)
        return pool

    # ------------------------------------------------------------------
    def run(self, instance: Structure) -> ChaseResult:
        """Run the chase from *instance* (which is not modified)."""
        current = instance.copy(
            name=f"chase({instance.name})" if instance.name else "chase"
        )
        index = AtomIndex(current)
        null_factory = FreshNullFactory()
        provenance = ChaseProvenance()
        self.strategy.reset()
        max_stages = self.strategy.cap_stages(self.max_stages)
        max_atoms = self.strategy.cap_atoms(self.max_atoms)
        stage = 0
        reached_fixpoint = False
        delta_lo = 0
        pool = self._ensure_pool()
        supervisor = None
        if pool is not None:
            supervisor = SupervisedDiscovery(pool, self.tgds, self.stage_deadline)
        # Telemetry handles are fetched once per run; when everything is
        # disabled (tracer None, registry None, collect_stats False) the
        # whole run takes the exact pre-telemetry path — no clock reads, no
        # stats objects, spans are the shared no-op singleton.
        tracer = get_tracer()
        registry = metrics_active()
        stats: Optional[ChaseRunStats] = None
        if self.collect_stats or tracer is not None or registry is not None:
            stats = ChaseRunStats(
                engine="seminaive",
                strategy=self.strategy.name,
                workers=self.workers,
            )
        run_started = CLOCK() if stats is not None else 0.0
        run_span = (
            tracer.span(
                "chase.run",
                engine="seminaive",
                strategy=self.strategy.name,
                workers=self.workers,
            )
            if tracer is not None
            else NULL_SPAN
        )
        with run_span:
            try:
                while max_stages is None or stage < max_stages:
                    stage += 1
                    stage_start = index.watermark()
                    stage_stats = None
                    if stats is not None:
                        stage_stats = StageStats(
                            stage=stage, delta_window=stage_start - delta_lo
                        )
                        stats.stages.append(stage_stats)
                    stage_span = (
                        tracer.span(
                            "chase.stage",
                            stage=stage,
                            delta_window=stage_start - delta_lo,
                        )
                        if tracer is not None
                        else NULL_SPAN
                    )
                    with stage_span:
                        fired = self._run_stage(
                            current,
                            index,
                            delta_lo,
                            stage_start,
                            null_factory,
                            provenance,
                            stage,
                            supervisor,
                            stats=stage_stats,
                            tracer=tracer,
                            span=stage_span,
                        )
                    delta_lo = stage_start
                    if not fired:
                        reached_fixpoint = True
                        stage -= 1  # the last stage added nothing: not counted
                        break
                    if max_atoms is not None and len(current) > max_atoms:
                        if self.raise_on_budget:
                            raise ChaseBudgetExceeded(
                                f"chase exceeded the atom budget of {max_atoms}"
                            )
                        break
            except BaseException:
                # No exception path may leak worker processes or shm
                # segments: a budget overrun, a typed execution error or a
                # KeyboardInterrupt all tear the keep-alive pool down (the
                # pool's close also unlinks its store's segments).  The next
                # run rebuilds a fresh pool.
                self.close()
                raise
            finally:
                if pool is not None and pool.closed:
                    # A worker fault closes the pool mid-run; drop the dead
                    # reference so the next run builds a fresh one.
                    self._pool = None
                # Keep the index attached and hand it to the query layer: the
                # chased structure's first certificate / containment check
                # then starts from a warm index (no rebuild).  The receiving
                # context is the engine's own (session-scoped callers) or the
                # process-wide default — never hardwired to the global, so
                # sessions stay isolated.
                from ..query.context import get_context

                get_context(self.context).adopt(current, index)
            if stats is not None:
                if supervisor is not None:
                    # The supervisor's ledger mirrors the parallel.fault.*
                    # trace events one-for-one; exposing it on the stats
                    # makes `trace summary == run stats` assertable.
                    stats.faults = dict(supervisor.counts)
                self._finish_stats(stats, index, run_started, registry)
                run_span.note(
                    stages=len(stats.stages),
                    candidates=stats.candidates,
                    fired=stats.fired,
                    new_atoms=stats.new_atoms,
                    nulls_created=stats.nulls_created,
                    reached_fixpoint=reached_fixpoint,
                )
        return ChaseResult(
            structure=current,
            reached_fixpoint=reached_fixpoint,
            stages_run=stage,
            stage_snapshots=StageSnapshots(
                instance.copy(name="chase_0"), provenance.steps, stage
            ),
            provenance=provenance,
            stats=stats,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _finish_stats(
        stats: ChaseRunStats, index: AtomIndex, run_started: float, registry
    ) -> None:
        """Fill the run-end snapshots and publish the metrics totals."""
        stats.wall_seconds = CLOCK() - run_started
        cache = index.plan_cache
        if cache is not None:
            stats.plan_cache = {
                "hits": cache.hits,
                "stale_hits": cache.stale_hits,
                "misses": cache.misses,
                "invalidations": cache.invalidations,
            }
        trie = index.trie_cache
        if trie is not None:
            stats.trie_cache = {
                "builds": trie.builds,
                "extensions": trie.extensions,
                "hits": trie.hits,
                "invalidations": trie.invalidations,
            }
        shape = index.stats()
        stats.index = {
            "watermark": shape["watermark"],
            "rebuilds": shape["rebuilds"],
        }
        stats.interner = {
            "terms": shape["terms"],
            "predicates": shape["predicates"],
        }
        if registry is not None:
            registry.counter("engine.runs").inc()
            registry.counter("engine.stages").inc(len(stats.stages))
            registry.counter("engine.candidates").inc(stats.candidates)
            registry.counter("engine.triggers_fired").inc(stats.fired)
            registry.counter("engine.atoms_created").inc(stats.new_atoms)
            registry.counter("engine.nulls_created").inc(stats.nulls_created)
            registry.timer("engine.run").add(stats.wall_seconds)
            registry.timer("engine.discovery").add(
                sum(s.discovery_seconds for s in stats.stages)
            )
            registry.timer("engine.dedup").add(
                sum(s.dedup_seconds for s in stats.stages)
            )
            registry.timer("engine.fire").add(
                sum(s.fire_seconds for s in stats.stages)
            )
            registry.gauge("engine.delta_window").max(
                max((s.delta_window for s in stats.stages), default=0)
            )
            registry.gauge("engine.watermark").set(shape["watermark"])
            registry.gauge("engine.interner_terms").set(shape["terms"])
            if any(stats.faults.values()):
                for key, value in stats.faults.items():
                    registry.counter(f"engine.faults_{key}").inc(value)

    # ------------------------------------------------------------------
    def _run_stage(
        self,
        current: Structure,
        index: AtomIndex,
        delta_lo: int,
        stage_start: int,
        null_factory: FreshNullFactory,
        provenance: ChaseProvenance,
        stage: int,
        supervisor: Optional[SupervisedDiscovery] = None,
        stats: Optional[StageStats] = None,
        tracer=None,
        span=NULL_SPAN,
    ) -> bool:
        """Run one stage; return ``True`` when at least one trigger fired.

        *stats*, *tracer* and *span* are the per-stage telemetry surfaces
        (``None``/no-op when disabled): counts are kept in plain locals
        either way — they are dwarfed by the keying work next to them — and
        clock reads only happen when a :class:`StageStats` is being filled.
        """
        strategy = self.strategy
        fired_any = False
        timed = stats is not None
        discovery_seconds = 0.0
        dedup_seconds = 0.0
        candidates_total = 0
        deduped_total = 0
        # Batch discovery: every TGD's candidate matches are enumerated from
        # the delta through the compiled runtime *before* any trigger fires.
        # Body matches range over the stage-start posting-list prefix, and
        # firings only append beyond it, so the discovered sets are identical
        # to per-TGD interleaved discovery — but the whole stage runs as one
        # read-only pass over the delta windows (cached register programs, no
        # per-trigger probing), which is exactly the shape the parallel pool
        # farms out per TGD (ROADMAP item c).  With a pool the workers
        # enumerate against synced replica indexes; either way the candidate
        # sets are identical and the canonicalisation below erases any trace
        # of where (or in what order) a match was discovered.
        discover_span = (
            tracer.span("chase.discover", stage=stage)
            if tracer is not None
            else NULL_SPAN
        )
        with discover_span:
            if supervisor is not None:
                started = CLOCK() if timed else 0.0
                # The stage number travels down as the coordinate the fault
                # injector and the fault/degrade events key on.
                per_tgd: Iterable[Iterable[Assignment]] = supervisor.discover(
                    index, delta_lo, stage_start, stage=stage
                )
                if timed:
                    discovery_seconds += CLOCK() - started
            else:
                per_tgd = (
                    compiled_delta_matches(tgd, index, delta_lo, stage_start)
                    for tgd in self.tgds
                )
            stage_candidates: List[List[tuple]] = []
            for tgd, assignments in zip(self.tgds, per_tgd):
                seen: set = set()
                candidates: List[tuple] = []
                started = CLOCK() if timed else 0.0
                raw = 0
                for assignment in assignments:
                    raw += 1
                    frontier = frontier_key(tgd, assignment)
                    dedup = strategy.dedup_key(frontier, assignment)
                    if dedup in seen:
                        continue
                    seen.add(dedup)
                    candidates.append((trigger_sort_key(frontier), frontier, dedup))
                if timed:
                    now = CLOCK()
                    discovery_seconds += now - started
                    started = now
                candidates.sort(key=lambda item: (item[0], repr(item[2])))
                if timed:
                    dedup_seconds += CLOCK() - started
                candidates_total += raw
                deduped_total += len(candidates)
                stage_candidates.append(candidates)
            discover_span.note(
                candidates=candidates_total, deduped=deduped_total
            )
        # Firing phase: canonical order within each TGD, TGDs in rule order —
        # the same discipline as the reference engine, bit for bit.
        fired_count = 0
        atoms_count = 0
        nulls_count = 0
        fire_started = CLOCK() if timed else 0.0
        fire_span = (
            tracer.span("chase.fire", stage=stage)
            if tracer is not None
            else NULL_SPAN
        )
        with fire_span:
            for tgd, candidates in zip(self.tgds, stage_candidates):
                for _, frontier, dedup in candidates:
                    if not strategy.should_fire(tgd, dedup, frontier, index):
                        continue
                    trigger = Trigger(tgd, frontier)
                    outcome = apply_trigger(trigger, current, null_factory)
                    if not outcome.new_atoms:
                        continue
                    fired_any = True
                    fired_count += 1
                    atoms_count += len(outcome.new_atoms)
                    nulls_count += len(outcome.new_elements)
                    provenance.record(
                        ChaseStep(
                            stage=stage,
                            trigger=trigger,
                            new_atoms=outcome.new_atoms,
                            new_elements=outcome.new_elements,
                        )
                    )
            fire_span.note(fired=fired_count, new_atoms=atoms_count)
        if timed:
            stats.candidates = candidates_total
            stats.deduped = deduped_total
            stats.fired = fired_count
            stats.new_atoms = atoms_count
            stats.nulls_created = nulls_count
            stats.discovery_seconds = discovery_seconds
            stats.dedup_seconds = dedup_seconds
            stats.fire_seconds = CLOCK() - fire_started
        # The stage span's end line carries the stage totals — the trace
        # summarizer's accounting (and CI's consistency assert) reads these.
        span.note(
            candidates=candidates_total,
            deduped=deduped_total,
            fired=fired_count,
            new_atoms=atoms_count,
            nulls_created=nulls_count,
        )
        return fired_any
