"""Reporting: chase run statistics, query EXPLAIN, and trace summarisation.

Three consumers of the raw telemetry:

* :class:`ChaseRunStats` — the accounting record the semi-naive engine
  attaches to every :class:`~repro.chase.chase.ChaseResult` (``result.stats``):
  one :class:`StageStats` per stage (delta-window size, candidates
  discovered vs triggers fired, atoms and nulls created, discovery /
  dedup+merge / firing wall time) plus run-level cache and interner
  accounting.  :meth:`ChaseRunStats.render` prints the per-stage table.
* :func:`explain` — compiles a query against a structure exactly as
  evaluation would and renders the plan: join order, per-step stamp windows
  and posting sizes, the executor
  :func:`~repro.query.compile.choose_executor` picks and *why* (cyclicity,
  thresholds), the WCOJ variable order where relevant, and
  the index's plan-cache hit ratios.
* :func:`summarize_trace` / :class:`TraceSummary` — folds a JSON-lines
  trace file (:mod:`repro.obs.trace`) into per-name span/event totals and
  the chase-level invariants (stages, candidates, fired triggers), exposed
  on the CLI as ``python -m repro.obs summarize trace.jsonl``.  CI asserts
  the summariser's fired-trigger total equals both ``result.stats``'s and
  the provenance record's — the three accountings must never drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# ----------------------------------------------------------------------
# Chase run statistics
# ----------------------------------------------------------------------
@dataclass
class StageStats:
    """Accounting of one semi-naive chase stage."""

    stage: int
    #: Size of the delta window the stage's discovery ranged over (number of
    #: atoms stamped in ``[delta_lo, stage_start)``).
    delta_window: int
    #: Candidate matches enumerated by batch discovery (pre-dedup).
    candidates: int = 0
    #: Candidates surviving the per-TGD dedup (what the firing pass saw).
    deduped: int = 0
    #: Triggers that actually fired (created at least one atom).
    fired: int = 0
    new_atoms: int = 0
    nulls_created: int = 0
    discovery_seconds: float = 0.0
    dedup_seconds: float = 0.0
    fire_seconds: float = 0.0


@dataclass
class ChaseRunStats:
    """Run-level accounting attached to ``ChaseResult.stats``.

    Totals are sums over :attr:`stages`; the trailing snapshot fields are
    read once at the end of the run from the engine's index (plan cache,
    trie cache, interner, watermark), so they reflect the whole run
    including post-discovery firing.
    """

    engine: str = "seminaive"
    strategy: str = "lazy"
    workers: int = 0
    stages: List[StageStats] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: ``PlanCache`` counters of the run's index: hits / stale_hits (plan
    #: revalidated after bounded growth) / misses (compiled) / invalidations.
    plan_cache: Dict[str, int] = field(default_factory=dict)
    #: ``TrieCache`` counters (WCOJ runs only): builds / extensions / hits /
    #: invalidations.
    trie_cache: Dict[str, int] = field(default_factory=dict)
    #: Interner growth over the run: terms / predicates at the end.
    interner: Dict[str, int] = field(default_factory=dict)
    #: Index shape at the end: watermark (atoms stamped) / rebuilds.
    index: Dict[str, int] = field(default_factory=dict)
    #: Fault-tolerance ledger of the run's supervised parallel discovery
    #: (:mod:`repro.engine.resilience`): injected / detected / degraded.
    #: Empty for serial runs.  CI asserts
    #: these equal the trace summariser's ``parallel.fault.*`` event counts —
    #: the two accountings must never drift.
    faults: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def stages_run(self) -> int:
        return len(self.stages)

    @property
    def candidates(self) -> int:
        return sum(stage.candidates for stage in self.stages)

    @property
    def deduped(self) -> int:
        return sum(stage.deduped for stage in self.stages)

    @property
    def fired(self) -> int:
        return sum(stage.fired for stage in self.stages)

    @property
    def new_atoms(self) -> int:
        return sum(stage.new_atoms for stage in self.stages)

    @property
    def nulls_created(self) -> int:
        return sum(stage.nulls_created for stage in self.stages)

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready flattening (benchmark rows, service responses)."""
        return {
            "engine": self.engine,
            "strategy": self.strategy,
            "workers": self.workers,
            "stages_run": self.stages_run,
            "candidates": self.candidates,
            "deduped": self.deduped,
            "fired": self.fired,
            "new_atoms": self.new_atoms,
            "nulls_created": self.nulls_created,
            "wall_seconds": round(self.wall_seconds, 6),
            "plan_cache": dict(self.plan_cache),
            "trie_cache": dict(self.trie_cache),
            "interner": dict(self.interner),
            "index": dict(self.index),
            "faults": dict(self.faults),
            "per_stage": [
                {
                    "stage": s.stage,
                    "delta_window": s.delta_window,
                    "candidates": s.candidates,
                    "deduped": s.deduped,
                    "fired": s.fired,
                    "new_atoms": s.new_atoms,
                    "nulls_created": s.nulls_created,
                    "discovery_seconds": round(s.discovery_seconds, 6),
                    "dedup_seconds": round(s.dedup_seconds, 6),
                    "fire_seconds": round(s.fire_seconds, 6),
                }
                for s in self.stages
            ],
        }

    def render(self) -> str:
        """The per-stage table plus the run-level cache/interner summary."""
        header = (
            f"chase run: engine={self.engine} strategy={self.strategy} "
            f"workers={self.workers} "
            f"wall={self.wall_seconds:.4f}s"
        )
        columns = (
            "stage", "delta", "cand", "dedup", "fired", "atoms", "nulls",
            "disc(s)", "merge(s)", "fire(s)",
        )
        rows = [columns]
        for s in self.stages:
            rows.append((
                str(s.stage), str(s.delta_window), str(s.candidates),
                str(s.deduped), str(s.fired), str(s.new_atoms),
                str(s.nulls_created), f"{s.discovery_seconds:.4f}",
                f"{s.dedup_seconds:.4f}", f"{s.fire_seconds:.4f}",
            ))
        rows.append((
            "total", "-", str(self.candidates), str(self.deduped),
            str(self.fired), str(self.new_atoms), str(self.nulls_created),
            f"{sum(s.discovery_seconds for s in self.stages):.4f}",
            f"{sum(s.dedup_seconds for s in self.stages):.4f}",
            f"{sum(s.fire_seconds for s in self.stages):.4f}",
        ))
        widths = [max(len(row[i]) for row in rows) for i in range(len(columns))]
        lines = [header]
        for number, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
            if number == 0:
                lines.append("  ".join("-" * width for width in widths))
        plan = self.plan_cache
        if plan:
            lookups = (
                plan.get("hits", 0) + plan.get("stale_hits", 0) + plan.get("misses", 0)
            )
            ratio = (plan.get("hits", 0) + plan.get("stale_hits", 0)) / max(lookups, 1)
            lines.append(
                f"plan cache: {plan.get('hits', 0)} hits, "
                f"{plan.get('stale_hits', 0)} revalidated, "
                f"{plan.get('misses', 0)} compiled, "
                f"{plan.get('invalidations', 0)} invalidations "
                f"(hit ratio {ratio:.2%})"
            )
        trie = self.trie_cache
        if trie:
            lines.append(
                f"trie cache: {trie.get('builds', 0)} builds, "
                f"{trie.get('extensions', 0)} extensions, "
                f"{trie.get('hits', 0)} hits, "
                f"{trie.get('invalidations', 0)} invalidations"
            )
        if self.interner:
            lines.append(
                f"interner: {self.interner.get('terms', 0)} terms, "
                f"{self.interner.get('predicates', 0)} predicates"
            )
        if self.index:
            lines.append(
                f"index: watermark {self.index.get('watermark', 0)}, "
                f"{self.index.get('rebuilds', 0)} rebuilds"
            )
        if any(self.faults.values()):
            lines.append(_render_fault_ledger(self.faults))
        return "\n".join(lines)


def _render_fault_ledger(faults: Dict[str, int]) -> str:
    """The one-line supervision ledger shared by stats and trace renders."""
    return (
        f"parallel faults: {faults.get('injected', 0)} injected, "
        f"{faults.get('detected', 0)} detected, "
        f"{faults.get('degraded', 0)} degraded"
    )


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------
_WINDOW_NAMES = {0: "all", 1: "pre-delta", 2: "seed", 3: "stage"}


def _query_atoms(query) -> Tuple[object, ...]:
    """The body atoms of *query*: a sequence of atoms, a CQ, or a TGD."""
    if hasattr(query, "atoms"):
        return tuple(query.atoms)
    if hasattr(query, "body"):
        return tuple(query.body)
    return tuple(query)


def explain(structure, query, context=None) -> str:
    """Render how the compiled runtime would evaluate *query* on *structure*.

    Compiles (or fetches the cached plan of) the query body against the
    structure's shared index — exactly the lookup an evaluation performs, so
    the output reflects the true cached plan — and explains the join order,
    the per-step posting statistics and the executor choice with its
    rationale.  The executor is
    :func:`~repro.query.compile.choose_executor`'s pick for a full
    evaluation — the same call :func:`~repro.query.compile.execute` makes.
    """
    from ..query import compile as _compile
    from ..query.compile import (
        HASH_SCAN_THRESHOLD,
        WCOJ_AUTO_THRESHOLD,
        compiled_for,
        executor_name,
        plan_cache_for,
    )
    from ..query.context import get_context
    from ..query.wcoj import build_wcoj_plan

    context = get_context(context)
    atoms = _query_atoms(query)
    index = context.index_for(structure)
    compiled = compiled_for(index, atoms, frozenset(), context=context)
    # Through the module, so a replaced policy is what explain reports.
    chosen = executor_name(_compile.choose_executor(compiled))

    lines = [
        f"query: {len(atoms)} atoms over "
        f"{len(structure)} atoms / watermark {index.watermark()}",
        f"executor: {chosen}",
    ]
    # Rationale: the exact flags choose_executor() consults, spelled out.
    largest = max((step.planned_count for step in compiled.steps), default=0)
    if compiled.cyclic:
        lines.append(
            "  body is cyclic (variable-atom incidence graph has a cycle): "
            "binary join orders can exceed the AGM bound"
        )
        if compiled.wcoj_recommended:
            lines.append(
                f"  largest posting list {largest} >= wcoj threshold "
                f"{WCOJ_AUTO_THRESHOLD}: upgrades to the generic join"
            )
        else:
            lines.append(
                f"  largest posting list {largest} < wcoj threshold "
                f"{WCOJ_AUTO_THRESHOLD}: trie build would cost more than any "
                "binary-join blowup"
            )
    else:
        lines.append("  body is acyclic: nested/hash binary joins are safe")
    if compiled.hash_recommended and not compiled.cyclic:
        lines.append(
            f"  opening scan >= {HASH_SCAN_THRESHOLD} rows with no bound "
            "positions: prefers the build-probe hash join"
        )
    lines.append("plan (most-constrained-first join order):")
    for number, step in enumerate(compiled.steps):
        window = _WINDOW_NAMES.get(step.window, str(step.window))
        posting = index.posting(step.pred_id)
        current = 0 if posting is None else posting.length
        lines.append(
            f"  {number}. {step.atom!r}  window={window}  "
            f"rows={current} (planned {step.planned_count})  "
            f"binds={len(step.binds)} joins={len(step.joins)} "
            f"consts={len(step.consts)}"
        )
    if chosen == "wcoj":
        plan = compiled._wcoj_plan
        if plan is None:
            plan = compiled._wcoj_plan = build_wcoj_plan(compiled)
        term_of_slot = {slot: term for term, slot in compiled.outputs}
        term_of_slot.update({slot: term for term, slot in compiled.prebound})
        parts = []
        for slot, prebound, participants in plan.levels:
            label = str(term_of_slot.get(slot, f"slot{slot}"))
            if prebound:
                label += "*"
            parts.append(f"{label}({len(participants)})")
        lines.append(
            "wcoj variable order (*=pre-bound, (n)=atoms intersected): "
            + " -> ".join(parts)
        )
    cache = plan_cache_for(index)
    lookups = cache.hits + cache.stale_hits + cache.misses
    ratio = (cache.hits + cache.stale_hits) / max(lookups, 1)
    lines.append(
        f"plan cache: {cache.hits} hits, {cache.stale_hits} revalidated, "
        f"{cache.misses} compiled, {cache.invalidations} invalidations "
        f"(hit ratio {ratio:.2%}, {len(cache.entries)} entries)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Trace summarisation
# ----------------------------------------------------------------------
@dataclass
class TraceSummary:
    """Aggregated view of one JSON-lines trace file."""

    #: Per span name: ``[count, total duration]``.
    spans: Dict[str, List[float]] = field(default_factory=dict)
    #: Per instant-event name: count.
    events: Dict[str, int] = field(default_factory=dict)
    lines: int = 0
    malformed: int = 0
    #: Chase-level totals folded from ``chase.stage`` end lines.
    stages: int = 0
    candidates: int = 0
    fired: int = 0
    new_atoms: int = 0
    nulls_created: int = 0
    #: Bytes shipped to parallel workers (sum over ``parallel.worker`` events):
    #: the pickled shared-memory control messages only, since fact columns
    #: live in the segments — compare with :attr:`shm_attached_bytes`.
    wire_bytes: int = 0
    #: Posting-column bytes workers read in place via shared-memory segments
    #: (sum over ``parallel.shm.attach`` events; never crossed a pipe).
    shm_attached_bytes: int = 0
    #: Segment bytes allocated by grow-by-doubling (``parallel.shm.grow``).
    shm_grown_bytes: int = 0
    #: Supervision ledger folded from fault-tolerance events:
    #: ``parallel.fault.injected`` → injected, every other
    #: ``parallel.fault.*`` → detected, ``parallel.degrade`` → degraded.
    #: Must reconcile exactly with ``ChaseRunStats.faults`` of the traced run.
    faults_injected: int = 0
    faults_detected: int = 0
    faults_degraded: int = 0

    @property
    def faults(self) -> Dict[str, int]:
        """The ledger in ``ChaseRunStats.faults`` shape, for reconciliation."""
        return {
            "injected": self.faults_injected,
            "detected": self.faults_detected,
            "degraded": self.faults_degraded,
        }

    def render(self) -> str:
        lines = [
            f"trace: {self.lines} lines"
            + (f" ({self.malformed} malformed)" if self.malformed else "")
        ]
        if self.spans:
            lines.append("spans (count, total seconds):")
            width = max(len(name) for name in self.spans)
            for name in sorted(self.spans):
                count, total = self.spans[name]
                lines.append(f"  {name.ljust(width)}  {int(count):6d}  {total:.4f}s")
        if self.events:
            lines.append("events:")
            width = max(len(name) for name in self.events)
            for name in sorted(self.events):
                lines.append(f"  {name.ljust(width)}  {self.events[name]:6d}")
        if self.stages:
            lines.append(
                f"chase: {self.stages} stages, {self.candidates} candidates, "
                f"{self.fired} fired, {self.new_atoms} atoms, "
                f"{self.nulls_created} nulls"
            )
        if self.wire_bytes:
            lines.append(f"parallel: {self.wire_bytes} wire bytes shipped")
        if self.shm_attached_bytes or self.shm_grown_bytes:
            lines.append(
                f"parallel shm: {self.shm_attached_bytes} bytes attached "
                f"in place, {self.shm_grown_bytes} bytes allocated"
            )
        if any(self.faults.values()):
            lines.append(_render_fault_ledger(self.faults))
        return "\n".join(lines)


def summarize_trace(source, trace_id: Optional[str] = None) -> TraceSummary:
    """Fold a trace (file path or iterable of JSON lines) into totals.

    With *trace_id*, only lines stamped ``"trace": trace_id`` contribute to
    the span/event/chase totals — the way to carve one request's span tree
    out of a service trace ring (``repro.obs summarize - --trace-id …``).
    Every line still counts toward :attr:`TraceSummary.lines`.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return _summarize_lines(handle, TraceSummary(), trace_id)
    return _summarize_lines(source, TraceSummary(), trace_id)


def _summarize_lines(
    lines: Iterable[str],
    summary: TraceSummary,
    trace_id: Optional[str] = None,
) -> TraceSummary:
    for raw in lines:
        raw = raw.strip()
        if not raw:
            continue
        summary.lines += 1
        try:
            line = json.loads(raw)
            kind = line["type"]
            name = line["name"]
        except (ValueError, KeyError, TypeError):
            summary.malformed += 1
            continue
        if trace_id is not None and line.get("trace") != trace_id:
            continue
        if kind == "E":
            entry = summary.spans.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += line.get("dur", 0.0)
            if name == "chase.stage":
                summary.stages += 1
                summary.candidates += line.get("candidates", 0)
                summary.fired += line.get("fired", 0)
                summary.new_atoms += line.get("new_atoms", 0)
                summary.nulls_created += line.get("nulls_created", 0)
        elif kind == "I":
            summary.events[name] = summary.events.get(name, 0) + 1
            if name == "parallel.worker":
                summary.wire_bytes += line.get("wire_bytes", 0)
            elif name == "parallel.shm.attach":
                summary.shm_attached_bytes += line.get("bytes", 0)
            elif name == "parallel.shm.grow":
                summary.shm_grown_bytes += line.get("bytes", 0)
            elif name == "parallel.fault.injected":
                summary.faults_injected += 1
            elif name.startswith("parallel.fault."):
                summary.faults_detected += 1
            elif name == "parallel.degrade":
                summary.faults_degraded += 1
        # "B" lines only open spans; the matching "E" carries the totals.
    return summary
