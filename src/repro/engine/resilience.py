"""Fault-tolerant supervision of the parallel discovery pool.

A single OOM-killed worker (or a full ``/dev/shm`` on one attach) should
not cost a long chase its progress when the stage's lost work is both
*detectable* and *recomputable*.  This module is the supervision layer that
makes the parallel engine of :mod:`repro.engine.parallel` degrade instead
of die — and the only way the engine drives its pool.

**One fault response.**  :class:`SupervisedDiscovery` drives the pool's
fault-reporting primitive
(:meth:`~repro.engine.parallel.ParallelDiscovery.run_stage`): a stage is
dispatched with an optional **deadline**; a worker that crashes (pipe EOF),
hangs (deadline expiry), fails replica validation (generation mismatch,
truncated sync, segment attach failure) or replies with an error — or a
shared-memory sync that fails before dispatch — makes the pool terminate
the faulted workers and close itself.  The supervisor then computes the
stage's missing tasks **engine-side** via the exact per-task enumeration
the workers run (:func:`~repro.engine.parallel.task_rows` over the same
seed windows) and runs every subsequent stage of the run serially.
Degradation is terminal *per run*: the next run on a keep-alive engine
builds a fresh pool and is parallel again.

**Bit-identity throughout.**  The canonical merge is keyed by the dispatch
task list — never by which worker produced a row, or whether the engine
recomputed it — so a degraded stage is indistinguishable in the output.
The differential suite (``tests/test_resilience.py``) pins this: every
fault class, at seeded random coordinates, completes bit-identical to a
serial run.  A deterministic enumeration bug is never absorbed: the
engine-side recompute runs the same code and raises the same exception.

Every decision is observable: ``parallel.fault.injected`` (from the
injector), ``parallel.fault.<kind>`` per detected fault (carrying the last
line of its detail) and ``parallel.degrade`` at the switch to serial are
emitted as trace events (:mod:`repro.obs`), and the same counters land on
``ChaseRunStats.faults`` — the two ledgers are incremented by the same code
paths, so a trace summary and the run stats always agree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..chase.tgd import TGD
from ..obs.trace import NULL_SPAN, get_tracer
from .delta import Assignment, assignment_layout, compiled_delta_matches
from .parallel import (
    ParallelDiscovery,
    WorkerError,
    WorkerFault,
    merge_rows,
    task_rows,
)

#: Longest fault detail a ``parallel.fault.<kind>`` event carries.
DETAIL_LIMIT = 200


class SupervisedDiscovery:
    """Per-run supervisor wrapping one :class:`ParallelDiscovery` pool.

    The engine's discovery call site:
    ``discover(index, delta_lo, stage_start, stage=...)``
    returns one assignment list per TGD under a single
    ``parallel.discover`` span per stage; a fault inside the stage finishes
    it — and the run — serially (see the module docs).  ``stage_deadline``
    bounds each stage's gather in seconds (``None`` waits forever); hang
    detection needs it, crashes are caught without it.  One supervisor
    serves one run: :attr:`degraded` and the :attr:`counts` ledger are
    per-run state.
    """

    def __init__(
        self,
        pool: ParallelDiscovery,
        tgds: Sequence[TGD],
        stage_deadline: Optional[float] = None,
    ) -> None:
        self._pool = pool
        self._tgds = list(tgds)
        self._layouts = [assignment_layout(tgd) for tgd in self._tgds]
        self._stage_deadline = stage_deadline
        #: True once the run fell back to serial discovery for good.
        self.degraded = False
        #: The fault ledger: mirrors the trace events one-for-one, and is
        #: copied onto ``ChaseRunStats.faults`` at run end.  ``retried``
        #: always reads 0; it stays until the repository benchmark stops
        #: reporting it.
        self.counts: Dict[str, int] = {
            "injected": 0,
            "detected": 0,
            "retried": 0,
            "degraded": 0,
        }

    # ------------------------------------------------------------------
    def discover(
        self,
        index,
        delta_lo: int,
        stage_start: int,
        stage: Optional[int] = None,
    ) -> List[List[Assignment]]:
        """One stage's discovery under supervision (see the module docs)."""
        tracer = get_tracer()
        pool = self._pool
        pool_live = not pool.closed
        span = (
            tracer.span(
                "parallel.discover",
                workers=pool.workers if pool_live else 0,
                delta_lo=delta_lo,
                stage_start=stage_start,
                supervised=True,
            )
            if tracer is not None
            else NULL_SPAN
        )
        with span:
            if not self.degraded and pool_live:
                try:
                    outcome = pool.run_stage(
                        index,
                        delta_lo,
                        stage_start,
                        stage=stage,
                        deadline=self._stage_deadline,
                    )
                except WorkerError as error:
                    # The shared-memory sync failed before anything was
                    # dispatched (the pool is already closed): a fault of
                    # the pool as a whole, and the whole stage goes serial.
                    self._record(
                        tracer, stage, [WorkerFault(None, "sync", str(error), ())]
                    )
                else:
                    self.counts["injected"] += outcome.injected
                    rows_by_task = outcome.rows_by_task
                    if outcome.faults:
                        lost = outcome.lost_tasks
                        self._record(tracer, stage, outcome.faults, len(lost))
                        for task in lost:
                            rows_by_task[task] = task_rows(
                                self._tgds,
                                self._layouts,
                                index,
                                task,
                                delta_lo,
                                stage_start,
                            )
                    results = merge_rows(
                        self._tgds, self._layouts, index, outcome.tasks, rows_by_task
                    )
                    span.note(
                        tasks=len(outcome.tasks),
                        candidates=sum(len(bucket) for bucket in results),
                        degraded=self.degraded,
                    )
                    return results
            # Degraded (now or earlier in the run): a fully serial stage.
            results = [
                list(compiled_delta_matches(tgd, index, delta_lo, stage_start))
                for tgd in self._tgds
            ]
            span.note(
                degraded=True,
                candidates=sum(len(bucket) for bucket in results),
            )
        return results

    # ------------------------------------------------------------------
    def _record(
        self, tracer, stage, faults: Sequence[WorkerFault], lost: int = 0
    ) -> None:
        """Count *faults* and switch the run to serial discovery for good."""
        for fault in faults:
            self.counts["detected"] += 1
            if tracer is not None:
                lines = fault.detail.strip().splitlines()
                tracer.event(
                    f"parallel.fault.{fault.kind}",
                    worker=fault.worker,
                    stage=stage,
                    lost_tasks=len(fault.tasks),
                    detail=(lines[-1] if lines else "")[:DETAIL_LIMIT],
                )
        self.degraded = True
        self.counts["degraded"] += 1
        if tracer is not None:
            tracer.event(
                "parallel.degrade",
                stage=stage,
                reason=", ".join(sorted({fault.kind for fault in faults})),
                lost_tasks=lost,
            )


__all__ = ["SupervisedDiscovery"]
