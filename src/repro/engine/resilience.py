"""Fault-tolerant supervision of the parallel discovery pool.

A single OOM-killed worker (or a full ``/dev/shm`` on one attach) should
not cost a long chase its progress when the stage's lost work is both
*detectable* and *recomputable*.  This module is the supervision layer that
makes the parallel engine of :mod:`repro.engine.parallel` degrade instead
of die — and the only way the engine drives its pool:

**Tier 0 — retry in place.**  :class:`SupervisedDiscovery` drives the
pool's fault-reporting primitive
(:meth:`~repro.engine.parallel.ParallelDiscovery.run_stage`): a stage is
dispatched with an optional **deadline**; workers that crash (pipe EOF),
hang (deadline expiry) or fail replica validation (generation mismatch,
truncated sync, segment attach failure) are terminated and **respawned
against the current shm generation** — a respawned worker receives a
full-state sync (:meth:`~repro.engine.shm.SharedColumnStore.snapshot`),
never an incremental suffix it could not interpret — and only the *lost
tasks* are re-dispatched, with exponential backoff between attempts.

**Tier 1 — serial fallback.**  When a stage exhausts its retry budget (or
the pool itself cannot be healed, or its shared-memory sync fails), the
supervisor computes the still-missing tasks **engine-side** via the exact
per-task enumeration the workers run
(:func:`~repro.engine.parallel.task_rows` over the same seed windows),
closes the pool, and runs every subsequent stage of the run serially.
Degradation is terminal *per run*: the next run on a keep-alive engine
builds a fresh pool and is parallel again.  With ``serial_fallback=False``
(``resilience=False`` is zero retries and no fallback) the supervisor
closes the pool and raises :class:`~repro.engine.parallel.WorkerError`
instead.

**Bit-identity throughout.**  The canonical merge is keyed by the dispatch
task list — never by which worker (or which attempt, or which tier)
produced a row — so retried, re-dispatched and serially-recomputed
partitions are indistinguishable in the output.  The differential suite
(``tests/test_resilience.py``) pins this: every fault class, at seeded
random coordinates, either completes bit-identical to a serial run or
raises a typed :class:`~repro.engine.parallel.WorkerError` (a
:class:`~repro.chase.chase.ChaseExecutionError`).

Every decision is observable: ``parallel.fault.injected`` (from the
injector), ``parallel.fault.<kind>`` per detected fault, ``parallel.retry``
per re-dispatch and ``parallel.degrade`` at the tier switch are emitted as
trace events (:mod:`repro.obs`), and the same counters land on
``ChaseRunStats.faults`` — the two ledgers are incremented by the same code
paths, so a trace summary and the run stats always agree.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..chase.tgd import TGD
from ..obs.trace import NULL_SPAN, get_tracer
from .delta import Assignment, assignment_layout, compiled_delta_matches
from .parallel import ParallelDiscovery, Task, WorkerError, merge_rows, task_rows


class ResilienceConfigError(ValueError):
    """A ``REPRO_*`` supervision override could not be parsed or is invalid.

    Raised when the resilience config is resolved — at engine construction
    time, before any stage is dispatched — so a typo'd deployment knob fails
    the run immediately with the variable named, instead of surfacing as a
    bare ``ValueError`` from deep inside the supervision loop.
    """


_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _env_float(name: str, raw: str) -> float:
    """A positive finite float from the environment, or a typed error."""
    try:
        value = float(raw)
    except ValueError:
        raise ResilienceConfigError(
            f"{name}={raw!r} is not a number (expected seconds, e.g. 30 or 2.5)"
        ) from None
    if not math.isfinite(value) or value <= 0:
        raise ResilienceConfigError(
            f"{name}={raw!r} must be a positive finite number of seconds"
        )
    return value


def _env_int(name: str, raw: str) -> int:
    """A non-negative integer from the environment, or a typed error."""
    try:
        value = int(raw)
    except ValueError:
        raise ResilienceConfigError(
            f"{name}={raw!r} is not an integer (expected a retry count, e.g. 2)"
        ) from None
    if value < 0:
        raise ResilienceConfigError(f"{name}={raw!r} must be >= 0")
    return value


def _env_bool(name: str, raw: str) -> bool:
    """A boolean from the environment, or a typed error.

    The historical parser treated *any* unrecognised word — including a
    typo'd ``"flase"`` — as True; now only the conventional spellings are
    accepted, case-insensitively.
    """
    word = raw.strip().lower()
    if word in _TRUE_WORDS:
        return True
    if word in _FALSE_WORDS:
        return False
    raise ResilienceConfigError(
        f"{name}={raw!r} is not a boolean "
        f"(expected one of {sorted(_TRUE_WORDS | _FALSE_WORDS)})"
    )


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the supervision layer.

    The defaults recover from transient faults without changing the timing
    of a healthy run: no deadline (a hung worker then only surfaces through
    pipe death), two retries with a short exponential backoff, and serial
    fallback as the terminal tier.  ``serial_fallback=False`` turns
    exhausted recovery into a typed
    :class:`~repro.engine.parallel.WorkerError` instead — for callers that
    would rather fail a run than absorb a serial stage.
    """

    #: Per-stage gather deadline in seconds (``None`` = wait forever).
    #: Required for *hang* detection — crashes are caught without it.
    stage_deadline: Optional[float] = None
    #: Re-dispatch attempts per stage after the initial dispatch.
    max_retries: int = 2
    #: Sleep before retry ``k`` is ``backoff_seconds * 2**(k-1)``.
    backoff_seconds: float = 0.05
    #: Exhausted retries: recompute the lost tasks serially and degrade the
    #: rest of the run (True), or raise ``WorkerError`` (False).
    serial_fallback: bool = True

    @classmethod
    def from_env(cls) -> "ResilienceConfig":
        """The config with ``REPRO_*`` environment overrides applied.

        ``REPRO_STAGE_DEADLINE`` (positive float seconds),
        ``REPRO_MAX_RETRIES`` (non-negative int), ``REPRO_SERIAL_FALLBACK``
        (``0``/``1``/``true``/``false``/``yes``/``no``/``on``/``off``) —
        the service-style knobs, so a deployment can tighten supervision
        without code.  An unset or empty variable keeps the default; a
        malformed one raises :class:`ResilienceConfigError` naming the
        variable, at engine-construction time rather than mid-supervision.
        """
        deadline = os.environ.get("REPRO_STAGE_DEADLINE")
        retries = os.environ.get("REPRO_MAX_RETRIES")
        fallback = os.environ.get("REPRO_SERIAL_FALLBACK")
        return cls(
            stage_deadline=(
                _env_float("REPRO_STAGE_DEADLINE", deadline)
                if deadline
                else cls.stage_deadline
            ),
            max_retries=(
                _env_int("REPRO_MAX_RETRIES", retries)
                if retries
                else cls.max_retries
            ),
            serial_fallback=(
                _env_bool("REPRO_SERIAL_FALLBACK", fallback)
                if fallback
                else cls.serial_fallback
            ),
        )


def resolve_resilience(spec) -> ResilienceConfig:
    """Normalise an engine's ``resilience`` field to a config.

    ``None`` (the default) means *supervised with environment defaults*;
    ``True`` is the same; ``False`` is strict fail-fast — zero retries and
    no serial fallback, so the first worker fault raises
    :class:`~repro.engine.parallel.WorkerError`; a
    :class:`ResilienceConfig` is taken as-is.
    """
    if spec is False:
        return ResilienceConfig(max_retries=0, serial_fallback=False)
    if spec is None or spec is True:
        return ResilienceConfig.from_env()
    if isinstance(spec, ResilienceConfig):
        return spec
    raise TypeError(
        f"resilience must be None, a bool or a ResilienceConfig, "
        f"got {type(spec).__name__}"
    )


class SupervisedDiscovery:
    """Per-run supervisor wrapping one :class:`ParallelDiscovery` pool.

    The engine's discovery call site:
    ``discover(index, delta_lo, stage_start, strategy=..., stage=...)``
    returns one assignment list per TGD under a single
    ``parallel.discover`` span per stage; faults inside the stage are
    retried, healed, degraded or raised per the :class:`ResilienceConfig`.
    One supervisor serves one run: :attr:`degraded` and the :attr:`counts`
    ledger are per-run state.
    """

    def __init__(
        self,
        pool: ParallelDiscovery,
        config: ResilienceConfig,
        tgds: Sequence[TGD],
    ) -> None:
        self._pool = pool
        self._config = config
        self._tgds = list(tgds)
        self._layouts = [assignment_layout(tgd) for tgd in self._tgds]
        #: True once the run fell back to serial discovery for good.
        self.degraded = False
        #: The fault ledger: mirrors the trace events one-for-one, and is
        #: copied onto ``ChaseRunStats.faults`` at run end.
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
        strategy: str = "nested",
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
            if self.degraded or not pool_live:
                results = self._serial_all(index, delta_lo, stage_start, strategy)
                span.note(
                    degraded=True,
                    candidates=sum(len(bucket) for bucket in results),
                )
                return results
            config = self._config
            rows_by_task: Dict[Task, List] = {}
            tasks: Optional[List[Task]] = None
            lost: Optional[List[Task]] = None  # None = full dispatch
            attempt = 0
            while True:
                try:
                    outcome = pool.run_stage(
                        index,
                        delta_lo,
                        stage_start,
                        strategy,
                        stage=stage,
                        deadline=config.stage_deadline,
                        tasks=lost,
                    )
                except WorkerError as error:
                    # The pool itself could not be healed or synced (it is
                    # already closed).  Terminal for the pool: either
                    # finish this stage — and the run — serially, or
                    # surface the typed error.
                    if not config.serial_fallback:
                        raise
                    if tasks is None:
                        # Nothing dispatched yet: the whole stage (and the
                        # rest of the run) goes serial.
                        self._degrade(
                            tracer, stage, f"pool unrecoverable: {error}", []
                        )
                        results = self._serial_all(
                            index, delta_lo, stage_start, strategy
                        )
                        span.note(
                            degraded=True,
                            candidates=sum(len(b) for b in results),
                        )
                        return results
                    lost = [t for t in tasks if t not in rows_by_task]
                    self._degrade(
                        tracer, stage, f"pool unrecoverable: {error}", lost
                    )
                    self._serial_tasks(
                        rows_by_task, index, lost, delta_lo, stage_start,
                        strategy,
                    )
                    break
                if tasks is None:
                    # The merge is keyed by the *first* dispatch's task
                    # list; retries only ever narrow it.
                    tasks = outcome.tasks
                rows_by_task.update(outcome.rows_by_task)
                self.counts["injected"] += outcome.injected
                if not outcome.faults:
                    break
                for fault in outcome.faults:
                    self.counts["detected"] += 1
                    if tracer is not None:
                        tracer.event(
                            f"parallel.fault.{fault.kind}",
                            worker=fault.worker,
                            stage=stage,
                            lost_tasks=len(fault.tasks),
                        )
                lost = [t for t in tasks if t not in rows_by_task]
                if not lost:
                    # Faulted workers carried no tasks (sync-only victims):
                    # they are respawned, nothing to recompute.
                    break
                if attempt >= config.max_retries:
                    if not config.serial_fallback:
                        # Exhausted and no fallback: the run fails, and the
                        # pool goes with it.
                        pool.close()
                        detail = "\n".join(
                            f"[worker {f.worker}: {f.kind}]\n{f.detail}"
                            for f in outcome.faults
                        )
                        raise WorkerError(
                            f"stage {stage}: {len(lost)} discovery task(s) "
                            f"still lost after {attempt} retries and serial "
                            f"fallback is disabled:\n{detail}"
                        )
                    self._degrade(
                        tracer,
                        stage,
                        f"retry budget of {config.max_retries} exhausted",
                        lost,
                    )
                    self._serial_tasks(
                        rows_by_task, index, lost, delta_lo, stage_start,
                        strategy,
                    )
                    break
                attempt += 1
                self.counts["retried"] += 1
                if tracer is not None:
                    tracer.event(
                        "parallel.retry",
                        stage=stage,
                        attempt=attempt,
                        lost_tasks=len(lost),
                    )
                if config.backoff_seconds > 0:
                    time.sleep(config.backoff_seconds * 2 ** (attempt - 1))
            results = merge_rows(
                self._tgds, self._layouts, index, tasks, rows_by_task
            )
            span.note(
                tasks=len(tasks),
                candidates=sum(len(bucket) for bucket in results),
                degraded=self.degraded,
            )
        return results

    # ------------------------------------------------------------------
    def _degrade(self, tracer, stage, reason: str, lost: List[Task]) -> None:
        """Flip to the terminal serial tier (idempotent per run)."""
        if not self.degraded:
            self.degraded = True
            self.counts["degraded"] += 1
            if tracer is not None:
                tracer.event(
                    "parallel.degrade",
                    stage=stage,
                    reason=reason,
                    lost_tasks=len(lost),
                )
        if not self._pool.closed:
            # Workers and segments are of no further use this run; release
            # them now rather than at run end.
            self._pool.close()

    def _serial_tasks(
        self,
        rows_by_task: Dict[Task, List],
        index,
        lost: List[Task],
        delta_lo: int,
        stage_start: int,
        strategy: str,
    ) -> None:
        """Recompute *lost* tasks engine-side (the workers' enumeration)."""
        for task in lost:
            rows_by_task[task] = task_rows(
                self._tgds, self._layouts, index, task, delta_lo, stage_start,
                strategy,
            )

    def _serial_all(
        self, index, delta_lo: int, stage_start: int, strategy: str
    ) -> List[List[Assignment]]:
        """A fully serial stage — the post-degrade (tier 1) path."""
        return [
            list(
                compiled_delta_matches(
                    tgd, index, delta_lo, stage_start, strategy=strategy
                )
            )
            for tgd in self._tgds
        ]


__all__ = [
    "ResilienceConfig",
    "ResilienceConfigError",
    "SupervisedDiscovery",
    "resolve_resilience",
]
