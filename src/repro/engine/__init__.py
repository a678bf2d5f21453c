"""High-performance chase engines (semi-naive, delta-driven, indexed).

This subsystem is the production engine room behind every chase-shaped
construction in the library — Figure 1, the late chase of Section IX, the
Section VIII.E counter-model, the Theorem 1 reduction pipeline.  It contains

* :mod:`~repro.engine.indexes` — incremental per-(predicate, position,
  value) atom indexes maintained through structure listeners;
* :mod:`~repro.engine.delta` — semi-naive trigger discovery: at stage
  ``i+1`` only body matches using at least one stage-``i`` atom are
  enumerated, each compiled body on the join executor
  :func:`repro.query.compile.choose_executor` picks (no caller names one);
* :mod:`~repro.engine.seminaive` — :class:`SemiNaiveChaseEngine`, a drop-in
  replacement for the reference engine with identical output;
* :mod:`~repro.engine.strategies` — pluggable lazy / oblivious /
  semi-oblivious firing policies with atom/stage budgets;
* :mod:`~repro.engine.parallel` — an opt-in (``workers=N``)
  ``multiprocessing`` pool that fans each stage's batch trigger discovery
  out over replica indexes attached to shared-memory posting columns
  (:mod:`~repro.engine.shm`), merging candidates back into canonical
  order — output stays bit-identical;
* :mod:`~repro.engine.resilience` — the supervisor every pool runs under:
  a worker fault closes the pool and the run finishes serially,
  bit-identical.

Every paper module chases through :func:`run_chase`, which always runs the
semi-naive engine.  The reference implementation :func:`repro.chase.chase`
(:class:`~repro.chase.chase.ChaseEngine`) stays authoritative as the oracle:
differential tests and benchmarks call it directly and compare bit for bit.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..chase.chase import ChaseExecutionError, ChaseResult
from ..chase.tgd import TGD
from ..core.structure import Structure
from .delta import compiled_delta_matches, head_satisfied_indexed
from .indexes import AtomIndex
from .parallel import ParallelDiscovery, WorkerError
from .resilience import SupervisedDiscovery
from .seminaive import SemiNaiveChaseEngine
from .strategies import (
    FiringStrategy,
    lazy_strategy,
    oblivious_strategy,
    resolve_strategy,
    semi_oblivious_strategy,
)


def run_chase(
    tgds: Sequence[TGD],
    instance: Structure,
    max_stages: Optional[int] = None,
    max_atoms: Optional[int] = None,
    keep_snapshots: bool = True,
    strategy=None,
    workers: Optional[int] = None,
    stage_deadline: Optional[float] = None,
    context=None,
) -> ChaseResult:
    """Run the (bounded) chase of *instance* under *tgds* on the semi-naive engine.

    Under the default lazy *strategy* the result is bit-identical to the
    reference :func:`repro.chase.chase`.  ``workers=N`` (N ≥ 2) runs each
    stage's trigger discovery on a process pool — output is bit-identical
    to the serial run, and a worker fault only makes the run finish
    serially (:mod:`repro.engine.resilience`).  ``stage_deadline`` bounds
    each parallel stage's gather in seconds, for hang detection.
    ``context`` selects the evaluation context the chased structure's index
    is donated to (``None`` = the process-wide shared context) — per-session
    callers pass their own so post-chase queries stay isolated.

    The result's stage snapshots are always available, built lazily from
    the provenance.  ``keep_snapshots`` is accepted and ignored: it goes
    once the repository benchmark stops passing it.
    """
    engine = SemiNaiveChaseEngine(
        tgds=list(tgds),
        max_stages=max_stages,
        max_atoms=max_atoms,
        strategy=resolve_strategy(strategy),
        workers=workers or 0,
        stage_deadline=stage_deadline,
        context=context,
    )
    try:
        return engine.run(instance)
    finally:
        # The engine is ephemeral, so its keep-alive pool would otherwise
        # linger until garbage collection.
        engine.close()


__all__ = [
    "AtomIndex",
    "ChaseExecutionError",
    "FiringStrategy",
    "ParallelDiscovery",
    "SemiNaiveChaseEngine",
    "SupervisedDiscovery",
    "WorkerError",
    "compiled_delta_matches",
    "head_satisfied_indexed",
    "lazy_strategy",
    "oblivious_strategy",
    "resolve_strategy",
    "run_chase",
    "semi_oblivious_strategy",
]
