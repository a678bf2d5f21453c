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

Heavy consumers select an engine through the shared ``engine=`` parameter
(accepted by :func:`run_chase`, ``GreenGraphRuleSet.chase``,
``SwarmRuleSet.chase``, ``chase_fragments``, ``build_countermodel``, …),
which defaults to the semi-naive engine.  The reference implementation in
:mod:`repro.chase.chase` stays authoritative for differential testing:
``engine="reference"`` selects it explicitly.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Union

from ..chase.chase import ChaseEngine, ChaseExecutionError, ChaseResult
from ..chase.tgd import TGD
from ..core.structure import Structure
from .delta import compiled_delta_matches, head_satisfied_indexed
from .indexes import AtomIndex
from .parallel import ParallelDiscovery, WorkerError
from .resilience import SupervisedDiscovery
from .seminaive import SemiNaiveChaseEngine
from .strategies import (
    FiringStrategy,
    min_bound,
    lazy_strategy,
    oblivious_strategy,
    resolve_strategy,
    semi_oblivious_strategy,
)

#: Name of the engine used when callers pass ``engine=None``.
DEFAULT_ENGINE = "seminaive"

#: Accepted values of the shared ``engine=`` parameter.
EngineSpec = Union[None, str, ChaseEngine, SemiNaiveChaseEngine]

_SEMINAIVE_NAMES = frozenset({"seminaive", "semi-naive", "semi_naive", "delta"})
_REFERENCE_NAMES = frozenset({"reference", "naive", "lazy-reference"})


def _check_reference_options(strategy, workers, stage_deadline, context):
    """Reject the semi-naive-only options for the reference engine."""
    if strategy is not None:
        raise ValueError(
            "firing strategies are a semi-naive engine feature; "
            "the reference engine is always lazy"
        )
    if workers and workers >= 2:
        # workers=0/1 means "serial" on the semi-naive engine, so a
        # config-driven caller may pass it here too; only an actual
        # parallelism request is an error on the reference engine.
        raise ValueError(
            "parallel discovery is a semi-naive engine feature; "
            "the reference engine is strictly serial"
        )
    if stage_deadline is not None:
        raise ValueError(
            "stage deadlines are a semi-naive engine feature; "
            "the reference engine has no worker pool to supervise"
        )
    if context is not None:
        raise ValueError(
            "index hand-off contexts are a semi-naive engine feature; "
            "the reference engine maintains no index to adopt"
        )


def make_engine(
    engine: EngineSpec,
    tgds: Sequence[TGD],
    max_stages: Optional[int] = None,
    max_atoms: Optional[int] = None,
    strategy=None,
    workers: Optional[int] = None,
    stage_deadline: Optional[float] = None,
    context=None,
):
    """Resolve the shared ``engine=`` parameter into a ready-to-run engine.

    ``engine`` may be ``None`` (the default semi-naive engine), one of the
    names ``"seminaive"`` / ``"reference"``, or an already-constructed engine
    instance.  An instance contributes its *kind* and configuration (firing
    strategy, ``raise_on_budget``) but is re-bound to the call site's
    workload: the ``tgds`` come from the caller, and the stage/atom budgets
    are *intersected* (the tighter bound wins), so neither the wrapper's
    safety budgets nor the instance's own are ever silently discarded.
    ``workers=N`` (N ≥ 2) opts the semi-naive engine into parallel batch
    discovery (:mod:`repro.engine.parallel`); ``None`` keeps the instance's
    own setting, and the reference engine rejects it.
    ``stage_deadline`` bounds each parallel stage's gather in seconds, for
    hang detection (:mod:`repro.engine.resilience`); ``None`` keeps the
    instance's setting (no deadline for fresh engines), and the reference
    engine — which has no pool — accepts only ``None``.  ``context`` selects
    the :class:`~repro.query.context.EvalContext` the run's index is donated to
    (``None`` keeps the instance's own setting — the process-wide shared
    context for fresh engines); the reference engine — which maintains no
    index to hand off — accepts only ``None``.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, (ChaseEngine, SemiNaiveChaseEngine)):
        if not isinstance(engine, SemiNaiveChaseEngine):
            _check_reference_options(strategy, workers, stage_deadline, context)
            return replace(
                engine,
                tgds=list(tgds),
                max_stages=min_bound(max_stages, engine.max_stages),
                max_atoms=min_bound(max_atoms, engine.max_atoms),
            )
        if strategy is not None:
            engine = replace(engine, strategy=resolve_strategy(strategy))
        return replace(
            engine,
            tgds=list(tgds),
            max_stages=min_bound(max_stages, engine.max_stages),
            max_atoms=min_bound(max_atoms, engine.max_atoms),
            workers=engine.workers if workers is None else workers,
            stage_deadline=(
                engine.stage_deadline if stage_deadline is None else stage_deadline
            ),
            context=engine.context if context is None else context,
        )
    if isinstance(engine, str):
        name = engine.lower()
        if name in _SEMINAIVE_NAMES:
            return SemiNaiveChaseEngine(
                tgds=list(tgds),
                max_stages=max_stages,
                max_atoms=max_atoms,
                strategy=resolve_strategy(strategy),
                workers=workers or 0,
                stage_deadline=stage_deadline,
                context=context,
            )
        if name in _REFERENCE_NAMES:
            _check_reference_options(strategy, workers, stage_deadline, context)
            return ChaseEngine(
                tgds=list(tgds), max_stages=max_stages, max_atoms=max_atoms
            )
        raise ValueError(
            f"unknown chase engine {engine!r}; "
            f"known: {sorted(_SEMINAIVE_NAMES | _REFERENCE_NAMES)}"
        )
    raise TypeError(f"cannot interpret {engine!r} as a chase engine")


def run_chase(
    tgds: Sequence[TGD],
    instance: Structure,
    max_stages: Optional[int] = None,
    max_atoms: Optional[int] = None,
    keep_snapshots: bool = True,
    engine: EngineSpec = None,
    strategy=None,
    workers: Optional[int] = None,
    stage_deadline: Optional[float] = None,
    context=None,
) -> ChaseResult:
    """Run the (bounded) chase of *instance* under *tgds* on a chosen engine.

    This is the engine-aware sibling of :func:`repro.chase.chase`; with
    ``engine="reference"`` the two are the same computation.  ``workers=N``
    (N ≥ 2) runs each stage's trigger discovery on a process pool — output
    is bit-identical to the serial run, and a worker fault only makes the
    run finish serially (:mod:`repro.engine.resilience`).  ``stage_deadline``
    bounds each parallel stage's gather in seconds, for hang detection.
    ``context`` selects the evaluation context the chased structure's index
    is donated to (``None`` = the process-wide shared context) — per-session
    callers pass their own so post-chase queries stay isolated.

    The result's stage snapshots are always available, built lazily from
    the provenance.  ``keep_snapshots`` is accepted and ignored: it goes
    once the repository benchmark stops passing it.
    """
    resolved = make_engine(
        engine,
        tgds,
        max_stages=max_stages,
        max_atoms=max_atoms,
        strategy=strategy,
        workers=workers,
        stage_deadline=stage_deadline,
        context=context,
    )
    try:
        return resolved.run(instance)
    finally:
        # `resolved` is always a fresh engine object (string specs construct
        # one, instances are re-bound through dataclasses.replace), so its
        # keep-alive pool would otherwise linger until garbage collection.
        closer = getattr(resolved, "close", None)
        if closer is not None:
            closer()


__all__ = [
    "AtomIndex",
    "ChaseExecutionError",
    "DEFAULT_ENGINE",
    "EngineSpec",
    "FiringStrategy",
    "ParallelDiscovery",
    "SemiNaiveChaseEngine",
    "SupervisedDiscovery",
    "WorkerError",
    "compiled_delta_matches",
    "head_satisfied_indexed",
    "lazy_strategy",
    "make_engine",
    "oblivious_strategy",
    "resolve_strategy",
    "run_chase",
    "semi_oblivious_strategy",
]
