"""Parallel batch trigger discovery over a multiprocessing worker pool.

PR 3 restructured semi-naive stages into a read-only batch-discovery pass
(every TGD matched against fixed delta windows) followed by a strictly
serial firing pass — precisely so that discovery, the embarrassingly
parallel half of a stage, could be farmed out per TGD (ROADMAP item c).
This module is that worker pool.  Threads would not help here: the workload
is pure-Python join execution, so the pool uses **processes** — and, since
the posting storage went columnar, shares the fact columns through
``multiprocessing.shared_memory`` instead of serialising them.

How a stage's discovery runs with ``workers=N``:

1. **Sync** — the engine mirrors its index's flat posting columns into
   shared-memory segments (:mod:`repro.engine.shm`) and sends only a
   :class:`~repro.engine.shm.ShmSync` control message: the ``(watermark,
   segment directory, symbol-table suffix)`` triple.  Each worker attaches
   the named segments once and re-points its replica's posting columns at
   ``memoryview`` slices — zero fact bytes cross the pipe, regardless of
   how large the stage's delta was.  The replica ends up with bit-identical
   stamps, posting offsets and interned IDs (replicas never intern anything
   themselves — rule constants and predicates are pre-interned parent-side
   before the first sync, and facts only ever arrive through syncs).  Shared
   memory is the only transport: when it gives out (a full ``/dev/shm``) the
   pool closes itself and the supervisor finishes the run serially.
2. **Partition** — one task per TGD; when the rule set is narrower than the
   pool (skewed workloads), each TGD's delta window is additionally split
   into disjoint stamp sub-windows.  A match is seeded exactly at its first
   body position carrying a delta atom, so sub-windowing the *seed* while
   keeping the completion windows intact partitions the match set: no
   worker produces a match another worker also produces, and the union is
   exactly the serial enumeration.
3. **Match** — each worker runs the compiled delta discovery
   (:func:`task_rows` over :func:`repro.engine.delta.iter_encoded_matches`'
   register programs, plan-cached on the replica across stages) and returns
   candidates as interned-ID rows in a canonical per-TGD variable order.
4. **Merge** — the engine gathers rows task by task (never by completion
   order, :func:`merge_rows`) and keys them exactly as the serial path
   does: frontier terms decoded through its own interner, then dedup and
   sort.
   Discovery order therefore cannot leak into trigger order: the firing
   pass — still strictly serial, as the paper's chase discipline demands —
   sees the same canonical candidate sequence as a ``workers=0`` run, bit
   for bit.  The differential harness (``tests/test_differential_modes.py``)
   pins this across strategies and worker counts.

Fault tolerance
---------------

:meth:`ParallelDiscovery.run_stage` is the one dispatch primitive, driven by
:class:`~repro.engine.resilience.SupervisedDiscovery`: it dispatches a
stage, gathers with an optional **deadline**
(``multiprocessing.connection.wait``), and instead of raising on the first
problem returns a :class:`StageOutcome` that records, per failed worker,
*what* went wrong (``crash`` — the pipe hit EOF or the send broke; ``hang``
— the deadline expired; ``generation`` / ``truncate`` / ``attach`` — the
worker's replica validation tripped, see :class:`ReplicaDesync`; ``error``
— any other remote exception) and *which tasks* were lost.  A faulted
stage is the pool's last: the faulted workers are terminated at once and
the pool closes, and the supervisor recomputes the lost tasks engine-side
and finishes the run serially.  Because the merge is keyed by the task
list — never by which worker computed a row — a recomputed task is
invisible in the result: bit-identity is preserved by construction.

Deterministic faults for the differential suite are *injected engine-side*
(:mod:`repro.testing.faults`): crash/hang directives travel inside the
stage message and sync-level faults tamper the victim's payload before it
is sent, so the engine knows exactly what it injected and the trace /
run-stats ledgers reconcile.

The pool is an opt-in: construct the engine (or call ``run_chase``) with
``workers=N``; the default stays serial and no existing call site changes
behaviour.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..chase.chase import ChaseExecutionError
from ..chase.tgd import TGD
from ..core.terms import is_rigid
from ..obs.trace import get_tracer
from ..testing.faults import active_plan, tamper_payload
from .delta import assignment_layout, iter_encoded_matches
from .indexes import AtomIndex
from .shm import DEFAULT_INITIAL_CAPACITY, SHM_AVAILABLE, SegmentCache

#: A discovery task: ``(tgd_index, seed_lo, seed_hi)``; ``None`` bounds mean
#: the full delta window.
Task = Tuple[int, Optional[int], Optional[int]]

#: Delta windows narrower than this are never split across workers — the
#: per-task messaging overhead would outweigh the matching work.
MIN_WINDOW_SPLIT = 64

#: ``fork`` keeps worker start-up at a few milliseconds and inherits the
#: imported modules; ``spawn`` is the portable fallback.
_START_METHODS = ("fork", "spawn")

#: Exit code of a worker executing an injected ``crash`` directive
#: (``os._exit`` — no unwind, no atexit; the closest stand-in for SIGKILL
#: or the OOM killer that still leaves a recognisable status).
CRASH_EXIT_CODE = 17


class WorkerError(ChaseExecutionError):
    """The discovery pool could not sync a stage to its workers.

    A :class:`~repro.chase.chase.ChaseExecutionError`, raised by
    :meth:`ParallelDiscovery.run_stage` (after the pool closed itself) when
    the shared-memory sync fails — never a bare transport exception.  The
    supervisor answers it like any other fault: the run finishes serially.
    """


class ReplicaDesync(RuntimeError):
    """A worker's replica failed validation against the engine's claims.

    Raised *worker-side* before any task runs, when a sync message is
    inconsistent with the replica's state: a non-reset sync addressed to a
    replica of a different rebuild generation (``generation mismatch``), or
    a post-sync atom total short of the count the engine declared in the
    stage message (``truncated``).  The engine classifies the shipped
    traceback back into a fault kind; the replica is tainted either way, so
    the pool is closed rather than trusted again.
    """


class WorkerFault(NamedTuple):
    """One worker's failure during a stage, as observed engine-side."""

    worker: Optional[int]  # None: the pool as a whole (a failed shm sync)
    #: crash | hang | generation | truncate | attach | desync | error | sync
    kind: str
    detail: str
    tasks: Tuple[Task, ...]  # the tasks whose rows were lost with it


@dataclass
class StageOutcome:
    """What :meth:`ParallelDiscovery.run_stage` observed for one dispatch.

    ``tasks`` is the dispatch's task list, ``rows_by_task`` every task that
    completed and ``faults`` the failures.
    """

    tasks: List[Task]
    rows_by_task: Dict[Task, List[Tuple[int, ...]]] = field(default_factory=dict)
    faults: List[WorkerFault] = field(default_factory=list)
    #: Faults injected into this dispatch (:mod:`repro.testing.faults`).
    injected: int = 0

    @property
    def lost_tasks(self) -> List[Task]:
        """Tasks of this dispatch that produced no rows, in task order."""
        return [task for task in self.tasks if task not in self.rows_by_task]


def _classify_failure(traceback_text: str) -> str:
    """Map a worker's shipped traceback onto a fault kind."""
    if "ReplicaDesync" in traceback_text:
        if "truncated" in traceback_text:
            return "truncate"
        if "generation mismatch" in traceback_text:
            return "generation"
        return "desync"
    if "FileNotFoundError" in traceback_text:
        # The only file the worker opens is a shared-memory segment by
        # name: a vanished (or tampered) directory entry.
        return "attach"
    return "error"


def merge_rows(
    tgds: Sequence[TGD],
    tasks: Sequence[Task],
    rows_by_task: Dict[Task, List[Tuple[int, ...]]],
) -> List[List[Tuple[int, ...]]]:
    """Gathered rows as per-TGD lists, in task order.

    The canonical merge: iteration follows *tasks* (the dispatch-time list),
    so which worker computed a row — or whether the engine recomputed it
    after a fault — cannot influence the result.  Rows stay encoded (the
    engine's interner IDs in :func:`~repro.engine.delta.assignment_layout`
    order); the engine decodes only the frontier terms of each.  Runs
    supervisor-side, so it works even after the pool is gone.
    """
    results: List[List[Tuple[int, ...]]] = [[] for _ in tgds]
    for task in tasks:
        results[task[0]].extend(rows_by_task[task])
    return results


def task_rows(
    tgds: Sequence[TGD],
    layouts: Sequence[Tuple[str, ...]],
    index: AtomIndex,
    task: Task,
    delta_lo: int,
    stage_start: int,
) -> List[Tuple[int, ...]]:
    """One task's candidate rows: the enumeration a worker runs per task.

    The supervisor calls it against the engine's own index for the tasks a
    fault lost, so a recomputed task is indistinguishable from a worker
    reply.
    """
    tgd_index, seed_lo, seed_hi = task
    return list(
        iter_encoded_matches(
            tgds[tgd_index],
            layouts[tgd_index],
            index,
            delta_lo,
            stage_start,
            seed_lo,
            seed_hi,
        )
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _worker_main(conn, tgds: Sequence[TGD]) -> None:
    """The worker process loop: sync the replica, run tasks, ship rows back.

    Messages in: ``("run", sync, delta_lo, stage_start, tasks,
    fault_directives, atoms_total)`` where ``sync`` is a
    :class:`~repro.engine.shm.ShmSync` to attach/re-bind shared-memory
    segments from, or ``None`` when nothing changed; ``("reset",)`` (drop
    the replica — a keep-alive
    pool is being re-bound to a fresh engine index, whose sync stream starts
    over with new stamps and a new interner; segment attachments are kept,
    the store reuses them); and ``("stop",)``.  Messages out: ``("ok",
    rows_per_task)`` aligned with the incoming task list, or ``("error",
    traceback_text)``.

    Two validations guard the replica before any task runs:

    * **generation** — a non-reset sync must address a replica that has
      been synced before *and* sits on the same rebuild generation;
      anything else raises :class:`ReplicaDesync` ("generation mismatch").
    * **truncation** — ``atoms_total`` is the engine's count of atoms its
      index holds at dispatch; after applying the payload the replica must
      hold exactly that many (stamp watermarks are useless here — they stay
      monotone across rebuilds, so only the atom count is comparable).

    ``fault_directives`` is normally empty; under an armed fault plan it
    carries ``("crash", ordinal)`` / ``("hang", ordinal, seconds)`` tuples
    the worker executes at the given task ordinal (``os._exit`` /
    ``time.sleep``) — the deterministic stand-ins for a killed and a wedged
    worker.
    """
    # Telemetry is process-local by contract: a fork-started worker inherits
    # the parent's module globals, including an active tracer whose file
    # descriptor it shares — writing through it would interleave (and its
    # exit-time flush duplicate) trace lines.  Null the globals instead of
    # calling the disable functions: disabling would close/flush the parent's
    # inherited file object from the child.
    from ..obs import metrics as _obs_metrics
    from ..obs import trace as _obs_trace

    _obs_trace._TRACER = None
    _obs_metrics._ACTIVE = None
    # A fork-started worker also inherits the engine's SIGTERM teardown
    # chain (repro.engine.shm).  Workers must die *instantly* on terminate —
    # unwinding would run SharedMemory destructors against still-referenced
    # replica views and spray BufferError noise on stderr.  Segment unlink
    # is the engine's job; a worker owns nothing worth unwinding for.
    import signal as _signal

    try:
        _signal.signal(_signal.SIGTERM, _signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    replica = AtomIndex()
    segments = SegmentCache()
    layouts = [assignment_layout(tgd) for tgd in tgds]
    synced_once = False
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "stop":
                # Drop the replica first: its posting columns hold memoryview
                # slices of the attached segments, which must die before the
                # mappings can close without BufferError noise at exit.  Plan
                # and trie caches point back at the replica only weakly; the
                # explicit collection covers any other cycle that still
                # holds a view.
                replica = None
                import gc

                gc.collect()
                segments.close()
                return
            if kind == "reset":
                # Plan/trie caches live on the replica and die with it.
                # Segment attachments survive: a reset store recycles its
                # segments, so the next shm sync re-binds the same names.
                replica = AtomIndex()
                synced_once = False
                continue
            try:
                (
                    _,
                    payload,
                    delta_lo,
                    stage_start,
                    tasks,
                    fault_directives,
                    atoms_total,
                ) = message
                if payload is not None:
                    if not payload.reset:
                        if not synced_once:
                            raise ReplicaDesync(
                                "generation mismatch: non-reset sync sent "
                                "to a fresh replica"
                            )
                        if payload.rebuilds != replica.rebuilds:
                            raise ReplicaDesync(
                                "generation mismatch: sync generation "
                                f"{payload.rebuilds} != replica generation "
                                f"{replica.rebuilds}"
                            )
                    replica.apply_shared(payload, segments)
                    synced_once = True
                if atoms_total is not None:
                    held = sum(
                        len(posting.stamps)
                        for posting in replica.tables()[0].values()
                    )
                    if held != atoms_total:
                        raise ReplicaDesync(
                            f"truncated sync: replica holds {held} atoms, "
                            f"engine declared {atoms_total}"
                        )
                crash_at: Optional[int] = None
                hangs: Dict[int, float] = {}
                for directive in fault_directives:
                    if directive[0] == "crash":
                        crash_at = (
                            directive[1]
                            if crash_at is None
                            else min(crash_at, directive[1])
                        )
                    elif directive[0] == "hang":
                        hangs[directive[1]] = directive[2]
                interner = replica.interner
                synced = (interner.term_count(), interner.predicate_count())
                results: List[List[Tuple[int, ...]]] = []
                for ordinal, task in enumerate(tasks):
                    if ordinal in hangs:
                        time.sleep(hangs[ordinal])
                    if crash_at == ordinal:
                        os._exit(CRASH_EXIT_CODE)
                    results.append(
                        task_rows(
                            tgds, layouts, replica, task, delta_lo, stage_start
                        )
                    )
                if synced != (interner.term_count(), interner.predicate_count()):
                    # A replica must never mint IDs of its own: the next
                    # install would collide.  Pre-interning rule symbols
                    # engine-side makes this unreachable; fail loudly if a
                    # future change breaks that invariant.
                    raise AssertionError("worker interned unsynced symbols")
                conn.send(("ok", results))
            except Exception:  # noqa: BLE001 - shipped to the engine side
                conn.send(("error", traceback.format_exc()))
    except (EOFError, OSError, KeyboardInterrupt):
        # The engine went away (or is tearing the pool down): just exit.
        replica = None
        import gc

        gc.collect()
        segments.close()
        return


# ----------------------------------------------------------------------
# Engine side
# ----------------------------------------------------------------------
class ParallelDiscovery:
    """A pool of discovery workers bound to one TGD set.

    Bound to an engine across runs (keep-alive via :meth:`reset`), driven
    once per stage through :meth:`run_stage` by the engine's
    :class:`~repro.engine.resilience.SupervisedDiscovery`, and closed in the
    engine's ``finally``.  Also usable directly — the benchmark wraps it in
    a supervisor against a standalone index.
    """

    def __init__(
        self,
        tgds: Sequence[TGD],
        workers: int,
        min_window_split: int = MIN_WINDOW_SPLIT,
        shm_initial_capacity: int = DEFAULT_INITIAL_CAPACITY,
    ) -> None:
        if workers < 2:
            raise ValueError("a discovery pool needs at least 2 workers")
        if not SHM_AVAILABLE:  # pragma: no cover - platform
            raise RuntimeError(
                "a discovery pool needs multiprocessing.shared_memory, "
                "which is unavailable on this platform"
            )
        self._tgds = list(tgds)
        self._min_window_split = min_window_split
        self._preinterned = False
        self._shm_initial_capacity = shm_initial_capacity
        self._store = None
        available = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            next(m for m in _START_METHODS if m in available)
        )
        self._conns = []
        self._processes = []
        try:
            for _ in range(workers):
                parent_conn, process = self._spawn_worker()
                self._conns.append(parent_conn)
                self._processes.append(process)
        except BaseException:
            self.close()
            raise

    def _spawn_worker(self):
        """Start one worker process; returns ``(parent_conn, process)``."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self._tgds),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        """Number of worker processes in the pool."""
        return len(self._processes)

    @property
    def rules(self) -> Tuple[TGD, ...]:
        """The TGD set this pool was spawned with (workers hold a copy).

        A pool is only reusable for a run over the *same* rule objects: the
        TGD list travelled to the worker processes at spawn time, so a
        changed rule set needs a fresh pool (the engine checks identity,
        see :meth:`SemiNaiveChaseEngine._ensure_pool`).
        """
        return tuple(self._tgds)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran (including the worker-failure path)."""
        return self._conns is None

    def __enter__(self) -> "ParallelDiscovery":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def reset(self) -> None:
        """Drop every worker's replica; the next :meth:`run_stage` re-syncs.

        The keep-alive handshake: a pool outlives a single chase run (see
        :meth:`SemiNaiveChaseEngine.close`), but each run builds a fresh
        engine-side index whose stamps and interner start over — so the
        replicas, the shm mirror and the pre-interning state must start over
        with it.  Worker processes (and their imported modules) are reused.
        A worker found dead here (killed between runs) closes the pool; the
        engine then builds a fresh one (:attr:`closed` is the signal).
        """
        if self._conns is None:
            raise RuntimeError("discovery pool is closed")
        for conn in self._conns:
            try:
                conn.send(("reset",))
            except (BrokenPipeError, EOFError, OSError):
                # Died between runs (kill/OOM).
                self.close()
                return
        self._preinterned = False
        if self._store is not None and not self._store.closed:
            # Keep the segments (the next run's columns recycle them), but
            # restart the mirror from zero alongside the replicas.
            self._store.reset()

    def close(self) -> None:
        """Stop the workers and unlink every segment; idempotent."""
        conns, self._conns = self._conns, None
        processes, self._processes = self._processes, []
        for conn in conns or ():
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for process in processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
                process.join(timeout=5)
        for conn in conns or ():
            conn.close()
        store, self._store = self._store, None
        if store is not None:
            # After the workers are gone, so their mappings don't pin pages;
            # the store's own atexit hook covers the no-explicit-close path.
            store.close()

    # ------------------------------------------------------------------
    def run_stage(
        self,
        index: AtomIndex,
        delta_lo: int,
        stage_start: int,
        stage: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> StageOutcome:
        """Dispatch one stage and gather with fault detection.

        Does not raise on worker failure — failures come back classified in
        :attr:`StageOutcome.faults` with the tasks they lost, and a faulted
        pool has already terminated the faulted workers and closed itself,
        so the caller recomputes the lost tasks without it.  ``deadline``
        bounds the *gather* (in seconds): workers still silent when it
        expires are treated as hung.  ``stage`` is the engine's 1-based
        stage number — the coordinate the fault injector
        (:mod:`repro.testing.faults`) keys on; injection is disabled when it
        is ``None``.  The only raise is :class:`WorkerError`, after closing
        the pool, when the shared-memory sync fails (``OSError``, e.g. a
        full ``/dev/shm``).
        """
        if self._conns is None:
            raise RuntimeError("discovery pool is closed")
        tracer = get_tracer()
        self._preintern(index)
        try:
            store = self._store
            if store is None or store.closed:
                from .shm import SharedColumnStore

                store = self._store = SharedColumnStore(
                    self._shm_initial_capacity
                )
            payload = store.sync(index)
        except OSError as error:
            self.close()
            raise WorkerError(
                f"shared-memory sync failed: {error!r}"
            ) from error
        tasks = self._plan_tasks(delta_lo, stage_start)
        worker_count = len(self._conns)
        parts = [tasks[offset::worker_count] for offset in range(worker_count)]
        # The engine's own atom count at dispatch: the truncation oracle the
        # workers validate against (watermarks are incomparable across
        # rebuilds; the atom total is not).
        atoms_total = sum(
            len(posting.stamps) for posting in index.tables()[0].values()
        )
        # ---- deterministic fault injection (engine-side) --------------
        directives: Dict[int, List[Tuple]] = {}
        payload_overrides: Dict[int, object] = {}
        injected = 0
        plan = active_plan() if stage is not None else None
        if plan is not None:
            # At most one fault per victim per dispatch: a worker fails only
            # once, so a second fault aimed at it could never be detected.
            # It stays armed instead (for a later run of a keep-alive engine:
            # this run's pool ends with its first fault).
            struck: set = set()
            for fault in plan.pending_for(stage):
                victim = fault.worker % worker_count
                if victim in struck:
                    continue
                if fault.kind in ("crash", "hang"):
                    part = parts[victim]
                    if not part:
                        continue  # no task to die on; stays armed
                    ordinal = fault.task % len(part)
                    directives.setdefault(victim, []).append(
                        ("crash", ordinal)
                        if fault.kind == "crash"
                        else ("hang", ordinal, fault.hang_seconds)
                    )
                else:
                    tampered = tamper_payload(fault.kind, payload)
                    if tampered is None:
                        continue  # nothing to tamper this stage; stays armed
                    payload_overrides[victim] = tampered
                struck.add(victim)
                plan.consume(fault)
                injected += 1
                if tracer is not None:
                    tracer.event(
                        "parallel.fault.injected",
                        kind=fault.kind,
                        stage=stage,
                        worker=victim,
                    )
        # ---- dispatch -------------------------------------------------
        outcome = StageOutcome(tasks=list(tasks), injected=injected)
        waiting: Dict[object, Tuple[int, List[Task]]] = {}
        byte_cache: Dict[int, int] = {}
        for worker_id, (conn, part) in enumerate(zip(self._conns, parts)):
            send_payload = payload_overrides.get(worker_id, payload)
            message = (
                "run",
                send_payload,
                delta_lo,
                stage_start,
                part,
                tuple(directives.get(worker_id, ())),
                atoms_total,
            )
            try:
                # Every worker gets the sync payload even when it drew no
                # tasks — replicas must never fall behind the sync stream.
                conn.send(message)
            except (BrokenPipeError, OSError) as error:
                outcome.faults.append(
                    WorkerFault(
                        worker_id,
                        "crash",
                        f"dispatch failed: {error!r}",
                        tuple(part),
                    )
                )
                continue
            waiting[conn] = (worker_id, part)
            if tracer is not None:
                # Priced only while tracing: the engine never serialises the
                # payload itself (each pipe send does), so this pickle exists
                # purely to tag the worker events with a byte count — the
                # whole per-stage shipped cost, since fact bytes live in the
                # segments.
                import pickle

                wire_bytes = byte_cache.get(id(send_payload))
                if wire_bytes is None:
                    wire_bytes = (
                        0
                        if send_payload is None
                        else len(pickle.dumps(send_payload))
                    )
                    byte_cache[id(send_payload)] = wire_bytes
                tracer.event(
                    "parallel.worker",
                    worker=worker_id,
                    tasks=len(part),
                    wire_bytes=wire_bytes,
                )
        # ---- gather (with optional deadline) --------------------------
        deadline_at = None if deadline is None else time.monotonic() + deadline
        while waiting:
            timeout = (
                None
                if deadline_at is None
                else max(0.0, deadline_at - time.monotonic())
            )
            ready = _mp_connection.wait(list(waiting), timeout)
            if not ready:
                # Deadline expired: everything still silent is hung.
                for conn, (worker_id, part) in waiting.items():
                    outcome.faults.append(
                        WorkerFault(
                            worker_id,
                            "hang",
                            f"no reply within the stage deadline of "
                            f"{deadline}s",
                            tuple(part),
                        )
                    )
                break
            for conn in ready:
                worker_id, part = waiting.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError) as error:
                    outcome.faults.append(
                        WorkerFault(
                            worker_id,
                            "crash",
                            f"worker died mid-stage: {error!r}",
                            tuple(part),
                        )
                    )
                    continue
                if reply[0] == "error":
                    outcome.faults.append(
                        WorkerFault(
                            worker_id,
                            _classify_failure(reply[1]),
                            reply[1],
                            tuple(part),
                        )
                    )
                    continue
                for task, rows in zip(part, reply[1]):
                    outcome.rows_by_task[task] = rows
        # ---- a faulted stage is the pool's last -----------------------
        if outcome.faults:
            # Terminate the faulted workers first (a hung one would hold
            # close() up), then stop the rest and unlink the segments.
            for fault in outcome.faults:
                process = self._processes[fault.worker]
                if process.is_alive():
                    process.terminate()
            self.close()
        return outcome

    # ------------------------------------------------------------------
    def _preintern(self, index: AtomIndex) -> None:
        """Intern every symbol a worker's compiler could touch, engine-side.

        Compiling a body interns its predicates and rigid constants; doing
        it here **before the first sync** guarantees those IDs travel in
        the sync's symbol suffix and the replicas never allocate IDs of
        their own — the alignment invariant of
        :meth:`Interner.install_terms`.
        """
        if self._preinterned:
            return
        interner = index.interner
        for tgd in self._tgds:
            for atom in tgd.body + tgd.head:
                interner.intern_predicate(atom.predicate)
                for arg in atom.args:
                    if is_rigid(arg):
                        interner.intern_term(arg)
        self._preinterned = True

    def _plan_tasks(self, delta_lo: int, stage_start: int) -> List[Task]:
        """The stage's task list: per-TGD, sub-windowed when rules are few.

        With fewer TGDs than workers and a wide enough delta, each TGD's
        seed window is split into contiguous stamp sub-ranges so a skewed
        rule set still occupies the whole pool (see the module docstring for
        why seed sub-windowing preserves the exact match partition).
        """
        count = len(self._tgds)
        if count == 0:
            return []
        window = stage_start - delta_lo
        chunks = 1
        worker_count = len(self._conns)
        if count < worker_count and window >= self._min_window_split:
            per_tgd = -(-worker_count // count)  # ceil
            chunks = min(per_tgd, max(1, window // self._min_window_split))
        if chunks <= 1:
            return [(i, None, None) for i in range(count)]
        bounds = [
            delta_lo + (window * k) // chunks for k in range(chunks + 1)
        ]
        return [
            (i, bounds[k], bounds[k + 1])
            for i in range(count)
            for k in range(chunks)
        ]
