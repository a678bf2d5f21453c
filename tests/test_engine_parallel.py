"""Unit tests for parallel batch discovery (repro.engine.parallel).

The shared-memory replica synchronisation protocol, the pool's task
partitioning (per-TGD and delta-window splitting) and the engine-level
``workers=`` opt-in are each pinned here; the whole-run bit-identity of the
parallel engine across firing strategies lives in
``tests/test_differential_modes.py``.  The pool is driven the way the
engine drives it: through a
:class:`~repro.engine.resilience.SupervisedDiscovery` — via :func:`strict`,
which fails the test on any fault the supervisor absorbed.
"""

import gc
import glob
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.chase import chase, parse_tgds
from repro.core.atoms import Atom
from repro.core.builders import structure_from_text
from repro.core.terms import Constant, LabeledNull, Variable
from repro.engine import (
    AtomIndex,
    ParallelDiscovery,
    SemiNaiveChaseEngine,
    SupervisedDiscovery,
    WorkerError,
    run_chase,
)
from repro.engine.delta import assignment_layout, iter_encoded_matches
from repro.engine.shm import (
    DEFAULT_INITIAL_CAPACITY,
    SHM_AVAILABLE,
    SegmentCache,
    SharedColumnStore,
)
from repro.query.interning import Interner

shm_only = pytest.mark.skipif(
    not SHM_AVAILABLE, reason="multiprocessing.shared_memory unavailable"
)


def canonical(rows):
    """Encoded match rows as a sorted, order-insensitive list.

    Replica interners stay aligned with the engine's, so a pool row and a
    serial row for the same match carry the same term IDs."""
    return sorted(rows)


def serial_discovery(tgds, index, delta_lo, stage_start):
    return [
        list(
            iter_encoded_matches(
                tgd, assignment_layout(tgd), index, delta_lo, stage_start
            )
        )
        for tgd in tgds
    ]


def strict(pool, tgds):
    """*pool* under a supervisor whose every ``discover`` asserts a zero
    fault ledger, so a pool bug cannot hide behind the serial recompute."""
    supervisor = SupervisedDiscovery(pool, tgds)
    discover = supervisor.discover

    def checked(*args, **kwargs):
        results = discover(*args, **kwargs)
        counts = supervisor.counts
        assert counts["detected"] == counts["degraded"] == 0, counts
        return results

    supervisor.discover = checked
    return supervisor


def assert_same_index(replica, source):
    assert replica.watermark() == source.watermark()
    assert replica.rebuilds == source.rebuilds
    interner = source.interner
    for pid in range(interner.predicate_count()):
        source_posting = source.posting(pid)
        replica_posting = replica.posting(pid)
        if source_posting is None:
            assert replica_posting is None or replica_posting.length == 0
            continue
        assert replica_posting is not None
        assert replica_posting.length == source_posting.length
        # Each side decodes through its own interner.
        name = interner.predicate(pid)
        assert list(replica.atoms(name)) == list(source.atoms(name))
        assert list(replica_posting.stamps) == list(source_posting.stamps)
        for offset in range(source_posting.length):
            assert replica_posting.row(offset) == source_posting.row(offset)


# ----------------------------------------------------------------------
# Interning across the pickle boundary
# ----------------------------------------------------------------------
def test_interner_round_trip_across_pickle_boundary():
    interner = Interner()
    terms = [Variable("x"), Constant("c"), LabeledNull(3, "w"), ("L", "e0"), "plain"]
    ids = [interner.intern_term(t) for t in terms]
    pid, row = interner.encode_atom(Atom("R", (terms[0], terms[1])))
    clone = pickle.loads(pickle.dumps(interner))
    assert [clone.term_id(t) for t in terms] == ids
    assert clone.decode_atom(pid, row) == Atom("R", (terms[0], terms[1]))
    assert clone.term_count() == interner.term_count()
    # install_* is positional: a diverged replica must fail loudly, never
    # silently remap IDs.
    with pytest.raises(ValueError):
        clone.install_terms(["stray"], base=0)
    with pytest.raises(ValueError):
        clone.install_predicates(["Q"], base=0)
    clone.install_terms(["tail"], base=clone.term_count())
    assert clone.term(clone.term_count() - 1) == "tail"


# ----------------------------------------------------------------------
# The discovery pool
# ----------------------------------------------------------------------
TGDS = parse_tgds(
    "R(x,y), R(y,z) -> S(x,z)",
    "S(x,y), R(y,z) -> S(x,z)",
    "R(x,x) -> T(x,w)",
)


@shm_only
def test_pool_discovery_matches_serial_batch():
    structure = structure_from_text(
        ", ".join(f"R({i},{(i + 1) % 9})" for i in range(9)) + ", R(4,4)"
    )
    index = AtomIndex(structure)
    stage_start = index.watermark()
    serial = serial_discovery(TGDS, index, 0, stage_start)
    with ParallelDiscovery(TGDS, workers=3) as pool:
        parallel = strict(pool, TGDS).discover(index, 0, stage_start)
    assert len(parallel) == len(serial)
    for serial_part, parallel_part in zip(serial, parallel):
        assert canonical(parallel_part) == canonical(serial_part)


@shm_only
def test_pool_incremental_stage_discovery_matches_serial():
    structure = structure_from_text("R(0,1), R(1,2)")
    index = AtomIndex(structure)
    with ParallelDiscovery(TGDS, workers=2) as pool:
        discovery = strict(pool, TGDS)
        stage_start = index.watermark()
        first = discovery.discover(index, 0, stage_start)
        assert canonical(first[0]) == canonical(
            serial_discovery(TGDS, index, 0, stage_start)[0]
        )
        # Grow the structure (as firing would) and discover from the delta.
        structure.add_fact("S", "0", "2")
        structure.add_fact("R", "2", "3")
        delta_lo, stage_start = stage_start, index.watermark()
        serial = serial_discovery(TGDS, index, delta_lo, stage_start)
        parallel = discovery.discover(index, delta_lo, stage_start)
        for serial_part, parallel_part in zip(serial, parallel):
            assert canonical(parallel_part) == canonical(serial_part)


@shm_only
def test_pool_delta_window_splitting_partitions_exactly():
    # One rule, four workers: the pool must split the delta window to keep
    # the pool busy, and the split must reproduce the serial match multiset
    # (each match is seeded in exactly one sub-window).
    rules = parse_tgds("R(x,y), R(y,z), R(z,u) -> Q(x,u)")
    structure = structure_from_text(
        ", ".join(f"R({i},{(i + 3) % 17})" for i in range(17))
        + ", "
        + ", ".join(f"R({i},{(i + 5) % 17})" for i in range(17))
    )
    index = AtomIndex(structure)
    stage_start = index.watermark()
    with ParallelDiscovery(rules, workers=4, min_window_split=4) as pool:
        tasks = pool._plan_tasks(0, stage_start)
        assert len(tasks) == 4  # 1 TGD × 4 sub-windows
        assert tasks[0][1] == 0 and tasks[-1][2] == stage_start
        parallel = strict(pool, rules).discover(index, 0, stage_start)
    serial = serial_discovery(rules, index, 0, stage_start)
    assert canonical(parallel[0]) == canonical(serial[0])
    # The serial and parallel candidate *counts* also agree — windows
    # partition the matches, they do not merely cover them.
    assert len(parallel[0]) == len(serial[0])


@shm_only
def test_pool_resyncs_after_index_rebuild():
    structure = structure_from_text("R(0,1), R(1,2), R(2,0)")
    index = AtomIndex(structure)
    with ParallelDiscovery(TGDS, workers=2) as pool:
        discovery = strict(pool, TGDS)
        discovery.discover(index, 0, index.watermark())
        structure.remove_atom(Atom("R", ("2", "0")))  # rebuild + restamp
        assert index.rebuilds == 1
        stage_start = index.watermark()
        serial = serial_discovery(TGDS, index, 0, stage_start)
        parallel = discovery.discover(index, 0, stage_start)
        for serial_part, parallel_part in zip(serial, parallel):
            assert canonical(parallel_part) == canonical(serial_part)


@shm_only
def test_pool_is_poisoned_after_a_worker_failure(monkeypatch):
    # A task with an out-of-range TGD index makes the worker reply with an
    # error.  The fault event names the remote IndexError, the pool closes,
    # and the engine-side recompute of the lost task — the same code —
    # raises the same IndexError: a deterministic enumeration bug is never
    # absorbed by the serial recompute.
    import repro.obs as obs

    structure = structure_from_text("R(0,1), R(1,2)")
    index = AtomIndex(structure)
    pool = ParallelDiscovery(TGDS, workers=2)
    monkeypatch.setattr(pool, "_plan_tasks", lambda lo, hi: [(99, None, None)])
    lines = []
    obs.enable_tracing(lines.append)
    try:
        with pytest.raises(IndexError):
            SupervisedDiscovery(pool, TGDS).discover(index, 0, index.watermark())
    finally:
        obs.disable_tracing()
    events = [
        json.loads(line) for line in lines
        if json.loads(line)["name"] == "parallel.fault.error"
    ]
    assert len(events) == 1
    assert "IndexError" in events[0]["detail"]
    assert len(events[0]["detail"]) <= 200
    assert pool.closed
    assert multiprocessing.active_children() == []
    with pytest.raises(RuntimeError, match="closed"):
        pool.run_stage(index, 0, index.watermark())


@shm_only
def test_pool_rejects_use_after_close_and_tiny_pools():
    pool = ParallelDiscovery(TGDS, workers=2)
    pool.close()
    pool.close()  # idempotent
    structure = structure_from_text("R(0,1)")
    index = AtomIndex(structure)
    with pytest.raises(RuntimeError):
        pool.run_stage(index, 0, index.watermark())
    with pytest.raises(ValueError):
        ParallelDiscovery(TGDS, workers=1)


# ----------------------------------------------------------------------
# Engine-level opt-in
# ----------------------------------------------------------------------
def test_parallel_engine_is_bit_identical_on_transitive_closure():
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    instance = structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(15))
    )
    serial = run_chase(tgds, instance, 50, 50_000)
    parallel = run_chase(tgds, instance, 50, 50_000, workers=2)
    reference = chase(tgds, instance, 50, 50_000)
    for result in (serial, parallel):
        assert result.structure.atoms() == reference.structure.atoms()
        assert result.stages_run == reference.stages_run
        assert len(result.provenance) == len(reference.provenance)
    for expected, produced in zip(serial.provenance, parallel.provenance):
        assert produced.trigger == expected.trigger
        assert produced.new_atoms == expected.new_atoms


@shm_only
def test_keep_alive_pool_is_reused_across_runs_with_replica_resync():
    """PR-5 keep-alive: one engine, one pool, many chases.

    The pool (and its worker processes) must survive across ``run()`` calls
    on the same engine — replicas are *reset* and re-synced against each
    run's fresh index, never left tracking a dead export stream — and every
    run must stay bit-identical to a serial run of the same workload.
    """
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    first = structure_from_text(", ".join(f"R({i},{i + 1})" for i in range(12)))
    second = structure_from_text(
        ", ".join(f"R(b{i},b{i + 1})" for i in range(9)) + ", R(b9,b0)"
    )
    with SemiNaiveChaseEngine(tgds=list(tgds), max_stages=50, max_atoms=50_000,
                              workers=2) as engine:
        result_one = engine.run(first)
        pool = engine._pool
        assert pool is not None and not pool.closed
        result_two = engine.run(second)
        assert engine._pool is pool, "pool must be retained across runs"
        assert not pool.closed
        # A third run on the *first* workload again: replicas were re-bound
        # twice by now, so any cursor leakage would corrupt this one.
        result_three = engine.run(first)
        assert engine._pool is pool
    assert pool.closed, "context-manager exit must close the pool"
    assert engine._pool is None
    for result, instance in ((result_one, first), (result_two, second),
                             (result_three, first)):
        serial = run_chase(tgds, instance, 50, 50_000)
        assert result.structure.atoms() == serial.structure.atoms()
        assert result.structure.domain() == serial.structure.domain()
        assert len(result.provenance) == len(serial.provenance)
        for expected, produced in zip(serial.provenance, result.provenance):
            assert produced.trigger == expected.trigger
            assert produced.new_atoms == expected.new_atoms
    # close() is idempotent, and a closed engine simply rebuilds on demand.
    engine.close()
    rebuilt = engine.run(first)
    assert engine._pool is not None and not engine._pool.closed
    assert rebuilt.structure.atoms() == result_one.structure.atoms()
    engine.close()


@shm_only
def test_run_chase_closes_its_ephemeral_engine_pool():
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)")
    instance = structure_from_text(", ".join(f"R({i},{i + 1})" for i in range(8)))
    engine = SemiNaiveChaseEngine(
        tgds=list(tgds), max_stages=10, max_atoms=10_000, workers=2
    )
    result = engine.run(instance)
    assert engine._pool is not None and not engine._pool.closed
    engine.close()
    # The one-shot path (run_chase) must not leak worker processes: it closes
    # the engine it builds in a finally, keep-alive or not.
    import multiprocessing

    before = len(multiprocessing.active_children())
    run_chase(tgds, instance, 10, 10_000, workers=2)
    assert len(multiprocessing.active_children()) <= before
    assert result.reached_fixpoint


@shm_only
def test_pool_reset_rejected_after_close():
    pool = ParallelDiscovery(list(TGDS), 2)
    pool.close()
    with pytest.raises(RuntimeError):
        pool.reset()


@shm_only
def test_keep_alive_pool_is_rebuilt_when_the_rule_set_changes():
    # The worker processes carry the TGD list they were spawned with, so
    # mutating engine.tgds between runs must rebuild the pool — reusing it
    # would discover against the old rules and silently diverge from serial.
    rules_a = parse_tgds("R(x,y), R(y,z) -> S(x,z)")
    rules_b = parse_tgds("R(x,y) -> T(y,x)")
    instance = structure_from_text(", ".join(f"R({i},{i + 1})" for i in range(10)))
    with SemiNaiveChaseEngine(tgds=list(rules_a), max_stages=20,
                              max_atoms=10_000, workers=2) as engine:
        engine.run(instance)
        old_pool = engine._pool
        engine.tgds = list(rules_b)
        result = engine.run(instance)
        assert engine._pool is not old_pool, "stale pool must not be reused"
        assert old_pool.closed
        serial = run_chase(rules_b, instance, 20, 10_000)
        assert result.structure.atoms() == serial.structure.atoms()


def test_engine_rejects_unknown_match_strategy_up_front():
    tgds = parse_tgds("R(x,y) -> S(y,x)")
    # The compatibility argument accepts only None / "auto" and fails at
    # construction, before any pool exists.
    for workers in (0, 2):
        with pytest.raises(ValueError, match="wcjo"):
            SemiNaiveChaseEngine(tgds, workers=workers, match_strategy="wcjo")
        for accepted in (None, "auto"):
            with SemiNaiveChaseEngine(
                tgds, workers=workers, match_strategy=accepted
            ) as engine:
                result = engine.run(structure_from_text("R(a,b)"))
            assert result.structure.atoms() == structure_from_text(
                "R(a,b), S(b,a)"
            ).atoms()


@shm_only
def test_keep_alive_engine_recovers_after_abrupt_worker_death():
    # Transport-level death (SIGKILL/OOM, not a clean "error" reply) between
    # runs: the next run's reset() finds the dead workers and closes the
    # pool, the engine builds a fresh one, and the run is parallel, clean
    # and bit-identical to serial.
    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)")
    instance = structure_from_text(", ".join(f"R({i},{i + 1})" for i in range(10)))
    serial = run_chase(tgds, instance, 20, 10_000)
    with SemiNaiveChaseEngine(tgds=list(tgds), max_stages=20,
                              max_atoms=10_000, workers=2) as engine:
        engine.run(instance)
        pool = engine._pool
        old_pids = [process.pid for process in pool._processes]
        for process in list(pool._processes):
            process.kill()
            process.join()
        recovered = engine.run(instance)
        assert pool.closed, "a pool with dead workers must not be reused"
        fresh = engine._pool
        assert fresh is not pool and not fresh.closed
        new_pids = [process.pid for process in fresh._processes]
        assert set(new_pids).isdisjoint(old_pids), "a fresh pool, fresh workers"
        assert recovered.structure.atoms() == serial.structure.atoms()
        assert len(recovered.provenance) == len(serial.provenance)
        assert recovered.stats.faults == {
            "injected": 0, "detected": 0, "degraded": 0,
        }
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# Shared-memory columnar sync (repro.engine.shm)
# ----------------------------------------------------------------------
class ShmLink:
    """An engine-side store, a worker-side segment cache and its replicas."""

    def __init__(self, initial_capacity):
        self.store = SharedColumnStore(initial_capacity)
        self.cache = SegmentCache()
        self.replicas = []

    def replica(self):
        replica = AtomIndex()
        self.replicas.append(replica)
        return replica

    def close(self):
        # The worker's shutdown order: a replica's posting columns are
        # memoryview slices of the cache's mappings, and replicas sit in
        # reference cycles (plan/trie caches point back at them), so they
        # must be dropped and collected before the mappings can close.
        self.replicas.clear()
        gc.collect()
        self.cache.close()
        self.store.close()


@pytest.fixture
def shm_link():
    """Factory of :class:`ShmLink` objects, closed in the worker's order."""
    links = []

    def open_link(initial_capacity=DEFAULT_INITIAL_CAPACITY):
        link = ShmLink(initial_capacity)
        links.append(link)
        return link

    yield open_link
    for link in links:
        link.close()


@shm_only
def test_apply_shared_full_and_incremental_round_trip(shm_link):
    structure = structure_from_text("R(1,2), R(2,3), S(3,4)")
    index = AtomIndex(structure)
    link = shm_link()
    sync = link.store.sync(index)
    assert sync.reset and sync.term_base == 0
    replica = link.replica()
    replica.apply_shared(sync, link.cache)
    assert_same_index(replica, index)
    # Steady state: nothing changed, the control message is None.
    assert link.store.sync(index) is None
    # Growth: the directory re-points at longer column prefixes and only
    # the symbol-table suffix travels; the replica re-binds in place.
    structure.add_fact("R", "3", "9")
    structure.add_fact("T", "9")
    sync = link.store.sync(index)
    assert not sync.reset
    assert "T" in sync.predicates and "9" in sync.terms
    replica.apply_shared(sync, link.cache)
    assert_same_index(replica, index)
    # The replica answers object-level queries identically (atoms are
    # decoded through its own interner).
    assert list(replica.atoms("R")) == list(index.atoms("R"))
    assert replica.count_with_value("R", 0, "3") == 1
    # The control message itself is what crosses the pipe.
    assert pickle.loads(pickle.dumps(sync)) == sync


@shm_only
def test_apply_shared_requires_detached_index(shm_link):
    structure = structure_from_text("R(1,2)")
    index = AtomIndex(structure)
    link = shm_link()
    sync = link.store.sync(index)
    with pytest.raises(ValueError):
        index.apply_shared(sync, link.cache)


@shm_only
def test_shared_segments_grow_by_doubling_mid_run(shm_link):
    structure = structure_from_text("R(0,1)")
    index = AtomIndex(structure)
    link = shm_link(initial_capacity=2)
    replica = link.replica()
    replica.apply_shared(link.store.sync(index), link.cache)
    first_name = link.store.segment_names()[0]
    # Push the posting past the segment capacity: a fresh (doubled)
    # segment replaces it, and the replica must follow the directory to
    # the new name while keeping every previously synced row intact.
    for i in range(1, 40):
        structure.add_fact("R", str(i), str(i + 1))
    replica.apply_shared(link.store.sync(index), link.cache)
    assert link.store.segment_names()[0] != first_name
    assert_same_index(replica, index)
    # The retired segment was unlinked immediately: only the live name
    # exists on disk.
    assert not os.path.exists(f"/dev/shm/{first_name}")


@shm_only
def test_replica_reattaches_after_index_rebuild(shm_link):
    structure = structure_from_text("R(0,1), R(1,2), R(2,0)")
    index = AtomIndex(structure)
    link = shm_link()
    replica = link.replica()
    replica.apply_shared(link.store.sync(index), link.cache)
    structure.remove_atom(Atom("R", ("2", "0")))  # full index rebuild
    assert index.rebuilds == 1
    sync = link.store.sync(index)
    assert sync.reset and sync.rebuilds == 1
    replica.apply_shared(sync, link.cache)
    assert_same_index(replica, index)
    # Interned IDs survived the rebuild on both sides.
    assert replica.interner.term_id("1") == index.interner.term_id("1")


@shm_only
def test_store_close_is_idempotent_and_unlinks_segments():
    structure = structure_from_text("R(1,2), S(2,3)")
    index = AtomIndex(structure)
    store = SharedColumnStore()
    store.sync(index)
    names = store.segment_names()
    assert names and all(os.path.exists(f"/dev/shm/{n}") for n in names)
    store.close()
    assert store.closed and not store.segment_names()
    assert not any(os.path.exists(f"/dev/shm/{n}") for n in names)
    store.close()  # idempotent
    with pytest.raises(RuntimeError):
        store.sync(index)


@shm_only
def test_store_reset_recycles_segments_for_the_next_run(shm_link):
    first = structure_from_text("R(1,2), R(2,3)")
    index = AtomIndex(first)
    link = shm_link()
    link.replica().apply_shared(link.store.sync(index), link.cache)
    names = link.store.segment_names()
    link.store.reset()
    # A fresh run: new index, new stamps, new interner — same segments.
    second = structure_from_text("R(a,b), T(b)")
    index2 = AtomIndex(second)
    sync = link.store.sync(index2)
    assert sync.reset
    replica2 = link.replica()
    replica2.apply_shared(sync, link.cache)
    assert_same_index(replica2, index2)
    assert set(link.store.segment_names()) & set(names), "segments recycled"


@shm_only
def test_shm_failure_mid_run_degrades_or_raises_without_leaks(monkeypatch):
    # The shm backend gives out at stage 2 (e.g. /dev/shm full): the pool
    # closes and reports a WorkerError; the supervisor finishes the run
    # with serial discovery — bit-identical to a serial run — and leaves no
    # worker process or segment behind.
    from repro.engine import ChaseExecutionError

    tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")
    instance = structure_from_text(", ".join(f"R({i},{i + 1})" for i in range(12)))
    serial = run_chase(tgds, instance, 50, 50_000)
    segments_before = set(glob.glob("/dev/shm/repro-*"))
    sync = SharedColumnStore.sync
    calls = []

    def failing_sync(store, index):
        calls.append(index)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return sync(store, index)

    monkeypatch.setattr(SharedColumnStore, "sync", failing_sync)
    degraded = run_chase(tgds, instance, 50, 50_000, workers=2)
    assert degraded.stats.faults == {
        "injected": 0, "detected": 1, "degraded": 1,
    }
    assert degraded.stages_run == serial.stages_run
    assert degraded.structure.atoms() == serial.structure.atoms()
    assert degraded.structure.domain() == serial.structure.domain()
    for expected, produced in zip(serial.stage_snapshots, degraded.stage_snapshots):
        assert produced.atoms() == expected.atoms()
    assert len(degraded.provenance) == len(serial.provenance)
    for expected, produced in zip(serial.provenance, degraded.provenance):
        assert produced.stage == expected.stage
        assert produced.trigger == expected.trigger
        assert produced.new_atoms == expected.new_atoms
        assert produced.new_elements == expected.new_elements
    assert issubclass(WorkerError, ChaseExecutionError)
    assert multiprocessing.active_children() == []
    assert set(glob.glob("/dev/shm/repro-*")) <= segments_before


@shm_only
def test_pool_shm_growth_mid_run_matches_serial():
    structure = structure_from_text("R(0,1), R(1,2)")
    index = AtomIndex(structure)
    with ParallelDiscovery(TGDS, workers=2, shm_initial_capacity=2) as pool:
        discovery = strict(pool, TGDS)
        stage_start = index.watermark()
        discovery.discover(index, 0, stage_start)
        # Grow well past the tiny initial capacity: workers must follow the
        # directory through several segment replacements.
        for i in range(2, 50):
            structure.add_fact("R", str(i), str(i + 1))
        delta_lo, stage_start = stage_start, index.watermark()
        serial = serial_discovery(TGDS, index, delta_lo, stage_start)
        parallel = discovery.discover(index, delta_lo, stage_start)
        for serial_part, parallel_part in zip(serial, parallel):
            assert canonical(parallel_part) == canonical(serial_part)


@shm_only
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_no_segment_leak_or_tracker_noise_at_interpreter_exit():
    # The atexit hook is the last line of defence: a process that never
    # closes its pool must still unlink every segment and exit without
    # resource_tracker warnings or BufferError noise.
    script = textwrap.dedent(
        """
        from repro.core.builders import structure_from_text
        from repro.engine import AtomIndex, ParallelDiscovery, SupervisedDiscovery
        from repro.chase import parse_tgds

        tgds = parse_tgds("R(x,y), R(y,z) -> S(x,z)")
        structure = structure_from_text(
            ", ".join(f"R({i},{i + 1})" for i in range(10))
        )
        index = AtomIndex(structure)
        pool = ParallelDiscovery(tgds, 2)
        SupervisedDiscovery(pool, tgds).discover(index, 0, index.watermark())
        print("SEGS=" + ",".join(pool._store.segment_names()))
        # exit WITHOUT closing the pool
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = [
        name
        for line in proc.stdout.splitlines()
        if line.startswith("SEGS=")
        for name in line[len("SEGS="):].split(",")
        if name
    ]
    assert names, proc.stdout
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}"), "segment leaked"
    assert "resource_tracker" not in proc.stderr, proc.stderr
    assert "BufferError" not in proc.stderr, proc.stderr
