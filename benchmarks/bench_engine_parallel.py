"""E18: parallel batch trigger discovery vs serial — perf trajectory as JSON.

Each row printed here is a single JSON object (like E16/E17), collected
across commits into ``benchmarks/trajectory/``:

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_parallel.py \
        --benchmark-disable -q -s | grep '"experiment": "E18"'

Workloads come from :mod:`workloads` — wide rule sets (many independent
TGDs) in four join shapes (chain / hub / clique / skewed-mix), the shape
the ROADMAP (c) pool exists for: discovery dominates and the serial
merge/decode tail stays small.  Three things are asserted:

* **divergence fails the job** — on every machine, the parallel candidate
  multisets must equal the serial ones, per TGD, before any timing row is
  reported;
* **the speedup bar** — on machines with ≥ 2 usable cores, ``workers=2``
  must beat serial discovery by ≥ 1.5× on the asserted config.  A
  single-core box (some CI sandboxes) cannot run two workers
  simultaneously, so there the rows are still emitted (speedup ≈ 0.9–1.0,
  measuring pure pool overhead) but the bar is not enforced;
* **the shipped-bytes bar** — machine-independent: for one simulated stage
  of derived heads, the pickled shared-memory control message must be
  ≥ 10× smaller than the raw column bytes the stage appended
  (``8·(arity+1)`` per new fact: one stamp plus one ID per argument).
  This is the zero-copy claim in byte form — facts travel through shared
  segments, only watermarks/directories/symbol suffixes cross the pipe.

The pool is driven the way the engine drives it, through a
:class:`~repro.engine.resilience.SupervisedDiscovery`, whose fault ledger
must read zero after every config: a faulted pool finishes serially, and a
degraded pool must never be timed as "parallel".

The last config (~200k atoms) sizes the columnar store: its row records
``peak_rss_kb`` so the trajectory catches memory regressions, not just
time ones.
"""

import json
import os
import pickle

import pytest

from repro.core.atoms import Atom
from repro.engine import AtomIndex, ParallelDiscovery, SupervisedDiscovery
from repro.engine.delta import assignment_layout, iter_encoded_matches
from repro.engine.shm import SHM_AVAILABLE, SharedColumnStore
from repro.obs import CLOCK, peak_rss_kb

from workloads import build

#: (workload, params, worker counts, timed reps).  The clique config is the
#: asserted one (speedup + shipped-bytes bars); the big chain config
#: (~200k atoms) exists to put a memory number in the trajectory.
CONFIGS = (
    ("chain", dict(rules=8, nodes=150, edges=1200), (2, 4), 3),
    ("hub", dict(rules=8, nodes=150, edges=1200), (2, 4), 3),
    ("skewed-mix", dict(rules=8, nodes=300, edges=800), (2, 4), 3),
    ("clique", dict(rules=16, nodes=300, edges=3000), (2, 4), 3),
    ("chain", dict(rules=8, nodes=40000, edges=25000), (2,), 1),
)

#: The (workload, params) pair both acceptance bars are enforced on.
ASSERTED = ("clique", dict(rules=16, nodes=300, edges=3000))

#: ≥ 2-core machines must reach this at workers=2 on the asserted config.
MIN_SPEEDUP = 1.5

#: Per-stage bytes ratio (appended column bytes / pickled shm control
#: message).
MIN_SHIPPED_REDUCTION = 10.0


def _best_of(reps, thunk):
    best = None
    for _ in range(reps):
        started = CLOCK()
        result = thunk()
        elapsed = CLOCK() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, result)
    return best


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _serial_discover(tgds, index, stage_start):
    """Serial discovery in the pool's output shape: encoded rows per TGD."""
    return [
        list(iter_encoded_matches(tgd, assignment_layout(tgd), index, 0, stage_start))
        for tgd in tgds
    ]


def _fire_heads(structure, term, tgds, serial):
    """Materialise every discovered head (the workloads are existential-free).

    *term* decodes the rows: the interner lookup of the index that
    discovered them."""
    added = 0
    for tgd, rows in zip(tgds, serial):
        layout = assignment_layout(tgd)
        for head in tgd.head:
            for row in rows:
                assignment = dict(zip(layout, map(term, row)))
                added += structure.add_atom(
                    Atom(head.predicate, tuple(assignment[v] for v in head.args))
                )
    return added


def _stage_shipped_bytes(tgds, instance, serial, term):
    """Column bytes one stage of derived heads appends, and the pickled shm
    control message that syncs them.

    Builds a fresh index over *instance*, performs the initial sync (a
    one-off cost), then fires the serial candidates as an oblivious stage
    and measures the *incremental* sync — the payload that recurs every
    stage of a real chase — against the raw ``8·(arity+1)`` bytes per new
    fact the stage appended to the posting columns.  *serial* holds rows
    encoded by another index; *term* is that index's decoder.
    """
    index = AtomIndex(instance)
    store = SharedColumnStore()
    store.sync(index)
    try:
        postings = index.tables()[0]
        before = {pid: posting.length for pid, posting in postings.items()}
        _fire_heads(index.structure, term, tgds, serial)
        column_bytes = sum(
            (posting.length - before.get(pid, 0)) * 8 * (len(posting.cols) + 1)
            for pid, posting in postings.items()
        )
        sync = store.sync(index)
        return column_bytes, len(pickle.dumps(sync))
    finally:
        store.close()


@pytest.mark.experiment("E18")
@pytest.mark.parametrize("workload,params,worker_counts,reps", CONFIGS)
def test_parallel_discovery_trajectory(
    benchmark, workload, params, worker_counts, reps, report_lines
):
    tgds, instance = build(workload, **params)
    index = AtomIndex(instance)
    stage_start = index.watermark()
    # Warm the plan/executor caches once — production stages run warm (plans
    # are compiled once per chase), so the steady state is what E18 tracks.
    serial = _serial_discover(tgds, index, stage_start)
    benchmark(lambda: _serial_discover(tgds, index, stage_start))
    serial_seconds, serial = _best_of(
        reps, lambda: _serial_discover(tgds, index, stage_start)
    )
    candidates = sum(len(part) for part in serial)
    cpus = _usable_cpus()
    # Honest multicore accounting (ROADMAP k): the affinity mask above is
    # what the pool can actually use, but record the machine's nominal count
    # too so a trajectory row can never masquerade a 1-CPU sandbox as a
    # parallel result.  The bar below requires BOTH to be ≥ 2.
    os_cpus = os.cpu_count() or 1
    asserted = (workload, params) == ASSERTED
    column_stage_bytes = shm_stage_bytes = None
    if SHM_AVAILABLE:
        column_stage_bytes, shm_stage_bytes = _stage_shipped_bytes(
            tgds, build(workload, **params)[1], serial, index.interner.term
        )
    speedups = {}
    # A discovery pool needs shared memory; without it there is no parallel
    # path to time.
    for workers in worker_counts if SHM_AVAILABLE else ():
        with ParallelDiscovery(tgds, workers=workers) as pool:
            discovery = SupervisedDiscovery(pool, tgds)
            discovery.discover(index, 0, stage_start)  # warm sync + plans
            parallel_seconds, parallel = _best_of(
                reps, lambda: discovery.discover(index, 0, stage_start)
            )
        # A fault would have finished the timed reps serially: fail instead
        # of reporting a serial time as a parallel one.
        counts = discovery.counts
        assert counts["detected"] == counts["degraded"] == 0, counts
        # Divergence is a correctness failure wherever the benchmark runs:
        # the parallel candidate multisets must equal the serial ones per TGD.
        assert len(parallel) == len(serial)
        for serial_part, parallel_part in zip(serial, parallel):
            assert sorted(parallel_part) == sorted(serial_part)
        speedup = serial_seconds / max(parallel_seconds, 1e-9)
        speedups[workers] = speedup
        report_lines(
            json.dumps(
                {
                    "experiment": "E18",
                    "workload": workload,
                    **{k: v for k, v in params.items()},
                    "atoms": len(instance),
                    "candidates": candidates,
                    "workers": workers,
                    "cpus": cpus,
                    "os_cpu_count": os_cpus,
                    "serial_seconds": round(serial_seconds, 6),
                    "parallel_seconds": round(parallel_seconds, 6),
                    "speedup": round(speedup, 2),
                    "column_stage_bytes": column_stage_bytes,
                    "shm_stage_bytes": shm_stage_bytes,
                    "peak_rss_kb": peak_rss_kb(),
                }
            )
        )
    if asserted and SHM_AVAILABLE:
        reduction = column_stage_bytes / max(shm_stage_bytes, 1)
        assert reduction >= MIN_SHIPPED_REDUCTION, (
            f"shm control message only {reduction:.1f}x smaller than the "
            f"column bytes the stage appended (bar: {MIN_SHIPPED_REDUCTION}x, "
            f"columns={column_stage_bytes}B, shm={shm_stage_bytes}B)"
        )
    if asserted and SHM_AVAILABLE and cpus >= 2 and os_cpus >= 2:
        best = speedups[2]
        assert best >= MIN_SPEEDUP, (
            f"parallel discovery reached only {best:.2f}x over serial at "
            f"workers=2 (bar: {MIN_SPEEDUP}x, cpus={cpus}, "
            f"os_cpu_count={os_cpus}, speedups={speedups})"
        )
