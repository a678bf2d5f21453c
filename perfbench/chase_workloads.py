"""chase-deep and chase-wide: the library chase, timed one engine run at a time.

* chase-deep runs :func:`repro.engine.run_chase` with its defaults (serial,
  ``nested`` matching, stage snapshots kept) over a 100-edge chain under the
  transitive-closure rules: 99 stages, firing- and snapshot-bound.
* chase-wide re-runs one keep-alive ``SemiNaiveChaseEngine(workers=2,
  match_strategy="auto")`` over 8 triangle rules and 24,000 edges: one
  stage, bound by discovery on the worker pool.

Every timed run is preceded by ``gc.collect()`` outside the timed region, so
garbage left by the previous run is not charged to the next one and peak RSS
repeats from run to run.  End-to-end times leave out hypervisor steal (see
:func:`probes.stolen_s`).
"""

import gc
import multiprocessing

from repro.core.structure import Structure
from repro.engine import SemiNaiveChaseEngine, run_chase
from repro.obs.report import summarize_trace
from repro.obs.trace import disable_tracing, enable_tracing

import inputs
from probes import CLOCK, LayerProbe, median, vmhwm_mb

#: Fewest timed runs a measurement takes, however short ``--seconds`` is.
MIN_RUNS = 5

#: Untimed runs before measuring: the first runs of a fresh engine or pool
#: are slower while caches fill.
WARM_UP_RUNS = 2


class ChaseDeep:
    name = "chase-deep"

    def __init__(self, seed):
        self.tgds, self.instance, self._expected = inputs.chase_deep(seed)

    def run(self):
        return run_chase(self.tgds, self.instance)

    def check(self, result):
        return result.reached_fixpoint and result.structure.atoms() == self._expected

    def worker_pids(self):
        return []

    def close(self):
        pass


class ChaseWide:
    name = "chase-wide"
    #: Two discovery workers: one per CPU of the 2-CPU machine it was sized on.
    workers = 2

    def __init__(self, seed):
        self.tgds, self.instance, self._edges = inputs.chase_wide(seed)
        self._expected = None
        self.engine = SemiNaiveChaseEngine(
            self.tgds, workers=self.workers, match_strategy="auto"
        )
        # A run over the empty instance starts the keep-alive pool without
        # chasing anything, so the pool is up once set-up ends.
        self.engine.run(Structure())

    def run(self):
        return self.engine.run(self.instance)

    def check(self, result):
        if self._expected is None:
            self._expected = inputs.triangle_heads(self._edges)
        heads = {
            (atom.predicate, atom.args[0])
            for atom in result.structure.atoms()
            if atom.predicate.startswith("W")
        }
        return result.reached_fixpoint and heads == self._expected

    def worker_pids(self):
        return [process.pid for process in multiprocessing.active_children()]

    def close(self):
        self.engine.close()


WORKLOADS = {ChaseDeep.name: ChaseDeep, ChaseWide.name: ChaseWide}


def _warm_up(work, tally):
    for _ in range(WARM_UP_RUNS):
        result, _, _ = tally.run(work.run, work.check)
        del result


def measure(work, seconds, tally):
    """The end-to-end metrics of *work* over at least *seconds* of runs."""
    _warm_up(work, tally)
    times = []
    started = CLOCK()
    while CLOCK() - started < seconds or len(times) < MIN_RUNS:
        gc.collect()
        result, wall, stolen = tally.run(work.run, work.check)
        del result
        times.append(wall - stolen)
    return {
        "chase_s": (median(times), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (vmhwm_mb(), "MB"),
    }


def _traced_run(work, tally, ledger_problems):
    """One run with the layer probe and the ``repro.obs`` tracer on."""
    probe = LayerProbe()
    lines = []
    probe.install()
    enable_tracing(lines.append)
    probe.begin()
    try:
        result, wall, stolen = tally.run(work.run, work.check)
    finally:
        probe.end()
        disable_tracing()
        probe.uninstall()
    if result is None:
        return None
    stats = result.stats
    stages = stats.stages
    layers = {
        "engine.index_build_s": probe.index_build_s,
        "engine.snapshot_s": probe.snapshot_s,
        "engine.discovery_s": sum(s.discovery_seconds for s in stages),
        "engine.dedup_s": sum(s.dedup_seconds for s in stages),
        "engine.fire_s": sum(s.fire_seconds for s in stages),
    }
    unattributed = wall - sum(layers.values())
    trace = summarize_trace(lines)
    span_seconds = {name: total for name, (_, total) in trace.spans.items()}
    checks = {
        # Layers are disjoint, so together they may not exceed the wall.
        "layers exceed wall": unattributed < -0.05 * wall,
        "trace fire spans disagree with stats": abs(
            span_seconds.get("chase.fire", 0.0) - layers["engine.fire_s"]
        ) > 0.05 * wall,
        "trace discover spans disagree with stats": abs(
            span_seconds.get("chase.discover", 0.0)
            - layers["engine.discovery_s"]
            - layers["engine.dedup_s"]
        ) > 0.05 * wall,
        "trace fired != stats fired": trace.fired != stats.fired,
        "stats fired != provenance steps": stats.fired != len(result.provenance),
        "trace stages != stats stages": trace.stages != stats.stages_run,
        "index builds != 1": probe.indexes_built != 1,
    }
    ledger_problems.extend(name for name, failed in checks.items() if failed)
    plan = stats.plan_cache
    lookups = plan.get("hits", 0) + plan.get("stale_hits", 0) + plan.get("misses", 0)
    values = dict(layers)
    values.update({
        "engine.unattributed_s": unattributed,
        "engine.fired": stats.fired,
        "engine.fire_ratio": stats.fired / max(stats.deduped, 1),
        "engine.candidates": stats.candidates,
        "engine.deduped": stats.deduped,
        "engine.snapshot_atoms": sum(len(s) for s in result.stage_snapshots),
        "runtime.gc_s": probe.gc_s,
        "runtime.gc_collections": probe.gc_collections,
        "parallel.faults_detected": stats.faults.get("detected", 0),
        "parallel.faults_retried": stats.faults.get("retried", 0),
        "parallel.faults_degraded": stats.faults.get("degraded", 0),
        "query.plan_hit_ratio": (
            (plan.get("hits", 0) + plan.get("stale_hits", 0)) / lookups
            if lookups else 0.0
        ),
        "query.trie_builds": stats.trie_cache.get("builds", 0),
        "query.indexes_built": probe.indexes_built,
        "ledger.unattributed_share": unattributed / wall,
    })
    return wall - stolen, values


def measure_traced(work_factory, seed, seconds, tally, ledger_problems):
    """Per-layer metrics: traced runs interleaved with untraced ones.

    Pairs alternate which run goes first; the traced/untraced median ratio
    is the tracing overhead.  Per-run layer values are reported as medians.
    """
    spawn_probe = LayerProbe()
    spawn_probe.install()
    try:
        work = work_factory(seed)
    finally:
        spawn_probe.uninstall()
    try:
        _warm_up(work, tally)
        traced_times, plain_times, per_run = [], [], []
        started = CLOCK()
        pair = 0
        while CLOCK() - started < seconds or pair < MIN_RUNS:
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                gc.collect()
                if traced:
                    outcome = _traced_run(work, tally, ledger_problems)
                    if outcome is not None:
                        traced_times.append(outcome[0])
                        per_run.append(outcome[1])
                else:
                    result, wall, stolen = tally.run(work.run, work.check)
                    del result
                    plain_times.append(wall - stolen)
            pair += 1
        metrics = {
            name: median([values[name] for values in per_run])
            for name in per_run[0]
        } if per_run else {}
        fault_totals = {
            name: sum(values[name] for values in per_run)
            for name in (
                "parallel.faults_detected",
                "parallel.faults_retried",
                "parallel.faults_degraded",
            )
        }
        if any(fault_totals.values()):
            ledger_problems.append(f"parallel discovery faulted: {fault_totals}")
        metrics.update(fault_totals)
        metrics["parallel.worker_rss_mb"] = max(
            (vmhwm_mb(pid) for pid in work.worker_pids()), default=0.0
        )
        metrics["parallel.pool_spawn_s"] = spawn_probe.pool_spawn_s
        metrics["trace.overhead_ratio"] = median(traced_times) / median(plain_times)
        metrics["ledger.samples"] = len(per_run)
        return metrics
    finally:
        work.close()
