"""The per-layer metrics of the traced run: names, units and directions.

Every traced run reports every metric.  A layer a workload never enters
reads 0: the chase workloads start no server, service-mix's engine runs in
the server process, where the benchmark's wrappers and ``gc`` hooks cannot
reach, and only chase-wide has a worker pool.  ``perfbench/README.md`` says
which end-to-end metric each one should move.
"""

PER_LAYER = (
    ("engine.fire_s", "s", "lower"),
    ("engine.fired", "count", "lower"),
    ("engine.fire_ratio", "ratio", "higher"),
    ("engine.snapshot_s", "s", "lower"),
    ("engine.snapshot_atoms", "count", "lower"),
    ("engine.discovery_s", "s", "lower"),
    ("engine.dedup_s", "s", "lower"),
    ("engine.candidates", "count", "lower"),
    ("engine.deduped", "count", "lower"),
    ("engine.index_build_s", "s", "lower"),
    ("engine.unattributed_s", "s", "lower"),
    ("runtime.gc_s", "s", "lower"),
    ("runtime.gc_collections", "count", "lower"),
    ("parallel.faults_detected", "count", "lower"),
    ("parallel.faults_retried", "count", "lower"),
    ("parallel.faults_degraded", "count", "lower"),
    ("parallel.worker_rss_mb", "MB", "lower"),
    ("parallel.pool_spawn_s", "s", "lower"),
    ("query.plan_hit_ratio", "ratio", "higher"),
    ("query.trie_builds", "count", "lower"),
    ("query.indexes_built", "count", "lower"),
    ("query.exec_mean_ms", "ms", "lower"),
    ("service.server_p50_ms.query", "ms", "lower"),
    ("service.server_p50_ms.extend", "ms", "lower"),
    ("service.server_p50_ms.chase", "ms", "lower"),
    ("service.transport_p50_ms", "ms", "lower"),
    ("service.lock_wait_ms", "ms", "lower"),
    ("service.response_kb.query", "KiB", "lower"),
    ("service.response_kb.chase", "KiB", "lower"),
    ("service.engines_built", "count", "lower"),
    ("service.engines_reused", "count", "higher"),
    ("service.chase_engine_ms", "ms", "lower"),
    ("client.read_p50_ms", "ms", "lower"),
    ("client.read_p90_ms", "ms", "lower"),
    ("client.write_p50_ms", "ms", "lower"),
    ("client.chase_p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("ledger.unattributed_share", "ratio", "lower"),
    ("ledger.samples", "count", "higher"),
)


def complete(values):
    """``{name: (value, unit)}`` for every per-layer metric, 0 where unmeasured."""
    unknown = set(values) - {name for name, _, _ in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics missing from the per-layer table: {sorted(unknown)}")
    return {name: (values.get(name, 0), unit) for name, unit, _ in PER_LAYER}
