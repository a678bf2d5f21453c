"""Observability layer: no-op discipline, tracing, stats, EXPLAIN (ISSUE 6).

The two invariants this module pins are the ones the telemetry layer is
allowed to exist by:

* **free when off** — with no registry and no tracer, every handle lookup
  returns a *shared* no-op singleton (identity-asserted, not just equality),
  so instrumented hot paths cost one global read;
* **inert when on** — telemetry observes, it never steers: a traced and
  metered chase must stay bit-identical (atoms, domain order, provenance
  sequence) to an untraced one, serially and with parallel workers, while
  the three accountings (trace summariser, ``result.stats``, the provenance
  record) agree on every count.
"""

import json

import pytest

import repro.obs as obs
from repro.chase import chase, parse_tgds
from repro.core.atoms import Atom
from repro.core.builders import structure_from_text
from repro.core.structure import Structure
from repro.core.terms import Variable
from repro.engine import run_chase
from repro.engine.seminaive import SemiNaiveChaseEngine
from repro.engine.shm import SHM_AVAILABLE
from repro.obs import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_SPAN,
    NULL_TIMER,
    MetricsRegistry,
    Tracer,
    summarize_trace,
)
from repro.obs.__main__ import main as obs_cli
from repro.query.context import EvalContext

from chase_bits import assert_bit_identical
from executors import pinned_executor

TC_RULES = ("R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)")


@pytest.fixture(autouse=True)
def _obs_disabled_after():
    """Telemetry globals never leak between tests (or into other modules)."""
    yield
    obs.disable()
    obs.disable_tracing()


class FakeClock:
    """Ticks one unit per read — every duration becomes exactly countable."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _chain(length):
    return structure_from_text(
        ", ".join(f"R({i},{i + 1})" for i in range(length))
    )


# ----------------------------------------------------------------------
# Metrics: disabled singletons and live registry
# ----------------------------------------------------------------------
def test_disabled_lookups_return_shared_noop_singletons():
    assert obs.active() is None
    assert obs.get_tracer() is None
    # Identity, not equality: the overhead guarantee is "no allocation, no
    # per-name state" on the disabled path.
    assert obs.counter("a") is obs.counter("b") is NULL_COUNTER
    assert obs.gauge("a") is obs.gauge("b") is NULL_GAUGE
    assert obs.timer("a") is obs.timer("b") is NULL_TIMER
    NULL_COUNTER.inc()
    NULL_COUNTER.inc(5)
    NULL_GAUGE.set(7)
    NULL_GAUGE.max(9)
    NULL_TIMER.add(1.5)
    with NULL_TIMER.time():
        pass
    with NULL_SPAN as span:
        span.note(ignored=True)
    assert NULL_COUNTER.value == 0
    assert NULL_GAUGE.value == 0
    assert NULL_TIMER.seconds == 0.0 and NULL_TIMER.count == 0
    assert obs.snapshot() == {}


def test_registry_instruments_accumulate_and_snapshot():
    clock = FakeClock()
    registry = obs.enable(MetricsRegistry(clock=clock))
    assert obs.active() is registry
    assert obs.counter("chase.x") is registry.counter("chase.x")
    obs.counter("chase.x").inc()
    obs.counter("chase.x").inc(4)
    obs.gauge("depth").set(3)
    obs.gauge("depth").max(9)
    obs.gauge("depth").max(2)  # below the high-water mark: kept at 9
    with obs.timer("work").time():
        pass  # fake clock: enter=1, exit=2 -> exactly 1.0s
    obs.timer("work").add(0.5)
    assert obs.snapshot() == {
        "chase.x": 5,
        "depth": 9,
        "work": {"seconds": 1.5, "count": 2},
    }
    registry.reset()
    assert obs.snapshot() == {}
    obs.disable()
    assert obs.active() is None
    assert obs.counter("chase.x") is NULL_COUNTER


# ----------------------------------------------------------------------
# Histogram: buckets, quantiles, thread safety
# ----------------------------------------------------------------------
def test_log_buckets_are_geometric_and_validated():
    assert obs.log_buckets(1.0, 8.0, 2.0) == (1.0, 2.0, 4.0, 8.0)
    assert obs.LATENCY_BUCKETS[0] == pytest.approx(1e-6)
    assert obs.LATENCY_BUCKETS[-1] <= 70.0
    with pytest.raises(ValueError):
        obs.log_buckets(0.0, 8.0)
    with pytest.raises(ValueError):
        obs.log_buckets(1.0, 8.0, factor=1.0)
    with pytest.raises(ValueError):
        obs.Histogram((3.0, 1.0))


def test_histogram_le_buckets_quantiles_and_snapshot():
    histogram = obs.Histogram((1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 50.0, 500.0):
        histogram.observe(value)
    # le semantics: a value equal to a bound lands in that bound's bucket;
    # values past the last bound go to the +Inf overflow bucket.
    assert histogram.buckets() == (
        (1.0, 2), (10.0, 3), (100.0, 4), (float("inf"), 5),
    )
    assert histogram.count == 5 and histogram.sum == pytest.approx(556.5)
    # Prometheus-style estimate: upper bound of the first bucket reaching
    # the rank; the +Inf bucket reports the last finite bound.
    assert histogram.quantile(0.5) == 10.0
    assert histogram.quantile(0.99) == 100.0
    snap = histogram.snapshot()
    assert snap["count"] == 5 and snap["p50"] == 10.0
    # Empty histograms answer 0 everywhere.
    assert obs.Histogram((1.0,)).quantile(0.5) == 0.0
    assert obs.quantile_from_cumulative((), 0.5) == 0.0


def test_histogram_thread_hammer_and_snapshot_monotonicity():
    import threading as _threading

    histogram = obs.Histogram((0.25, 0.5, 1.0))
    threads_n, per_thread = 8, 2_000
    seen_counts = []

    def hammer(seed):
        for i in range(per_thread):
            histogram.observe(((seed * per_thread + i) % 7) * 0.2)
            if i % 500 == 0:
                buckets = histogram.buckets()
                # A consistent cut: cumulative counts never decrease across
                # buckets and the overflow total equals the running count.
                assert all(
                    buckets[j][1] <= buckets[j + 1][1]
                    for j in range(len(buckets) - 1)
                )
                seen_counts.append(buckets[-1][1])

    workers = [
        _threading.Thread(target=hammer, args=(seed,))
        for seed in range(threads_n)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert histogram.count == threads_n * per_thread
    assert histogram.buckets()[-1][1] == threads_n * per_thread
    assert histogram.sum == pytest.approx(
        sum(((s * per_thread + i) % 7) * 0.2
            for s in range(threads_n) for i in range(per_thread))
    )


def test_registry_and_module_histogram_handles():
    assert obs.histogram("lat") is obs.NULL_HISTOGRAM
    obs.NULL_HISTOGRAM.observe(3.0)
    assert obs.NULL_HISTOGRAM.count == 0
    assert obs.NULL_HISTOGRAM.buckets() == ()
    assert obs.NULL_HISTOGRAM.quantile(0.5) == 0.0
    registry = obs.enable(MetricsRegistry())
    handle = obs.histogram("lat", bounds=(1.0, 2.0))
    assert handle is registry.histogram("lat")
    handle.observe(1.5)
    snap = obs.snapshot()
    assert snap["lat"]["count"] == 1
    registry.reset()
    assert registry.histograms == {}
    obs.disable()


# ----------------------------------------------------------------------
# Tracer: deterministic ids, nesting, wire schema
# ----------------------------------------------------------------------
def test_span_tree_ids_nesting_and_end_attributes():
    lines = []
    tracer = Tracer(lines.append, clock=FakeClock())
    with tracer.span("outer", kind="run") as outer:
        tracer.event("ping", n=1)
        with tracer.span("inner") as inner:
            inner.note(count=3)
        outer.note(ok=True)
    records = [json.loads(line) for line in lines]
    assert [r["type"] for r in records] == ["B", "I", "B", "E", "E"]
    assert [r["name"] for r in records] == [
        "outer", "ping", "inner", "inner", "outer",
    ]
    # Consecutive ids in emission order; parents follow the open-span stack.
    assert records[0]["id"] == 1 and records[0]["in"] == 0
    assert records[1]["in"] == 1  # the event nests under the open span
    assert records[2]["id"] == 2 and records[2]["in"] == 1
    assert records[3]["id"] == 2 and records[4]["id"] == 1
    # Begin attrs ride the B line; note() attrs ride the matching E line.
    assert records[0]["kind"] == "run" and "kind" not in records[4]
    assert records[3]["count"] == 3
    assert records[4]["ok"] is True
    # The injected clock ticks once per read: fully deterministic times.
    assert [r["t"] for r in records] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert records[3]["dur"] == 1.0 and records[4]["dur"] == 4.0


def test_reserved_keys_are_prefixed_not_clobbered():
    lines = []
    tracer = Tracer(lines.append, clock=FakeClock())
    tracer.event("evt", type="weird", dur=9, id=4, payload=object())
    record = json.loads(lines[0])
    assert record["type"] == "I" and record["name"] == "evt"
    assert record["attr_type"] == "weird"
    assert record["attr_dur"] == 9 and record["attr_id"] == 4
    assert record["payload"].startswith("<object object")  # default=repr


def test_two_identical_span_trees_differ_only_in_time():
    def run_once():
        lines = []
        tracer = Tracer(lines.append)  # real clock on purpose
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.event("e", k=1)
        return [json.loads(line) for line in lines]

    def strip_time(records):
        return [
            {k: v for k, v in r.items() if k not in ("t", "dur")}
            for r in records
        ]

    assert strip_time(run_once()) == strip_time(run_once())


def test_summarizer_round_trips_emitted_lines():
    lines = []
    tracer = Tracer(lines.append, clock=FakeClock())
    with tracer.span("chase.stage"):
        tracer.event("query.plan.miss", reason="absent")
    with tracer.span("chase.stage") as stage:
        stage.note(candidates=7, fired=5, new_atoms=5, nulls_created=2)
        tracer.event("parallel.worker", worker=0, wire_bytes=120)
        tracer.event("parallel.worker", worker=1, wire_bytes=80)
    summary = summarize_trace(lines)
    assert summary.lines == len(lines) and summary.malformed == 0
    count, total = summary.spans["chase.stage"]
    # Every clock read ticks once: span 1 spans reads 1..3 (dur 2), span 2
    # reads 4..7 with two event reads inside (dur 3).
    assert count == 2 and total == pytest.approx(5.0)
    assert summary.events == {"query.plan.miss": 1, "parallel.worker": 2}
    assert summary.stages == 2
    assert (summary.candidates, summary.fired) == (7, 5)
    assert (summary.new_atoms, summary.nulls_created) == (5, 2)
    assert summary.wire_bytes == 200
    assert "chase: 2 stages" in summary.render()
    # Garbage lines are counted, never fatal.
    broken = summarize_trace(["not json", json.dumps({"no": "name"}), ""])
    assert broken.lines == 2 and broken.malformed == 2


def test_tracer_owns_path_sinks_and_module_state(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = obs.enable_tracing(path, clock=FakeClock())
    assert obs.get_tracer() is tracer
    with tracer.span("chase.run"):
        tracer.event("index.rebuild")
    obs.disable_tracing()
    assert obs.get_tracer() is None
    summary = summarize_trace(path)
    assert summary.spans["chase.run"][0] == 1
    assert summary.events == {"index.rebuild": 1}


def test_cli_summarize_emits_text_and_json(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    tracer = obs.enable_tracing(path, clock=FakeClock())
    with tracer.span("chase.stage") as stage:
        stage.note(candidates=3, fired=2, new_atoms=2, nulls_created=0)
    obs.disable_tracing()
    assert obs_cli(["summarize", path]) == 0
    assert "chase: 1 stages" in capsys.readouterr().out
    assert obs_cli(["summarize", path, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["fired"] == 2 and payload["stages"] == 1
    assert payload["spans"]["chase.stage"]["count"] == 1


def test_cli_summarize_reads_stdin_and_filters_by_trace_id(
    monkeypatch, capsys
):
    lines = []
    tracer = Tracer(lines.append, clock=FakeClock())
    tracer.set_trace_id("req-a")
    with tracer.span("service.request"):
        tracer.event("query.plan.miss")
    tracer.set_trace_id("req-b")
    with tracer.span("service.request"):
        with tracer.span("chase.run"):
            pass
    tracer.set_trace_id(None)
    tracer.event("index.rebuild")  # unstamped line

    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    assert obs_cli(["summarize", "-", "--trace-id", "req-b", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # All lines are read (and counted), but only req-b's tree is folded in.
    assert payload["lines"] == len(lines)
    assert payload["spans"] == {
        "chase.run": {"count": 1, "seconds": pytest.approx(1.0)},
        "service.request": {"count": 1, "seconds": pytest.approx(3.0)},
    }
    assert payload["events"] == {}

    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    assert obs_cli(["summarize", "-", "--json"]) == 0
    unfiltered = json.loads(capsys.readouterr().out)
    assert unfiltered["spans"]["service.request"]["count"] == 2
    assert unfiltered["events"] == {"query.plan.miss": 1, "index.rebuild": 1}


# ----------------------------------------------------------------------
# The engine under telemetry: bit-identity and count consistency
# ----------------------------------------------------------------------
def test_traced_and_metered_chase_is_bit_identical_serial():
    tgds = parse_tgds(*TC_RULES)
    instance = _chain(12)
    baseline = run_chase(tgds, instance, 50, 50_000)

    lines = []
    obs.enable()
    obs.enable_tracing(lines.append)
    traced = run_chase(tgds, instance, 50, 50_000)
    metrics = obs.snapshot()
    obs.disable_tracing()
    obs.disable()

    assert_bit_identical(baseline, traced)
    # The three ledgers agree: trace summary == stats == provenance record.
    stats = traced.stats
    summary = summarize_trace(lines)
    fired = len(traced.provenance)
    assert stats is not None and stats.fired == fired
    assert summary.fired == fired
    # stats/trace also record the closing stage that only confirms fixpoint,
    # which the chase report's stages_run does not count.
    assert summary.stages == stats.stages_run == traced.stages_run + 1
    assert summary.new_atoms == stats.new_atoms
    assert summary.candidates == stats.candidates
    assert metrics["engine.triggers_fired"] == fired
    assert metrics["engine.stages"] == stats.stages_run
    assert summary.malformed == 0
    assert summary.spans["chase.run"][0] == 1


@pytest.mark.skipif(
    not SHM_AVAILABLE, reason="multiprocessing.shared_memory unavailable"
)
def test_traced_chase_is_bit_identical_with_two_workers():
    tgds = parse_tgds(*TC_RULES)
    instance = _chain(12)
    baseline = run_chase(tgds, instance, 50, 50_000)

    lines = []
    obs.enable()
    obs.enable_tracing(lines.append)
    traced = run_chase(tgds, instance, 50, 50_000, workers=2)
    obs.disable_tracing()
    obs.disable()

    assert_bit_identical(baseline, traced)
    summary = summarize_trace(lines)
    assert summary.fired == len(traced.provenance) == traced.stats.fired
    # The parallel layer leaves its own fingerprints: one discover span per
    # stage and per-worker slice events with wire sizes.
    assert summary.spans["parallel.discover"][0] == traced.stats.stages_run
    assert summary.events["parallel.worker"] >= traced.stages_run
    assert summary.wire_bytes > 0


def test_collect_stats_flag_and_forced_collection():
    tgds = parse_tgds(*TC_RULES)
    instance = _chain(8)
    bare = SemiNaiveChaseEngine(
        tgds, max_stages=50, max_atoms=50_000, collect_stats=False
    )
    assert bare.run(instance).stats is None
    # A tracer forces collection back on: its consumers need the numbers.
    obs.enable_tracing([].append)
    forced = bare.run(instance)
    obs.disable_tracing()
    assert forced.stats is not None and forced.stats.fired > 0
    # The reference engine never collects stats.
    assert chase(tgds, instance, 50, 50_000).stats is None


def test_chase_run_stats_totals_table_and_dict():
    tgds = parse_tgds(*TC_RULES)
    result = run_chase(tgds, _chain(10), 50, 50_000)
    stats = result.stats
    assert stats is not None
    assert stats.fired == len(result.provenance)
    assert stats.new_atoms == sum(len(p.new_atoms) for p in result.provenance)
    assert stats.deduped == sum(s.deduped for s in stats.stages)
    # The final (empty) fixpoint stage is part of the record.
    assert stats.stages[-1].candidates == 0
    assert all(s.delta_window > 0 for s in stats.stages)
    rendered = stats.render()
    assert "chase run: engine=seminaive" in rendered
    assert "plan cache:" in rendered and "index: watermark" in rendered
    payload = stats.as_dict()
    assert payload["fired"] == stats.fired
    assert len(payload["per_stage"]) == stats.stages_run
    assert json.dumps(payload)  # JSON-ready, nothing exotic inside


# ----------------------------------------------------------------------
# EXPLAIN
# ----------------------------------------------------------------------
X, Y, Z = Variable("x"), Variable("y"), Variable("z")
TRIANGLE = [Atom("R", (X, Y)), Atom("R", (Y, Z)), Atom("R", (Z, X))]


def test_explain_cyclic_body_upgrades_to_wcoj():
    atoms = [
        Atom("R", (f"n{i}", f"n{(i * 7 + j) % 60}"))
        for i in range(60)
        for j in (1, 3, 9)
    ]
    target = Structure(atoms)
    context = EvalContext()
    text = obs.explain(target, TRIANGLE, context=context)
    assert "executor: wcoj" in text
    assert "body is cyclic" in text
    assert "upgrades to the generic join" in text
    assert "wcoj variable order" in text
    assert "x(2) -> y(2) -> z(2)" in text
    # A second explain hits the plan cache it just warmed.
    again = obs.explain(target, TRIANGLE, context=context)
    assert "1 hits" in again


def test_explain_acyclic_body_stays_on_binary_joins():
    target = structure_from_text("R(0,1), R(1,2), R(2,3)")
    path = [Atom("R", (X, Y)), Atom("R", (Y, Z))]
    text = obs.explain(target, path, context=EvalContext())
    assert "executor: nested" in text
    assert "body is acyclic" in text
    assert "plan (most-constrained-first join order):" in text
    assert "window=all" in text


def test_explain_accepts_tgd_bodies_and_reports_a_pinned_executor():
    tgd = parse_tgds("R(x,y), R(y,z) -> S(x,z)")[0]
    target = structure_from_text("R(0,1), R(1,2)")
    text = obs.explain(target, tgd, context=EvalContext())
    assert "executor: nested" in text
    assert "2 atoms over 2 atoms" in text
    # explain asks the same policy evaluation does, so a pin shows up.
    with pinned_executor("hash"):
        text = obs.explain(target, tgd, context=EvalContext())
    assert "executor: hash" in text
