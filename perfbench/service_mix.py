"""service-mix: ``repro serve`` in a child process, one closed-loop client.

The client sends the seeded episode of :func:`inputs.service_episode` over
one keep-alive :class:`repro.service.ServiceClient` connection, waiting for
each reply before the next request, and repeats the episode until the
measured time is up.  Every response must be 2xx and report the atom or
answer count the benchmark's own mirror of the facts predicts.
"""

import json
import os
import signal
import subprocess
import sys

from repro.obs.exposition import parse_exposition, sample_value
from repro.obs.report import summarize_trace
from repro.service import ServiceAPIError, ServiceClient

import inputs
from probes import CLOCK, median, p90, stolen_s, vmhwm_mb

#: Server start-ups measured for ``setup_s``; the last one is kept.
SETUP_SAMPLES = 5

#: The kinds of operation an episode sends.
KINDS = ("load", "chase", "query", "extend")


class Server:
    """One ``repro serve`` child process and a client connected to it."""

    def __init__(self, root, access_log=None):
        """Telemetry is on only with *access_log*, the path it is written to."""
        if access_log is None:
            extra = ["--no-telemetry"]
        else:
            extra = ["--access-log", access_log, "--trace-ring", "1000000"]
        self.access_log = access_log
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", *extra],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        banner = self.process.stdout.readline()
        if "listening on" not in banner:
            self.close()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.client = ServiceClient.from_url(banner.split("listening on ")[1].split()[0])
        self.sent = 0
        self.session = None
        self.setup_fired = 0

    def call(self, method, *args):
        self.sent += 1
        return getattr(self.client, method)(*args)

    def prepare(self, base_facts):
        """Open the session, load the base chain and chase it once."""
        self.session = self.call("create_session", "mix")["id"]
        self.call("load", self.session, "base", base_facts)
        reply = self.call("chase", self.session, "base", list(inputs.MIX_RULES))
        self.setup_fired = reply["stats"]["fired"]

    def close(self):
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class Episodes:
    """Runs episodes against one server and keeps per-operation samples."""

    def __init__(self, server, ops, tally):
        self.server = server
        self.ops = ops
        self.tally = tally
        #: Client latency per kind, less hypervisor steal.
        self.latency = {kind: [] for kind in KINDS}
        #: Episode times, less hypervisor steal.
        self.times = []
        #: ``(kind, client wall seconds, trace id)`` per request, for the ledger.
        self.requests = []
        self.chase_stats = []
        self.last_context = None

    def run(self):
        server, session = self.server, self.server.session
        rules = list(inputs.MIX_RULES)
        episode_stolen = stolen_s()
        episode_started = CLOCK()
        for kind, argument, expected in self.ops:
            self.tally.attempted += 1
            stolen = stolen_s()
            started = CLOCK()
            try:
                if kind == "query":
                    reply = server.call("query", session, "base::chased", argument)
                elif kind == "chase":
                    reply = server.call("chase", session, "base", rules)
                elif kind == "extend":
                    reply = server.call("extend", session, "base", argument)
                else:
                    reply = server.call("load", session, "base", argument)
            except ServiceAPIError as error:
                print(f"{kind} refused: {error}", file=sys.stderr)
                self.tally.failed += 1
                continue
            elapsed = CLOCK() - started
            self.latency[kind].append(elapsed - (stolen_s() - stolen))
            self.requests.append((kind, elapsed, server.client.last_trace_id))
            got = reply["count"] if kind == "query" else reply["atoms"]
            if got != expected:
                print(f"{kind}: expected {expected}, got {got}", file=sys.stderr)
                self.tally.failed += 1
            if kind == "chase":
                self.chase_stats.append(reply["stats"])
            elif kind == "query":
                self.last_context = reply["context"]
        self.times.append(CLOCK() - episode_started - (stolen_s() - episode_stolen))


def _setup_samples(root, base_facts, tally):
    """``(setup seconds, kept server)``: several start-ups, the last kept."""
    samples = []
    server = None
    for _ in range(SETUP_SAMPLES):
        if server is not None:
            server.close()
        stolen = stolen_s()
        started = CLOCK()
        server = Server(root)
        tally.attempted += 1
        server.prepare(base_facts)
        samples.append(CLOCK() - started - (stolen_s() - stolen))
    return median(samples), server


def _run_episodes(runners, seconds):
    started = CLOCK()
    turn = 0
    while CLOCK() - started < seconds or turn < 2:
        # Pairs alternate which server goes first.
        order = runners if turn % 2 == 0 else runners[::-1]
        for runner in order:
            runner.run()
        turn += 1


def measure(root, seed, seconds, tally):
    """The end-to-end metrics of the service mix."""
    base_facts, ops = inputs.service_episode(seed)
    setup_s, server = _setup_samples(root, base_facts, tally)
    try:
        Episodes(server, ops, tally).run()  # warm-up, not timed
        episodes = Episodes(server, ops, tally)
        _run_episodes([episodes], seconds)
        peak = vmhwm_mb(server.process.pid)
    finally:
        server.close()
    completed = sum(len(samples) for samples in episodes.latency.values())
    return {
        "setup_s": (setup_s, "s"),
        "chase_s": (median(episodes.latency["chase"]), "s"),
        "ops_per_s": (completed / sum(episodes.times), "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }


def _traced_layers(server, traced, ledger_problems):
    """Per-layer metrics read from the traced server's telemetry."""
    client = server.client
    sent = server.sent
    samples = parse_exposition(client.metrics_text())
    stats = client.server_stats()
    ring = client.server_trace()
    with open(server.access_log, encoding="utf-8") as handle:
        log = [json.loads(line) for line in handle if line.strip()]

    artifact_routes = {"metrics", "server_stats", "server_trace"}
    log = [entry for entry in log if entry["route"] not in artifact_routes]
    spans = 0
    for line in ring.splitlines():
        record = json.loads(line)
        if (
            record["type"] == "B"
            and record["name"] == "service.request"
            and record.get("route") not in artifact_routes
        ):
            spans += 1
    counted = int(sample_value(samples, "repro_requests_total"))
    if not len(log) == counted == spans == sent:
        ledger_problems.append(
            f"request ledgers disagree: access log {len(log)}, /metrics "
            f"{counted}, trace {spans}, client {sent}"
        )
    if sample_value(samples, "repro_trace_ring_dropped_total"):
        ledger_problems.append("trace ring dropped lines")

    by_trace = {entry["trace"]: entry for entry in log}
    server_s = {kind: [] for kind in KINDS}
    response_kb = {kind: [] for kind in KINDS}
    transport = []
    wall = 0.0
    for kind, elapsed, trace_id in traced.requests:
        entry = by_trace.get(trace_id)
        if entry is None:
            ledger_problems.append(f"request {trace_id} missing from the access log")
            continue
        server_s[kind].append(entry["seconds"])
        response_kb[kind].append(entry["bytes_out"] / 1024.0)
        transport.append(elapsed - entry["seconds"])
        wall += elapsed

    def session_total(name):
        return sample_value(samples, f"repro_session_{name}")

    lock_s = session_total("service_lock_wait_seconds_sum")
    lock_n = session_total("service_lock_wait_seconds_count")
    exec_s = session_total("service_query_wall_seconds_total")
    exec_n = session_total("service_query_wall_runs_total")
    measured_chases = traced.chase_stats
    engine_s = sum(stat["wall_seconds"] for stat in measured_chases)
    # What is left is the server's own request handling: routing, JSON,
    # session bookkeeping and writing the reply.
    unattributed = wall - sum(transport) - lock_s - exec_s - engine_s
    # The server stops its clock after writing the reply, so a single small
    # request can read a few microseconds longer on the server than on the
    # client; only the totals must nest.
    if sum(transport) < -0.05 * wall or unattributed < -0.05 * wall:
        ledger_problems.append("service layers exceed client wall time")

    trace = summarize_trace(ring.splitlines())
    fired_total = sum(stat["fired"] for stat in measured_chases)
    if trace.fired != fired_total + server.setup_fired:
        ledger_problems.append(
            f"trace fired {trace.fired} != chase responses "
            f"{fired_total + server.setup_fired}"
        )

    def per_chase(key):
        return median([stat[key] for stat in measured_chases])

    def stage_sum(stat, key):
        return sum(stage[key] for stage in stat["per_stage"])

    chase_engine = [stat["wall_seconds"] for stat in measured_chases]
    fire = [stage_sum(stat, "fire_seconds") for stat in measured_chases]
    discovery = [stage_sum(stat, "discovery_seconds") for stat in measured_chases]
    dedup = [stage_sum(stat, "dedup_seconds") for stat in measured_chases]
    pool = stats["sessions_detail"][0]["engine_pool"]
    context = traced.last_context or {}
    plans = context.get("plans_reused", 0) + context.get("plans_compiled", 0)
    return {
        "engine.fire_s": median(fire),
        "engine.discovery_s": median(discovery),
        "engine.dedup_s": median(dedup),
        "engine.unattributed_s": median([
            w - f - d - s
            for w, f, d, s in zip(chase_engine, fire, discovery, dedup)
        ]),
        "engine.fired": per_chase("fired"),
        "engine.candidates": per_chase("candidates"),
        "engine.deduped": per_chase("deduped"),
        "engine.fire_ratio": per_chase("fired") / max(per_chase("deduped"), 1),
        "query.plan_hit_ratio": (
            context.get("plans_reused", 0) / plans if plans else 0.0
        ),
        "query.indexes_built": context.get("indexes_built", 0),
        "query.exec_mean_ms": 1000.0 * exec_s / exec_n if exec_n else 0.0,
        "service.server_p50_ms.query": 1000.0 * median(server_s["query"]),
        "service.server_p50_ms.extend": 1000.0 * median(server_s["extend"]),
        "service.server_p50_ms.chase": 1000.0 * median(server_s["chase"]),
        "service.transport_p50_ms": 1000.0 * median(transport),
        "service.lock_wait_ms": 1000.0 * lock_s / lock_n if lock_n else 0.0,
        "service.response_kb.query": median(response_kb["query"]),
        "service.response_kb.chase": median(response_kb["chase"]),
        "service.engines_built": pool["built"],
        "service.engines_reused": pool["reused"],
        "service.chase_engine_ms": 1000.0 * median(chase_engine),
        "ledger.unattributed_share": unattributed / wall,
        "ledger.samples": len(traced.requests),
    }


def measure_traced(root, workdir, seed, seconds, tally, ledger_problems):
    """Per-layer metrics: a traced and an untraced server, episodes alternating."""
    base_facts, ops = inputs.service_episode(seed)
    access_log = os.path.join(workdir, "access.log")
    servers = []
    try:
        traced_server = Server(root, access_log)
        servers.append(traced_server)
        plain_server = Server(root)
        servers.append(plain_server)
        for server in servers:
            tally.attempted += 1
            server.prepare(base_facts)
        traced = Episodes(traced_server, ops, tally)
        plain = Episodes(plain_server, ops, tally)
        _run_episodes([traced, plain], seconds)
        metrics = _traced_layers(traced_server, traced, ledger_problems)
    finally:
        for server in servers:
            server.close()
    reads = plain.latency["query"]
    metrics.update({
        "client.read_p50_ms": 1000.0 * median(reads),
        "client.read_p90_ms": 1000.0 * p90(reads) if len(reads) >= 100 else 0.0,
        "client.write_p50_ms": 1000.0 * median(plain.latency["extend"]),
        "client.chase_p50_ms": 1000.0 * median(plain.latency["chase"]),
        "trace.overhead_ratio": median(traced.times) / median(plain.times),
    })
    return metrics
