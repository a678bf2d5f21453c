"""The chase service: sessions, HTTP surface, isolation, teardown.

Covers the service stack end to end over real sockets (``port=0``):

* session lifecycle — create → load → extend → chase → evict — with the
  teardown contract pinned: every structure's index is handed back
  (``forget``), keep-alive pools are closed (no leaked children), and the
  parallel transport's ``/dev/shm`` segments are gone;
* typed-error → HTTP-status mapping (400/404/410/429);
* MAAS-style total/used/available accounting at both surfaces (sessions on
  the manager, atoms on the session);
* the cross-session shape cache: identical rule text → identical TGD
  objects → keep-alive pool reuse across requests;
* the concurrency smoke: N client threads × M sessions, interleaved
  chase/query, every session's results bit-identical to a single-session
  serial run of the same workload.
"""

import glob
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.chase.tgd import parse_tgds
from repro.core.builders import parse_cq, structure_from_text
from repro.engine import run_chase
from repro.query.context import EvalContext
from repro.query.evaluator import evaluate
from repro.service import (
    CapacityError,
    ReproServer,
    ServiceAPIError,
    ServiceClient,
    SessionClosedError,
    SessionManager,
    UnknownSessionError,
)
from repro.service.server import _status_for

RULE = "R(x,y) -> S(y,w)"
QUERY = "q(x,y) :- R(x,z), S(z,y)"


def _repro_segments():
    return set(glob.glob("/dev/shm/repro-*"))


def _wait_for_no_children(timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked children: {multiprocessing.active_children()}")


@pytest.fixture()
def server():
    with ReproServer(port=0, max_sessions=8) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServiceClient(*server.address) as c:
        yield c


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
def test_session_lifecycle_releases_everything(server, client):
    """create → load → extend → chase(workers=2) → evict leaves nothing."""
    before = _repro_segments()
    sid = client.create_session("lifecycle")["id"]
    client.load(sid, "db", "R(a,b)")
    extended = client.extend(sid, "db", "R(b,c)")
    assert extended["atoms"] == 2

    result = client.chase(sid, "db", [RULE], workers=2)
    assert result["reached_fixpoint"] is True
    assert result["stats"]["workers"] == 2
    assert "faults" in result["stats"]

    session = server.manager.get(sid)
    context = session.context
    assert len(context) >= 1  # the chased index was adopted in-session
    assert len(session._engines) == 1

    client.delete_session(sid)
    assert session.closed
    assert len(context) == 0, "forget() must run for every structure"
    assert session._engines == {}  # keep-alive pools closed on eviction
    with pytest.raises(ServiceAPIError) as exc:
        client.show_session(sid)
    assert exc.value.status == 404

    _wait_for_no_children()
    assert _repro_segments() <= before, "shm segments leaked past eviction"


def test_server_close_closes_live_sessions(server):
    with ServiceClient(*server.address) as client:
        sid = client.create_session()["id"]
        client.load(sid, "db", "R(a,b)")
        client.chase(sid, "db", [RULE], workers=2)
        session = server.manager.get(sid)
    server.close()
    assert session.closed
    assert len(session.context) == 0
    _wait_for_no_children()


def test_closed_session_requests_get_410(server, client):
    sid = client.create_session()["id"]
    session = server.manager.get(sid)
    session.close()
    with pytest.raises(SessionClosedError):
        session.query("db", QUERY)
    assert _status_for(SessionClosedError("gone")) == 410


def test_idle_ttl_sweep_evicts_and_closes():
    clock = [1000.0]
    manager = SessionManager(idle_ttl=30, clock=lambda: clock[0])
    stale = manager.create("stale")
    fresh = manager.create("fresh")
    stale.load_structure("db", "R(a,b)")
    clock[0] += 29
    fresh.touch()
    clock[0] += 2  # stale now 31s idle, fresh 2s
    evicted = manager.sweep()
    assert evicted == [stale.id]
    assert stale.closed and len(stale.context) == 0
    assert not fresh.closed
    with pytest.raises(UnknownSessionError):
        manager.get(stale.id)
    assert manager.get(fresh.id) is fresh
    manager.close()


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------
def test_session_capacity_accounting_is_derived(server, client):
    sid = client.create_session("small", max_atoms=10)["id"]
    loaded = client.load(sid, "db", "R(a,b), R(b,c), R(c,d)")
    acct = loaded["session_atoms"]
    assert acct == {"total": 10, "used": 3, "available": 7}

    with pytest.raises(ServiceAPIError) as exc:
        client.load(sid, "big", ", ".join(f"P(x{i})" for i in range(8)))
    assert exc.value.status == 429
    assert "capacity" in exc.value.message

    # Fill most of the remaining capacity, then a chase whose result copy
    # (>= the 3-atom source) can no longer fit is refused up front.
    client.load(sid, "pad", ", ".join(f"P(x{i})" for i in range(5)))
    with pytest.raises(ServiceAPIError) as exc:
        client.chase(sid, "db", ["R(x,y), R(y,z) -> R(x,z)"], max_atoms=10**6)
    assert exc.value.status == 429
    assert "cannot fit" in exc.value.message


def test_session_pool_capacity(server):
    with ServiceClient(*server.address) as client:
        for i in range(8):
            client.create_session(f"s{i}")
        with pytest.raises(ServiceAPIError) as exc:
            client.create_session("overflow")
        assert exc.value.status == 429
        stats = client.server_stats()
        assert stats["sessions"] == {"total": 8, "used": 8, "available": 0}
        assert stats["errors_total"] >= 1


def test_chase_payload_is_run_stats_as_dict(server, client):
    sid = client.create_session()["id"]
    client.load(sid, "db", "R(a,b), R(b,c)")
    payload = client.chase(sid, "db", [RULE])
    stats = payload["stats"]
    # The documented contract: the response carries result.stats.as_dict().
    for key in ("engine", "strategy", "stages_run", "fired", "new_atoms",
                "plan_cache", "faults", "per_stage"):
        assert key in stats
    assert stats["engine"] == "seminaive"
    assert payload["session_atoms"]["used"] == 2 + payload["atoms"]


# ----------------------------------------------------------------------
# Error mapping
# ----------------------------------------------------------------------
def test_http_error_mapping(server, client):
    with pytest.raises(ServiceAPIError) as exc:
        client.show_session("0123456789ab")
    assert (exc.value.status, exc.value.error_type) == (404, "UnknownSessionError")

    sid = client.create_session()["id"]
    with pytest.raises(ServiceAPIError) as exc:
        client.query(sid, "missing", QUERY)
    assert (exc.value.status, exc.value.error_type) == (404, "UnknownStructureError")

    client.load(sid, "db", "R(a,b)")
    with pytest.raises(ServiceAPIError) as exc:
        client.chase(sid, "db", ["not a rule"])
    assert (exc.value.status, exc.value.error_type) == (400, "TGDError")

    with pytest.raises(ServiceAPIError) as exc:
        client.query(sid, "db", "nonsense")
    assert exc.value.status == 400

    with pytest.raises(ServiceAPIError) as exc:
        client.request("GET", "/no/such/route")
    assert (exc.value.status, exc.value.error_type) == (404, "NoRoute")

    with pytest.raises(ServiceAPIError) as exc:
        client.request("POST", f"/sessions/{sid}/chase", {"structure": "db"})
    assert exc.value.status == 400  # chase with no rules


def test_chase_rejects_bad_worker_counts_before_any_engine(server, client):
    before = _repro_segments()
    sid = client.create_session()["id"]
    client.load(sid, "db", "R(a,b)")
    ceiling = max(2, os.cpu_count() or 1)
    for workers in (True, "2", 2.0, None, -1, ceiling + 1, 100_000):
        with pytest.raises(ServiceAPIError) as exc:
            client.request(
                "POST", f"/sessions/{sid}/chase",
                {"structure": "db", "rules": [RULE], "workers": workers},
            )
        assert (exc.value.status, exc.value.error_type) == (
            400, "BadRequestError"
        ), workers
        assert "workers" in str(exc.value)
    session = server.manager.get(sid)
    assert not session._engines, "an engine was built for a refused chase"
    assert multiprocessing.active_children() == []
    assert _repro_segments() <= before
    # The bounds themselves stay accepted.
    assert client.chase(sid, "db", [RULE], workers=0)["atoms"] == 2


#: ``(route name, path with {session}, one valid body)`` per JSON route.  The
#: first five bodies are the shapes the repository benchmark's client sends.
_ROUTE_BODIES = [
    ("create_session", "/sessions", {"name": "s"}),
    ("load", "/sessions/{session}/structures", {"name": "db", "facts": "R(a,b)"}),
    ("extend", "/sessions/{session}/structures/db/extend", {"facts": "R(b,c)"}),
    ("chase", "/sessions/{session}/chase", {"structure": "db", "rules": [RULE]}),
    ("query", "/sessions/{session}/query", {"structure": "db", "query": QUERY}),
    ("explain", "/sessions/{session}/explain", {"structure": "db", "query": QUERY}),
    (
        "containment",
        "/sessions/{session}/containment",
        {"contained": QUERY, "container": QUERY},
    ),
    (
        "determinacy",
        "/sessions/{session}/determinacy",
        {"views": [QUERY], "query": QUERY},
    ),
]


@pytest.mark.parametrize(
    "route, body, extra",
    [
        pytest.param(route, body, {"bogus": 1}, id=name)
        for name, route, body in _ROUTE_BODIES
    ]
    + [
        # Executor selection is no longer a request field anywhere.
        pytest.param(route, body, {key: "wcoj"}, id=f"{name}-{key}")
        for (name, route, body), key in zip(
            (_ROUTE_BODIES[0], _ROUTE_BODIES[3], _ROUTE_BODIES[5]),
            ("default_strategy", "match_strategy", "strategy"),
        )
    ]
    + [
        # Fault supervision has no request field either.
        pytest.param(
            _ROUTE_BODIES[3][1],
            _ROUTE_BODIES[3][2],
            {"resilience": "strict"},
            id="chase-resilience",
        ),
    ],
)
def test_json_routes_reject_unknown_keys(server, client, route, body, extra):
    sid = client.create_session()["id"]
    client.load(sid, "db", "R(a,b)")
    path = route.format(session=sid)
    with pytest.raises(ServiceAPIError) as exc:
        client.request("POST", path, {**body, **extra})
    assert (exc.value.status, exc.value.error_type) == (400, "BadRequestError")
    for key in extra:
        assert repr(key) in str(exc.value)
    # The same body without the stray key is served.
    assert client.request("POST", path, body) is not None


def test_malformed_json_body_is_400(server):
    import http.client

    host, port = server.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    conn.request("POST", "/sessions", body=b"{not json",
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    assert response.status == 400
    response.read()
    conn.close()


def test_status_mapping_table():
    from repro.chase.chase import ChaseBudgetExceeded, ChaseExecutionError

    assert _status_for(ChaseBudgetExceeded("over")) == 409
    assert _status_for(ChaseExecutionError("pool died")) == 503
    assert _status_for(ValueError("nope")) == 400
    assert _status_for(CapacityError("full")) == 429
    assert _status_for(RuntimeError("?")) == 500


# ----------------------------------------------------------------------
# Shape cache and pool reuse
# ----------------------------------------------------------------------
def test_shape_cache_interns_rules_across_sessions(server, client):
    sid_a = client.create_session("a")["id"]
    sid_b = client.create_session("b")["id"]
    for sid in (sid_a, sid_b):
        client.load(sid, "db", "R(a,b)")
        client.chase(sid, "db", [RULE])
    shapes = server.manager.shapes
    assert shapes.stats()["hits"] >= 1
    # Identity, not mere equality: the property pool reuse relies on.
    assert shapes.rules((RULE,)) is shapes.rules((RULE,))


def test_repeated_chases_reuse_the_session_engine(server, client):
    sid = client.create_session()["id"]
    client.load(sid, "db", "R(a,b), R(b,c)")
    for i in range(3):
        client.chase(sid, "db", [RULE], workers=2, result_name=f"out{i}")
    session = server.manager.get(sid)
    snap = session.metrics.snapshot()
    assert snap["service.engines.built"] == 1
    assert snap["service.engines.reused"] == 2
    assert snap["service.chase.runs"] == 3


def test_session_isolation_same_names_no_cross_talk(server, client):
    """Two sessions use the same structure/rule names; answers never mix."""
    sid_a = client.create_session("a")["id"]
    sid_b = client.create_session("b")["id"]
    client.load(sid_a, "db", "R(a1,b1)")
    client.load(sid_b, "db", "R(a2,b2)")
    client.chase(sid_a, "db", [RULE])
    client.chase(sid_b, "db", [RULE])
    facts_a = client.structure(sid_a, "db::chased")["facts"]
    facts_b = client.structure(sid_b, "db::chased")["facts"]
    assert any("a1" in f for f in facts_a) and not any("a2" in f for f in facts_a)
    assert any("a2" in f for f in facts_b) and not any("a1" in f for f in facts_b)
    ctx_a = server.manager.get(sid_a).context
    ctx_b = server.manager.get(sid_b).context
    assert ctx_a is not ctx_b
    assert ctx_a.stats()["indexes_adopted"] == 1
    assert ctx_b.stats()["indexes_adopted"] == 1


# ----------------------------------------------------------------------
# Concurrency smoke: N clients x M sessions == serial runs, bit for bit
# ----------------------------------------------------------------------
def test_concurrent_sessions_bit_identical_to_serial(server):
    datasets = {
        i: ", ".join(f"R(a{i}_{j}, a{i}_{j + 1})" for j in range(4))
        for i in range(4)
    }

    # Single-session serial reference, computed with the library directly.
    expected = {}
    for i, facts in datasets.items():
        ctx = EvalContext()
        result = run_chase(
            parse_tgds(RULE), structure_from_text(facts), context=ctx
        )
        answers = evaluate(parse_cq(QUERY), result.structure, context=ctx)
        expected[i] = (
            sorted(repr(a) for a in result.structure.atoms()),
            sorted([str(t) for t in row] for row in answers),
        )

    observed = {}
    errors = []
    barrier = threading.Barrier(len(datasets))

    def tenant(i):
        try:
            with ServiceClient(*server.address) as c:
                sid = c.create_session(f"tenant-{i}")["id"]
                barrier.wait()
                c.load(sid, "db", datasets[i])
                # Interleave with the other tenants over several rounds:
                # re-chase and re-query against the same session state.
                for round_no in range(3):
                    chase = c.chase(sid, "db", [RULE],
                                    workers=2 if i % 2 else 0)
                    query = c.query(sid, chase["structure"], QUERY)
                facts = c.structure(sid, chase["structure"])["facts"]
                observed[i] = (facts, query["answers"])
        except Exception as exc:  # pragma: no cover - failure path
            errors.append((i, exc))

    threads = [threading.Thread(target=tenant, args=(i,)) for i in datasets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert errors == []
    for i in datasets:
        assert observed[i] == expected[i], f"tenant {i} diverged from serial"


# ----------------------------------------------------------------------
# Subprocess audit: a served chase leaves no children, no shm segments
# ----------------------------------------------------------------------
@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
def test_served_parallel_chase_leaves_no_processes_or_segments():
    script = textwrap.dedent(
        """
        import multiprocessing
        from repro.service import ReproServer, ServiceClient

        with ReproServer(port=0) as server:
            with ServiceClient(*server.address) as client:
                sid = client.create_session("audit")["id"]
                client.load(sid, "db",
                            ", ".join(f"R({i},{i + 1})" for i in range(12)))
                result = client.chase(
                    sid, "db",
                    ["R(x,y), R(y,z) -> S(x,z)", "S(x,y), R(y,z) -> S(x,z)"],
                    workers=2,
                )
                assert result["reached_fixpoint"], result
                assert result["stats"]["workers"] == 2
                client.delete_session(sid)
        assert multiprocessing.active_children() == []
        print("OK")
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("REPRO_FAULTS", None)
    before = _repro_segments()
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith("OK")
    assert _repro_segments() <= before, "shm segments leaked by the service"
    assert "resource_tracker" not in proc.stderr, proc.stderr
