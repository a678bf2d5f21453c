"""The chase service: a stdlib threaded-HTTP front end over sessions.

Built on :class:`http.server.ThreadingHTTPServer` — one OS thread per
in-flight request, daemonised so a dying server never wedges on a stuck
client.  Handler threads do no chase work themselves beyond calling into
:mod:`repro.service.sessions`, where the per-session lock batches
concurrent requests for one session onto its keep-alive engine pools.

Routes (request/response bodies are JSON unless noted)::

    GET    /health
    GET    /server/stats
    GET    /metrics                       Prometheus text exposition
    GET    /server/trace                  trace ring as JSON lines
    GET    /server/access-log             structured access-log entries
    GET    /sessions                      list sessions
    POST   /sessions                      {name?, max_atoms?}
    GET    /sessions/<id>                 session detail (accounting + metrics)
    DELETE /sessions/<id>                 evict: forget indexes, close pools
    POST   /sessions/<id>/structures      {name, facts}
    GET    /sessions/<id>/structures/<n>  canonical fact listing
    DELETE /sessions/<id>/structures/<n>
    POST   /sessions/<id>/structures/<n>/extend   {facts}
    POST   /sessions/<id>/chase           {structure, rules, workers?, ...}
    POST   /sessions/<id>/query           {structure, query}
    POST   /sessions/<id>/explain         {structure, query}
    POST   /sessions/<id>/containment     {contained, container}
    POST   /sessions/<id>/determinacy     {views, query, max_stages?, max_atoms?}

A JSON body may carry only the keys its route reads: any other key is a
typed 400 naming it, so a misspelt or unsupported field fails loudly
instead of being ignored.

Failure semantics: typed library errors map onto HTTP statuses —
parse/config errors (``ParseError``, ``TGDError``, ``QueryError``,
``ResilienceConfigError``, any ``ValueError``/``TypeError``) → 400, unknown
session/structure → 404, capacity (sessions or atoms) → 429, a chase that
hit its budget with ``raise_on_budget`` → 409, and an *operational* chase
failure (:class:`~repro.chase.chase.ChaseExecutionError` — the typed
"substrate died and recovery was exhausted" signal of the resilience
layer) → 503, since retrying against a healthy pool may well succeed.
Everything else is a 500.  Error bodies are
``{"error": {"status", "type", "message"}}``.

**Request-scoped telemetry.**  Every request carries a trace id — the
inbound ``X-Repro-Trace-Id`` header when the caller supplies one, a fresh
id otherwise — echoed back as a response header and stamped (thread-locally)
on every trace line the request emits, so the ``service.request`` span and
the engine spans nested under it form one connected tree per request in the
server's trace ring.  Completion is recorded in the access log and the
per-route/per-session latency histograms rendered by ``GET /metrics``.
All of it observes and none of it steers: responses are bit-identical with
telemetry on or off (``tests/test_service_telemetry.py`` pins this).
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Tuple

from ..chase.chase import ChaseBudgetExceeded, ChaseExecutionError
from ..obs.exposition import CONTENT_TYPE as EXPOSITION_CONTENT_TYPE
from ..obs.exposition import Exposition
from ..obs.metrics import CLOCK
from ..obs.trace import NULL_SPAN, get_tracer
from .sessions import BadRequestError, ServiceError, SessionManager
from .telemetry import ServiceTelemetry, new_trace_id

__all__ = ["ReproServer", "serve"]

_SESSION = r"(?P<session>[0-9a-f]{12})"
_NAME = r"(?P<name>[^/]+)"


def _status_for(exc: BaseException) -> int:
    if isinstance(exc, ServiceError):
        return exc.status
    if isinstance(exc, ChaseBudgetExceeded):
        return 409
    if isinstance(exc, ChaseExecutionError):
        return 503
    # ParseError / TGDError / QueryError / ResilienceConfigError are all
    # ValueError subclasses; TypeError covers malformed payload shapes.
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return 400
    return 500


class _RawText:
    """A non-JSON response body (exposition text, trace JSONL)."""

    __slots__ = ("text", "content_type")

    def __init__(self, text: str, content_type: str) -> None:
        self.text = text
        self.content_type = content_type


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-service/1"
    # Keep-alive JSON round trips write headers and body separately; with
    # Nagle on, that interacts with delayed ACKs into a ~40ms stall per
    # request on loopback.
    disable_nagle_algorithm = True

    # Routes are (method, compiled pattern, bound-method name); the table is
    # built once at class level and dispatched by the three do_* entrypoints.
    ROUTES: List[Tuple[str, "re.Pattern", str]] = [
        ("GET", re.compile(r"^/health$"), "health"),
        ("GET", re.compile(r"^/server/stats$"), "server_stats"),
        ("GET", re.compile(r"^/metrics$"), "metrics"),
        ("GET", re.compile(r"^/server/trace$"), "server_trace"),
        ("GET", re.compile(r"^/server/access-log$"), "server_access_log"),
        ("GET", re.compile(r"^/sessions$"), "list_sessions"),
        ("POST", re.compile(r"^/sessions$"), "create_session"),
        ("GET", re.compile(rf"^/sessions/{_SESSION}$"), "show_session"),
        ("DELETE", re.compile(rf"^/sessions/{_SESSION}$"), "delete_session"),
        ("POST", re.compile(rf"^/sessions/{_SESSION}/structures$"), "load_structure"),
        (
            "GET",
            re.compile(rf"^/sessions/{_SESSION}/structures/{_NAME}$"),
            "show_structure",
        ),
        (
            "DELETE",
            re.compile(rf"^/sessions/{_SESSION}/structures/{_NAME}$"),
            "drop_structure",
        ),
        (
            "POST",
            re.compile(rf"^/sessions/{_SESSION}/structures/{_NAME}/extend$"),
            "extend_structure",
        ),
        ("POST", re.compile(rf"^/sessions/{_SESSION}/chase$"), "chase"),
        ("POST", re.compile(rf"^/sessions/{_SESSION}/query$"), "query"),
        ("POST", re.compile(rf"^/sessions/{_SESSION}/explain$"), "explain"),
        ("POST", re.compile(rf"^/sessions/{_SESSION}/containment$"), "containment"),
        ("POST", re.compile(rf"^/sessions/{_SESSION}/determinacy$"), "determinacy"),
    ]

    # -- plumbing ------------------------------------------------------
    @property
    def manager(self) -> SessionManager:
        return self.server.repro_server.manager

    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        if not self.server.repro_server.quiet:
            super().log_message(fmt, *args)

    def _payload(self, *keys: str) -> Dict[str, object]:
        """The JSON body, which may hold only the route's *keys*."""
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = sorted(set(payload) - set(keys))
        if unknown:
            raise BadRequestError(
                f"unknown field(s) {', '.join(map(repr, unknown))}; "
                f"this route reads {', '.join(keys)}"
            )
        return payload

    def _reply(
        self, status: int, payload, trace_id: Optional[str] = None
    ) -> int:
        if isinstance(payload, _RawText):
            body = payload.text.encode("utf-8")
            content_type = payload.content_type
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if trace_id is not None:
            self.send_header("X-Repro-Trace-Id", trace_id)
        self.end_headers()
        self.wfile.write(body)
        return len(body)

    def _dispatch(self, method: str) -> None:
        telemetry = self.server.repro_server.telemetry
        path = self.path.split("?", 1)[0]
        started = CLOCK()
        bytes_in = int(self.headers.get("Content-Length") or 0)
        trace_id: Optional[str] = None
        tracer = None
        if telemetry.enabled:
            trace_id = self.headers.get("X-Repro-Trace-Id") or new_trace_id()
            tracer = get_tracer()

        route: Optional[str] = None
        handler_args: Dict[str, str] = {}
        for route_method, pattern, name in self.ROUTES:
            if route_method != method:
                continue
            match = pattern.match(path)
            if match is not None:
                route, handler_args = name, match.groupdict()
                break

        error_type: Optional[str] = None
        if route is None:
            status = 404
            error_type = "NoRoute"
            payload = {
                "error": {
                    "status": 404,
                    "type": "NoRoute",
                    "message": f"no route {method} {path}",
                }
            }
        else:
            if tracer is not None:
                # Thread-local stamp: every trace line this request emits —
                # the service.request span and any engine spans nested under
                # it — carries the request's trace id.
                tracer.set_trace_id(trace_id)
            span = (
                tracer.span(
                    "service.request", method=method, route=route, path=path
                )
                if tracer is not None
                else NULL_SPAN
            )
            try:
                with span:
                    try:
                        status, payload = getattr(self, route)(**handler_args)
                    except Exception as exc:  # typed → HTTP, see module doc
                        status = _status_for(exc)
                        error_type = type(exc).__name__
                        payload = {
                            "error": {
                                "status": status,
                                "type": error_type,
                                "message": str(exc),
                            }
                        }
                        span.note(status=status, error=error_type)
                    else:
                        span.note(status=status)
            finally:
                if tracer is not None:
                    tracer.set_trace_id(None)
        self.manager.count_request(error=error_type is not None)
        bytes_out = self._reply(status, payload, trace_id=trace_id)

        if telemetry.enabled:
            route_label = route or "<no-route>"
            elapsed = CLOCK() - started
            session_id = handler_args.get("session")
            atoms: Optional[int] = None
            faults: Optional[Dict[str, int]] = None
            degraded = False
            if isinstance(payload, dict):
                atoms_value = payload.get("atoms")
                if isinstance(atoms_value, int):
                    atoms = atoms_value
                stats = payload.get("stats")
                if isinstance(stats, dict):
                    raw_faults = stats.get("faults") or {}
                    if any(raw_faults.values()):
                        faults = {
                            kind: count
                            for kind, count in sorted(raw_faults.items())
                            if count
                        }
                    if raw_faults.get("degraded"):
                        degraded = True
            telemetry.observe_request(
                route=route_label,
                status=status,
                seconds=elapsed,
                bytes_in=bytes_in,
                bytes_out=bytes_out,
                trace_id=trace_id,
                method=method,
                path=path,
                wall_time=time.time(),
                session=session_id,
                error=error_type,
                atoms=atoms,
                faults=faults,
                degraded=degraded,
            )
            if session_id:
                histogram = telemetry.session_histogram(
                    session_id, self.manager
                )
                if histogram is not None:
                    histogram.observe(elapsed)

    def do_GET(self) -> None:
        self._dispatch("GET")

    def do_POST(self) -> None:
        self._dispatch("POST")

    def do_DELETE(self) -> None:
        self._dispatch("DELETE")

    # -- handlers ------------------------------------------------------
    def health(self) -> Tuple[int, Dict[str, object]]:
        return 200, {"status": "ok", "time": time.time()}

    def server_stats(self) -> Tuple[int, Dict[str, object]]:
        return 200, self.manager.accounting()

    def metrics(self) -> Tuple[int, object]:
        return 200, _RawText(
            self.server.repro_server.render_metrics(), EXPOSITION_CONTENT_TYPE
        )

    def server_trace(self) -> Tuple[int, object]:
        ring = self.server.repro_server.telemetry.trace_ring
        if ring is None:
            raise BadRequestError(
                "trace ring disabled (telemetry off or --trace-ring 0)"
            )
        return 200, _RawText(ring.text(), "application/x-ndjson")

    def server_access_log(self) -> Tuple[int, Dict[str, object]]:
        telemetry = self.server.repro_server.telemetry
        return 200, {"entries": telemetry.access_log.entries()}

    def list_sessions(self) -> Tuple[int, Dict[str, object]]:
        return 200, {"sessions": self.manager.list_sessions()}

    def create_session(self) -> Tuple[int, Dict[str, object]]:
        payload = self._payload("name", "max_atoms")
        session = self.manager.create(
            payload.get("name"), max_atoms=payload.get("max_atoms")
        )
        return 201, session.describe()

    def show_session(self, session: str) -> Tuple[int, Dict[str, object]]:
        target = self.manager.get(session)
        target.touch()
        return 200, target.describe(verbose=True)

    def delete_session(self, session: str) -> Tuple[int, Dict[str, object]]:
        return 200, self.manager.delete(session)

    def _session(self, session_id: str):
        session = self.manager.get(session_id)
        session.touch()
        return session

    def load_structure(self, session: str) -> Tuple[int, Dict[str, object]]:
        payload = self._payload("name", "facts")
        target = self._session(session)
        return 201, target.load_structure(
            str(payload["name"]), str(payload.get("facts", ""))
        )

    def extend_structure(self, session: str, name: str) -> Tuple[int, Dict[str, object]]:
        payload = self._payload("facts")
        target = self._session(session)
        return 200, target.load_structure(
            name, str(payload.get("facts", "")), extend=True
        )

    def show_structure(self, session: str, name: str) -> Tuple[int, Dict[str, object]]:
        return 200, self._session(session).structure_facts(name)

    def drop_structure(self, session: str, name: str) -> Tuple[int, Dict[str, object]]:
        return 200, self._session(session).drop_structure(name)

    def chase(self, session: str) -> Tuple[int, Dict[str, object]]:
        payload = self._payload(
            "structure", "rules", "result_name", "workers", "strategy",
            "max_stages", "max_atoms", "resilience",
        )
        target = self._session(session)
        return 200, target.chase(
            str(payload["structure"]),
            list(payload.get("rules") or ()),
            result_name=payload.get("result_name"),
            workers=payload.get("workers", 0),
            strategy=payload.get("strategy", "lazy"),
            max_stages=payload.get("max_stages"),
            max_atoms=payload.get("max_atoms"),
            resilience=payload.get("resilience"),
        )

    def query(self, session: str) -> Tuple[int, Dict[str, object]]:
        payload = self._payload("structure", "query")
        target = self._session(session)
        return 200, target.query(str(payload["structure"]), str(payload["query"]))

    def explain(self, session: str) -> Tuple[int, Dict[str, object]]:
        payload = self._payload("structure", "query")
        target = self._session(session)
        return 200, target.explain(str(payload["structure"]), str(payload["query"]))

    def containment(self, session: str) -> Tuple[int, Dict[str, object]]:
        payload = self._payload("contained", "container")
        target = self._session(session)
        return 200, target.containment(
            str(payload["contained"]), str(payload["container"])
        )

    def determinacy(self, session: str) -> Tuple[int, Dict[str, object]]:
        payload = self._payload("views", "query", "max_stages", "max_atoms")
        target = self._session(session)
        return 200, target.determinacy(
            list(payload.get("views") or ()),
            str(payload["query"]),
            max_stages=payload.get("max_stages", 50),
            max_atoms=payload.get("max_atoms", 20_000),
        )


class ReproServer:
    """The long-lived service: HTTP listener + session manager + TTL sweeper.

    ``port=0`` binds an ephemeral port (tests); :attr:`address` reports the
    bound one.  Use as a context manager, or :meth:`start` / :meth:`close`
    explicitly.  :meth:`close` is the full teardown: stop the sweeper, stop
    accepting requests, then close every session — which hands back indexes
    (``forget``), closes keep-alive pools and releases their shared-memory
    segments, so a cleanly shut server leaks neither children nor
    ``/dev/shm`` entries.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_sessions: int = 16,
        idle_ttl: Optional[float] = None,
        session_max_atoms: int = 1_000_000,
        sweep_interval: float = 1.0,
        quiet: bool = True,
        telemetry: bool = True,
        trace_ring: int = 20_000,
        access_log: Optional[str] = None,
        access_log_capacity: int = 4096,
        slow_request_seconds: float = 1.0,
    ) -> None:
        self.manager = SessionManager(
            max_sessions=max_sessions,
            idle_ttl=idle_ttl,
            session_max_atoms=session_max_atoms,
        )
        self.telemetry = ServiceTelemetry(
            enabled=telemetry,
            trace_ring=trace_ring,
            access_log_path=access_log,
            access_log_capacity=access_log_capacity,
            slow_request_seconds=slow_request_seconds,
        )
        self.quiet = quiet
        self._sweep_interval = sweep_interval
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.repro_server = self
        self._thread: Optional[threading.Thread] = None
        self._sweeper: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._serving = False
        self._closed = False

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _sweep_loop(self) -> None:
        while not self._stop.wait(self._sweep_interval):
            self.manager.sweep()

    def _start_sweeper(self) -> None:
        if self.manager.idle_ttl is not None and self._sweeper is None:
            self._sweeper = threading.Thread(
                target=self._sweep_loop, name="repro-session-sweeper", daemon=True
            )
            self._sweeper.start()

    def render_metrics(self) -> str:
        """The full ``GET /metrics`` exposition text: server + every session."""
        exposition = Exposition()
        self.telemetry.render(exposition)
        accounting = self.manager.accounting()
        exposition.add(
            "sessions_used", "gauge", accounting["sessions"]["used"]
        )
        exposition.add(
            "sessions_total", "gauge", accounting["sessions"]["total"]
        )
        exposition.add("peak_rss_kb", "gauge", accounting["peak_rss_kb"])
        exposition.add(
            "uptime_seconds", "gauge", accounting["uptime_seconds"]
        )
        shapes = accounting["shape_cache"]
        exposition.add(
            "shape_cache_hits_total", "counter", shapes["hits"]
        )
        exposition.add(
            "shape_cache_misses_total", "counter", shapes["misses"]
        )
        exposition.add(
            "shape_cache_entries", "gauge", shapes["entries"]
        )
        for session in self.manager.sessions():
            exposition.add_registry(
                session.metrics,
                labels={"session": session.id, "name": session.name},
                namespace="session_",
            )
        return exposition.render()

    def start(self) -> "ReproServer":
        """Serve in a background thread; returns self once the port is live."""
        self.telemetry.install()
        self._start_sweeper()
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI's ``repro serve``)."""
        self.telemetry.install()
        self._start_sweeper()
        self._serving = True
        try:
            self._httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._serving:
            # No-op once a foreground serve_forever already returned;
            # unserved servers must skip it (shutdown() waits on the loop).
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._sweeper is not None:
            self._sweeper.join(timeout=5)
        self.manager.close()
        self.telemetry.close()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()


def serve(host: str = "127.0.0.1", port: int = 8765, **kwargs) -> ReproServer:
    """Construct and start a background :class:`ReproServer` (convenience)."""
    return ReproServer(host, port, **kwargs).start()
