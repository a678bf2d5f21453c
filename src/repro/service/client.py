"""A thin keep-alive JSON client for the chase service.

Built on :mod:`http.client` so the CLI and tests need nothing outside the
standard library.  One :class:`ServiceClient` holds one persistent HTTP/1.1
connection (re-established transparently when the server side drops it) —
it is deliberately **not** thread-safe; concurrent callers should hold one
client each, mirroring how the server batches per-session work anyway.

Every non-2xx response raises :class:`ServiceAPIError` carrying the HTTP
status and the server's typed error payload, so callers can distinguish a
400 (their request) from a 503 (the chase substrate) without string
matching.

**Trace propagation.**  Set :attr:`ServiceClient.trace_id` (or pass
``trace_id=`` per request) to send an ``X-Repro-Trace-Id`` header the
server will stamp on every trace line the request emits; the server echoes
the id (supplied or generated) back, and the client records it as
:attr:`ServiceClient.last_trace_id` — so a caller can always ask
``/server/trace`` for exactly the request it just made.
"""

from __future__ import annotations

import http.client
import json
import socket
from typing import Dict, Optional, Sequence
from urllib.parse import urlsplit

__all__ = ["ServiceAPIError", "ServiceClient"]


class ServiceAPIError(Exception):
    """A non-2xx response from the service."""

    def __init__(self, status: int, message: str, error_type: str = "") -> None:
        super().__init__(f"[{status}] {error_type or 'error'}: {message}")
        self.status = status
        self.message = message
        self.error_type = error_type


class ServiceClient:
    """JSON-over-HTTP access to a :class:`~repro.service.server.ReproServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765, timeout: float = 120.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: Sent as ``X-Repro-Trace-Id`` on every request when set.
        self.trace_id: Optional[str] = None
        #: The trace id the server echoed for the most recent request.
        self.last_trace_id: Optional[str] = None
        self._conn: Optional[http.client.HTTPConnection] = None

    @classmethod
    def from_url(cls, url: str, timeout: float = 120.0) -> "ServiceClient":
        parts = urlsplit(url if "//" in url else f"//{url}", scheme="http")
        return cls(parts.hostname or "127.0.0.1", parts.port or 8765, timeout)

    # -- transport -----------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn.connect()
            # Headers and body go out as separate writes; without this the
            # Nagle/delayed-ACK interaction costs ~40ms per request.
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._conn

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _raw(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ):
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers: Dict[str, str] = {}
        if body:
            headers["Content-Type"] = "application/json"
        wanted_trace = trace_id or self.trace_id
        if wanted_trace:
            headers["X-Repro-Trace-Id"] = wanted_trace
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except (http.client.HTTPException, ConnectionError, OSError):
                # A keep-alive connection the server has since dropped; one
                # reconnect covers it, anything beyond that is a real fault.
                self.close()
                if attempt == 2:
                    raise
        echoed = response.getheader("X-Repro-Trace-Id")
        if echoed:
            self.last_trace_id = echoed
        return response.status, raw

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
        *,
        trace_id: Optional[str] = None,
    ) -> dict:
        status, raw = self._raw(method, path, payload, trace_id)
        data = json.loads(raw) if raw else {}
        if status >= 400:
            error = data.get("error", {}) if isinstance(data, dict) else {}
            raise ServiceAPIError(
                status,
                error.get("message", raw.decode("utf-8", "replace")),
                error.get("type", ""),
            )
        return data

    def request_text(
        self, method: str, path: str, *, trace_id: Optional[str] = None
    ) -> str:
        """A non-JSON endpoint (``/metrics`` exposition, trace JSONL)."""
        status, raw = self._raw(method, path, None, trace_id)
        text = raw.decode("utf-8", "replace")
        if status >= 400:
            message, error_type = text, ""
            try:
                error = json.loads(raw).get("error", {})
                message = error.get("message", text)
                error_type = error.get("type", "")
            except (json.JSONDecodeError, AttributeError):
                pass
            raise ServiceAPIError(status, message, error_type)
        return text

    # -- service surface ----------------------------------------------
    def health(self) -> dict:
        return self.request("GET", "/health")

    def server_stats(self) -> dict:
        return self.request("GET", "/server/stats")

    def metrics_text(self) -> str:
        """The raw ``/metrics`` Prometheus exposition text."""
        return self.request_text("GET", "/metrics")

    def server_trace(self) -> str:
        """The server's trace ring as JSONL text (newest ~ring lines)."""
        return self.request_text("GET", "/server/trace")

    def access_log(self) -> list:
        """The server's in-memory access-log entries, oldest first."""
        return self.request("GET", "/server/access-log")["entries"]

    def list_sessions(self) -> list:
        return self.request("GET", "/sessions")["sessions"]

    def create_session(
        self,
        name: Optional[str] = None,
        *,
        max_atoms: Optional[int] = None,
    ) -> dict:
        payload: Dict[str, object] = {}
        if name is not None:
            payload["name"] = name
        if max_atoms is not None:
            payload["max_atoms"] = max_atoms
        return self.request("POST", "/sessions", payload)

    def show_session(self, session_id: str) -> dict:
        return self.request("GET", f"/sessions/{session_id}")

    def delete_session(self, session_id: str) -> dict:
        return self.request("DELETE", f"/sessions/{session_id}")

    def load(self, session_id: str, name: str, facts: str) -> dict:
        return self.request(
            "POST", f"/sessions/{session_id}/structures", {"name": name, "facts": facts}
        )

    def extend(self, session_id: str, name: str, facts: str) -> dict:
        return self.request(
            "POST",
            f"/sessions/{session_id}/structures/{name}/extend",
            {"facts": facts},
        )

    def structure(self, session_id: str, name: str) -> dict:
        return self.request("GET", f"/sessions/{session_id}/structures/{name}")

    def drop(self, session_id: str, name: str) -> dict:
        return self.request("DELETE", f"/sessions/{session_id}/structures/{name}")

    def chase(
        self,
        session_id: str,
        structure: str,
        rules: Sequence[str],
        **knobs,
    ) -> dict:
        payload: Dict[str, object] = {"structure": structure, "rules": list(rules)}
        payload.update({k: v for k, v in knobs.items() if v is not None})
        return self.request("POST", f"/sessions/{session_id}/chase", payload)

    def query(self, session_id: str, structure: str, query: str) -> dict:
        return self.request(
            "POST",
            f"/sessions/{session_id}/query",
            {"structure": structure, "query": query},
        )

    def explain(self, session_id: str, structure: str, query: str) -> dict:
        return self.request(
            "POST",
            f"/sessions/{session_id}/explain",
            {"structure": structure, "query": query},
        )

    def containment(self, session_id: str, contained: str, container: str) -> dict:
        return self.request(
            "POST",
            f"/sessions/{session_id}/containment",
            {"contained": contained, "container": container},
        )

    def determinacy(
        self,
        session_id: str,
        views: Sequence[str],
        query: str,
        *,
        max_stages: Optional[int] = None,
        max_atoms: Optional[int] = None,
    ) -> dict:
        payload: Dict[str, object] = {"views": list(views), "query": query}
        if max_stages is not None:
            payload["max_stages"] = max_stages
        if max_atoms is not None:
            payload["max_atoms"] = max_atoms
        return self.request("POST", f"/sessions/{session_id}/determinacy", payload)
