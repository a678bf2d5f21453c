"""Server-side session state for chase-as-a-service.

A *session* is the unit of tenancy: it owns one
:class:`~repro.query.context.EvalContext` (so chased indexes and compiled
plan caches never leak between tenants — the process-global
``shared_context`` is never touched by the service), one
:class:`~repro.obs.metrics.MetricsRegistry`, a dictionary of named
structures, and a small LRU of keep-alive chase engines whose worker pools
survive across requests.  A per-session lock serialises the session's own
work, which is what batches concurrent requests for the same session onto
the same keep-alive pool instead of spawning one pool per request.

Capacity accounting follows the MAAS operations-handler idiom: every
resource reports ``total`` / ``used`` / ``available`` where available is
derived, never stored.  Sessions are bounded in atoms; the manager is
bounded in sessions; both surfaces reject (HTTP 429 at the server layer)
rather than degrade when full.

The :class:`ShapeCache` is the one deliberately *cross*-session piece of
state.  Compiled query plans live per-index and per-context, so they cannot
be shared safely — but the *shape* a plan is keyed by (the parsed atom
tuple) can be.  Interning rule/query text to parsed objects means (a) every
session presenting the same rule text gets the *same* TGD objects, which is
what lets a keep-alive pool be reused across requests
(:meth:`SemiNaiveChaseEngine._ensure_pool` compares TGDs by identity), and
(b) repeated queries hit the per-index plan caches with identical shape
keys instead of re-compiling.  Parsed objects are immutable, so sharing
them carries no isolation risk.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from collections import OrderedDict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..chase.tgd import TGD, parse_tgds
from ..core.builders import parse_cq, parse_facts
from ..core.containment import containment_witness
from ..core.query import ConjunctiveQuery
from ..core.structure import Structure
from ..engine import SemiNaiveChaseEngine, ResilienceConfig
from ..engine.strategies import resolve_strategy
from ..greenred.determinacy import check_unrestricted_determinacy
from ..obs.metrics import CLOCK, MetricsRegistry, peak_rss_kb
from ..obs.report import explain as explain_plan
from ..obs.trace import get_tracer
from ..query.context import EvalContext
from ..query.evaluator import evaluate


class ServiceError(Exception):
    """Base class of typed service failures; carries an HTTP status."""

    status = 500


class BadRequestError(ServiceError):
    """The request payload is malformed or references an unknown knob."""

    status = 400


class UnknownSessionError(ServiceError):
    """No live session with that id."""

    status = 404


class UnknownStructureError(ServiceError):
    """The session holds no structure with that name."""

    status = 404


class CapacityError(ServiceError):
    """A total/used/available budget is exhausted (sessions or atoms)."""

    status = 429


class SessionClosedError(ServiceError):
    """The session was evicted or deleted while the request was in flight."""

    status = 410


class ShapeCache:
    """Thread-safe bounded LRU interning rule/query text to parsed objects.

    Shared across sessions: values are immutable (frozen TGDs, conjunctive
    queries), so the only cross-tenant effect is the intended one — identical
    text yields *identical* objects, enabling keep-alive pool reuse and
    plan-shape cache hits (see the module docstring).
    """

    def __init__(self, capacity: int = 512) -> None:
        self._entries: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def _get(self, key: tuple, build):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
        # Parse outside the lock — builders raise ParseError/TGDError for
        # malformed text and holding the lock across that buys nothing.
        value = build()
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.misses += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return value

    def query(self, text: str) -> ConjunctiveQuery:
        """The parsed conjunctive query for *text* (interned)."""
        return self._get(("cq", text), lambda: parse_cq(text))

    def rules(self, texts: Sequence[str]) -> Tuple[TGD, ...]:
        """The parsed TGD tuple for *texts* (interned as one unit).

        Interning the whole sequence (not rule-by-rule) is what preserves
        TGD *identity* across requests with the same rule set — the
        property the engine's pool-reuse check relies on.
        """
        key = ("tgds",) + tuple(texts)
        return self._get(key, lambda: tuple(parse_tgds(*texts)))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }


def _resolve_resilience_spec(spec):
    """Translate the wire-level resilience spec into engine terms.

    ``None`` → supervised defaults, ``False``/``"strict"`` → strict
    fail-fast (zero retries, no serial fallback), a dict → an explicit
    :class:`ResilienceConfig`.
    """
    if spec is None:
        return None, "default"
    if spec is False or spec == "strict":
        return False, "strict"
    if isinstance(spec, dict):
        allowed = {"stage_deadline", "max_retries", "backoff_seconds", "serial_fallback"}
        unknown = set(spec) - allowed
        if unknown:
            raise BadRequestError(
                f"unknown resilience knob(s) {sorted(unknown)}; known: {sorted(allowed)}"
            )
        try:
            config = ResilienceConfig(**spec)
        except TypeError as exc:
            raise BadRequestError(f"bad resilience spec: {exc}") from exc
        key = tuple(sorted(spec.items()))
        return config, key
    raise BadRequestError(
        f"resilience must be null, false, 'strict' or an object, not {spec!r}"
    )


def _check_workers(workers) -> None:
    """Raise :class:`BadRequestError` unless *workers* is a sane pool size.

    Keep-alive engines cache their pools, so an unchecked count would fork
    and keep that many processes: only plain non-negative integers up to
    ``max(2, os.cpu_count())`` are accepted.
    """
    ceiling = max(2, os.cpu_count() or 1)
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise BadRequestError(f"workers must be an integer, not {workers!r}")
    if not 0 <= workers <= ceiling:
        raise BadRequestError(
            f"workers must be between 0 and {ceiling}, not {workers}"
        )


class Session:
    """One tenant: a context, a metrics registry, structures, engines."""

    def __init__(
        self,
        session_id: str,
        name: str,
        shapes: ShapeCache,
        *,
        max_atoms: int = 1_000_000,
        max_engines: int = 4,
        clock=time.time,
    ) -> None:
        self.id = session_id
        self.name = name
        self.shapes = shapes
        self.max_atoms = max_atoms
        self.max_engines = max_engines
        self.context = EvalContext()
        self.metrics = MetricsRegistry()
        self.structures: Dict[str, Structure] = {}
        self._engines: "OrderedDict[tuple, SemiNaiveChaseEngine]" = OrderedDict()
        self._clock = clock
        self.created = clock()
        self.last_used = self.created
        self.requests = 0
        self.closed = False
        # One lock per session: concurrent requests for the same session are
        # serialised here, which batches them onto the session's keep-alive
        # engine pools; requests for *different* sessions run concurrently.
        self.lock = threading.RLock()

    # -- bookkeeping ---------------------------------------------------
    @contextmanager
    def _locked(self) -> Iterator[None]:
        """The session lock, with queue-wait telemetry around the acquire.

        Concurrent requests for one session queue here (that is the design
        — it batches them onto the keep-alive pools), so the wait *is* the
        session's queue delay.  It lands in the session registry's
        ``service.lock.wait_seconds`` histogram and, when tracing is
        active, as a ``service.lock.wait`` instant event under the
        request's ``service.request`` span.  Observation only — the lock
        semantics are untouched.
        """
        waited_from = CLOCK()
        self.lock.acquire()
        waited = CLOCK() - waited_from
        try:
            self.metrics.histogram("service.lock.wait_seconds").observe(waited)
            tracer = get_tracer()
            if tracer is not None:
                tracer.event(
                    "service.lock.wait",
                    session=self.id,
                    seconds=round(waited, 9),
                )
            yield
        finally:
            self.lock.release()

    def touch(self) -> None:
        with self.lock:
            self.last_used = self._clock()
            self.requests += 1

    def _check_open(self) -> None:
        if self.closed:
            raise SessionClosedError(f"session {self.id} has been closed")

    @property
    def used_atoms(self) -> int:
        return sum(len(s) for s in self.structures.values())

    def accounting(self) -> Dict[str, int]:
        """MAAS-style atom capacity: available is derived, never stored."""
        used = self.used_atoms
        return {
            "total": self.max_atoms,
            "used": used,
            "available": max(0, self.max_atoms - used),
        }

    def engine_pool(self) -> Dict[str, int]:
        """Keep-alive pool accounting: live engines plus lifetime counters.

        The built/reused/evicted counters always existed in the session
        registry; this surfaces them for ``/server/stats`` so pool reuse is
        visible without pulling each session's verbose detail.
        """
        with self.lock:
            counters = self.metrics.counters

            def value(name: str) -> int:
                instrument = counters.get(name)
                return int(instrument.value) if instrument is not None else 0

            return {
                "engines": len(self._engines),
                "built": value("service.engines.built"),
                "reused": value("service.engines.reused"),
                "evicted": value("service.engines.evicted"),
            }

    def describe(self, *, verbose: bool = False) -> Dict[str, object]:
        with self.lock:
            now = self._clock()
            payload: Dict[str, object] = {
                "id": self.id,
                "name": self.name,
                "created": self.created,
                "idle_seconds": round(max(0.0, now - self.last_used), 3),
                "requests": self.requests,
                "structures": {
                    name: len(structure)
                    for name, structure in sorted(self.structures.items())
                },
                "engines": len(self._engines),
                "atoms": self.accounting(),
            }
            if verbose:
                payload["context"] = self.context.stats()
                payload["metrics"] = self.metrics.snapshot()
            return payload

    # -- structures ----------------------------------------------------
    def _structure(self, name: str) -> Structure:
        structure = self.structures.get(name)
        if structure is None:
            raise UnknownStructureError(
                f"session {self.id} has no structure {name!r}; "
                f"loaded: {sorted(self.structures)}"
            )
        return structure

    def _admit_atoms(self, incoming: int) -> None:
        available = self.max_atoms - self.used_atoms
        if incoming > available:
            raise CapacityError(
                f"session atom capacity exhausted: used {self.used_atoms} of "
                f"{self.max_atoms}, request needs {incoming} more"
            )

    def _store(self, name: str, structure: Structure) -> None:
        old = self.structures.get(name)
        if old is not None:
            self.context.forget(old)
        self.structures[name] = structure

    def load_structure(self, name: str, facts_text: str, extend: bool = False) -> Dict[str, object]:
        """Create (or ``extend=True`` grow) the named structure from fact text."""
        with self._locked():
            self._check_open()
            atoms = parse_facts(facts_text)
            if extend:
                structure = self._structure(name)
                new = sum(1 for atom in atoms if atom not in structure)
                self._admit_atoms(new)
                added = structure.add_atoms(atoms)
            else:
                self._admit_atoms(len(atoms))
                structure = Structure(name=name)
                structure.add_atoms(atoms)
                added = len(structure)
                self._store(name, structure)
            self.metrics.counter("service.structures.atoms_loaded").inc(added)
            return {
                "structure": name,
                "atoms": len(structure),
                "added": added,
                "session_atoms": self.accounting(),
            }

    def structure_facts(self, name: str) -> Dict[str, object]:
        """The structure's facts, canonically ordered (bit-identity probes)."""
        with self._locked():
            self._check_open()
            structure = self._structure(name)
            return {
                "structure": name,
                "atoms": len(structure),
                "facts": sorted(repr(atom) for atom in structure.atoms()),
            }

    def drop_structure(self, name: str) -> Dict[str, object]:
        with self._locked():
            self._check_open()
            structure = self._structure(name)
            self.context.forget(structure)
            del self.structures[name]
            return {"structure": name, "session_atoms": self.accounting()}

    # -- engines -------------------------------------------------------
    def _engine_for(
        self,
        rule_texts: Tuple[str, ...],
        tgds: Tuple[TGD, ...],
        workers: int,
        strategy: str,
        resilience_spec,
    ) -> SemiNaiveChaseEngine:
        resilience, resilience_key = _resolve_resilience_spec(resilience_spec)
        key = (rule_texts, workers, strategy, resilience_key)
        engine = self._engines.get(key)
        if engine is not None:
            self._engines.move_to_end(key)
            self.metrics.counter("service.engines.reused").inc()
            return engine
        engine = SemiNaiveChaseEngine(
            tgds=list(tgds),
            strategy=resolve_strategy(strategy),
            workers=workers,
            resilience=resilience,
            context=self.context,
        )
        self._engines[key] = engine
        self.metrics.counter("service.engines.built").inc()
        while len(self._engines) > self.max_engines:
            _, evicted = self._engines.popitem(last=False)
            evicted.close()
            self.metrics.counter("service.engines.evicted").inc()
        return engine

    # -- operations ----------------------------------------------------
    def chase(
        self,
        structure: str,
        rules: Sequence[str],
        *,
        result_name: Optional[str] = None,
        workers: int = 0,
        strategy: str = "lazy",
        max_stages: Optional[int] = None,
        max_atoms: Optional[int] = None,
        resilience=None,
    ) -> Dict[str, object]:
        """Run the chase inside the session; returns run accounting.

        The response's ``stats`` key is ``result.stats.as_dict()`` verbatim
        — including the ``faults`` ledger of supervised parallel runs.
        """
        if not rules:
            raise BadRequestError("chase requires at least one rule")
        _check_workers(workers)
        with self._locked():
            self._check_open()
            source = self._structure(structure)
            tgds = self.shapes.rules(tuple(rules))
            # The chased copy coexists with its source, so the run's budget
            # is whatever atom capacity the session still has free.
            available = self.max_atoms - self.used_atoms
            if available <= len(source):
                raise CapacityError(
                    f"session atom capacity exhausted: used {self.used_atoms} "
                    f"of {self.max_atoms}, chase of {structure!r} "
                    f"({len(source)} atoms) cannot fit a result"
                )
            engine = self._engine_for(
                tuple(rules), tgds, workers, strategy, resilience
            )
            engine.max_stages = max_stages
            engine.max_atoms = (
                available if max_atoms is None else min(int(max_atoms), available)
            )
            with self.metrics.timer("service.chase.wall").time():
                result = engine.run(source)
            name = result_name or f"{structure}::chased"
            self._store(name, result.structure)
            stats = result.stats
            self.metrics.counter("service.chase.runs").inc()
            if stats is not None:
                self.metrics.counter("service.chase.new_atoms").inc(stats.new_atoms)
                self.metrics.counter("service.chase.fired").inc(stats.fired)
                for fault, count in stats.faults.items():
                    self.metrics.counter(f"service.chase.faults.{fault}").inc(count)
            return {
                "structure": name,
                "source": structure,
                "atoms": len(result.structure),
                "reached_fixpoint": result.reached_fixpoint,
                "stages_run": result.stages_run,
                "stats": stats.as_dict() if stats is not None else None,
                "session_atoms": self.accounting(),
            }

    def query(self, structure: str, query_text: str) -> Dict[str, object]:
        with self._locked():
            self._check_open()
            target = self._structure(structure)
            cq = self.shapes.query(query_text)
            with self.metrics.timer("service.query.wall").time():
                answers = evaluate(cq, target, context=self.context)
            self.metrics.counter("service.query.runs").inc()
            self.metrics.counter("service.query.answers").inc(len(answers))
            return {
                "structure": structure,
                "query": cq.name,
                "variables": [str(v) for v in cq.free_variables],
                "answers": sorted([str(t) for t in row] for row in answers),
                "count": len(answers),
                "context": self.context.stats(),
            }

    def explain(self, structure: str, query_text: str) -> Dict[str, object]:
        with self._locked():
            self._check_open()
            target = self._structure(structure)
            cq = self.shapes.query(query_text)
            text = explain_plan(target, cq, context=self.context)
            self.metrics.counter("service.explain.runs").inc()
            return {"structure": structure, "query": cq.name, "explain": text}

    def containment(self, contained: str, container: str) -> Dict[str, object]:
        with self._locked():
            self._check_open()
            q1 = self.shapes.query(contained)
            q2 = self.shapes.query(container)
            witness = containment_witness(q1, q2, context=self.context)
            self.metrics.counter("service.containment.runs").inc()
            return {
                "contained": q1.name,
                "container": q2.name,
                "holds": witness is not None,
                "witness": (
                    None
                    if witness is None
                    else {str(var): str(val) for var, val in sorted(
                        witness.items(), key=lambda item: str(item[0])
                    )}
                ),
            }

    def determinacy(
        self,
        views: Sequence[str],
        query_text: str,
        *,
        max_stages: int = 50,
        max_atoms: int = 20_000,
    ) -> Dict[str, object]:
        if not views:
            raise BadRequestError("determinacy requires at least one view")
        with self._locked():
            self._check_open()
            parsed_views = [self.shapes.query(v) for v in views]
            query = self.shapes.query(query_text)
            report = check_unrestricted_determinacy(
                parsed_views,
                query,
                max_stages=max_stages,
                max_atoms=max_atoms,
                context=self.context,
            )
            self.metrics.counter("service.determinacy.runs").inc()
            return {
                "query": query.name,
                "views": [v.name for v in parsed_views],
                "verdict": report.verdict.value,
                "detail": report.detail,
            }

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Release everything: engine pools (and their shm), index hand-offs."""
        with self.lock:
            if self.closed:
                return
            self.closed = True
            while self._engines:
                _, engine = self._engines.popitem(last=False)
                engine.close()
            for structure in self.structures.values():
                self.context.forget(structure)
            self.structures.clear()


class SessionManager:
    """The server's collection of live sessions, bounded and TTL-swept."""

    def __init__(
        self,
        *,
        max_sessions: int = 16,
        idle_ttl: Optional[float] = None,
        session_max_atoms: int = 1_000_000,
        clock=time.time,
    ) -> None:
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.session_max_atoms = session_max_atoms
        self.shapes = ShapeCache()
        self._sessions: Dict[str, Session] = {}
        self._lock = threading.RLock()
        self._clock = clock
        self.created_total = 0
        self.evicted_total = 0
        self.requests_total = 0
        self.errors_total = 0
        self.started = clock()

    # -- lifecycle -----------------------------------------------------
    def create(
        self,
        name: Optional[str] = None,
        *,
        max_atoms: Optional[int] = None,
    ) -> Session:
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise CapacityError(
                    f"session capacity exhausted: {len(self._sessions)} of "
                    f"{self.max_sessions} in use; delete one or raise --max-sessions"
                )
            session_id = uuid.uuid4().hex[:12]
            session = Session(
                session_id,
                name or f"session-{self.created_total + 1}",
                self.shapes,
                max_atoms=max_atoms or self.session_max_atoms,
                clock=self._clock,
            )
            self._sessions[session_id] = session
            self.created_total += 1
            return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.closed:
            raise UnknownSessionError(f"no session {session_id!r}")
        return session

    def peek(self, session_id: str) -> Optional[Session]:
        """The live session with that id, or ``None`` — never raises, never
        touches; the telemetry path uses it so recording a latency sample
        can't fail a request whose session was deleted mid-flight."""
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None or session.closed:
            return None
        return session

    def sessions(self) -> List[Session]:
        """A snapshot list of live sessions (the /metrics renderer's view)."""
        with self._lock:
            return list(self._sessions.values())

    def delete(self, session_id: str) -> Dict[str, object]:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise UnknownSessionError(f"no session {session_id!r}")
        session.close()
        self.evicted_total += 1
        return {"deleted": session_id}

    def sweep(self, now: Optional[float] = None) -> List[str]:
        """Evict sessions idle past the TTL; returns the evicted ids."""
        if self.idle_ttl is None:
            return []
        now = self._clock() if now is None else now
        with self._lock:
            stale = [
                sid
                for sid, session in self._sessions.items()
                if now - session.last_used > self.idle_ttl
            ]
            evicted = [self._sessions.pop(sid) for sid in stale]
        for session in evicted:
            session.close()
        self.evicted_total += len(evicted)
        return [session.id for session in evicted]

    def close(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    # -- reporting -----------------------------------------------------
    def list_sessions(self) -> List[Dict[str, object]]:
        with self._lock:
            sessions = list(self._sessions.values())
        return [session.describe() for session in sessions]

    def accounting(self) -> Dict[str, object]:
        with self._lock:
            live = list(self._sessions.values())
            payload: Dict[str, object] = {
                "sessions": {
                    "total": self.max_sessions,
                    "used": len(live),
                    "available": max(0, self.max_sessions - len(live)),
                },
                "created_total": self.created_total,
                "evicted_total": self.evicted_total,
                "requests_total": self.requests_total,
                "errors_total": self.errors_total,
                "uptime_seconds": round(self._clock() - self.started, 3),
                "idle_ttl": self.idle_ttl,
                "shape_cache": self.shapes.stats(),
            }
        # Per-session detail is gathered outside the manager lock (each
        # entry takes its session's lock) to keep lock order one-way.
        payload["peak_rss_kb"] = peak_rss_kb()
        payload["sessions_detail"] = [
            {
                "id": session.id,
                "name": session.name,
                "requests": session.requests,
                "atoms": session.accounting(),
                "engine_pool": session.engine_pool(),
            }
            for session in live
        ]
        return payload

    def count_request(self, error: bool = False) -> None:
        with self._lock:
            self.requests_total += 1
            if error:
                self.errors_total += 1
