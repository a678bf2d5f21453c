"""``repro`` — the command-line front end of the chase service.

``python -m repro <command>`` speaks JSON-over-HTTP to a running
:class:`~repro.service.server.ReproServer` (``repro serve`` starts one).
Pure standard library: argparse for the command tree, a small fixed-width
table renderer for the accounting output (the usual CLI-table idiom, no
third-party table/colour packages).

The service URL comes from ``--url``, else ``REPRO_SERVICE_URL``, else
``http://127.0.0.1:8765``.

Exit codes: ``0`` success, ``1`` service-side error (the HTTP status and
typed error are printed), ``2`` usage / cannot reach the server.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

DEFAULT_URL = "http://127.0.0.1:8765"


# ----------------------------------------------------------------------
# table rendering
def render_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """A fixed-width text table: title, header, rule, rows."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(str(col)), *(len(row[i]) for row in cells)) if cells else len(str(col))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(col).ljust(w) for col, w in zip(columns, widths)).rstrip())
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def render_accounting(label: str, counts: Dict[str, object]) -> str:
    """One total/used/available row, MAAS-style."""
    return render_table(
        ["resource", "total", "used", "available"],
        [[label, counts.get("total"), counts.get("used"), counts.get("available")]],
    )


def _print(text: str) -> None:
    print(text)


# ----------------------------------------------------------------------
# client plumbing
def _client(args):
    from .service.client import ServiceClient

    url = args.url or os.environ.get("REPRO_SERVICE_URL") or DEFAULT_URL
    return ServiceClient.from_url(url)


def _read_text(args, attr: str, file_attr: str) -> str:
    """Inline text, ``--file`` contents, or ``-`` for stdin."""
    inline = getattr(args, attr, None)
    path = getattr(args, file_attr, None)
    if inline and path:
        raise SystemExit(f"give either {attr} text or --file, not both")
    if path:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    if inline:
        return inline
    raise SystemExit(f"missing {attr}: pass it inline or via --file")


# ----------------------------------------------------------------------
# commands
def cmd_serve(args) -> int:
    from .service.server import ReproServer

    server = ReproServer(
        host=args.host,
        port=args.port,
        max_sessions=args.max_sessions,
        idle_ttl=args.idle_ttl,
        session_max_atoms=args.session_max_atoms,
        quiet=not args.verbose,
        telemetry=not args.no_telemetry,
        trace_ring=args.trace_ring,
        access_log=args.access_log,
        slow_request_seconds=args.slow_request_seconds,
    )

    def _terminate(signum, frame):  # noqa: ARG001 - signal signature
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    host, port = server.address
    print(f"repro service listening on http://{host}:{port} "
          f"(sessions: {args.max_sessions}, idle ttl: {args.idle_ttl})")
    try:
        server.serve_forever()
    finally:
        server.close()
        print("repro service stopped; sessions closed, pools released")
    return 0


def cmd_session_ls(args) -> int:
    with _client(args) as client:
        sessions = client.list_sessions()
    rows = [
        [
            s["id"],
            s["name"],
            s["requests"],
            len(s["structures"]),
            s["atoms"]["used"],
            s["atoms"]["available"],
            f"{s['idle_seconds']:.1f}s",
        ]
        for s in sessions
    ]
    _print(render_table(
        ["id", "name", "requests", "structures", "atoms used", "atoms free", "idle"],
        rows,
        title=f"{len(rows)} session(s)",
    ))
    return 0


def cmd_session_new(args) -> int:
    with _client(args) as client:
        session = client.create_session(args.name, max_atoms=args.max_atoms)
    print(session["id"])
    _print(render_accounting("atoms", session["atoms"]))
    return 0


def cmd_session_show(args) -> int:
    with _client(args) as client:
        session = client.show_session(args.session)
    _print(render_table(
        ["field", "value"],
        [
            ["id", session["id"]],
            ["name", session["name"]],
            ["requests", session["requests"]],
            ["engines", session["engines"]],
            ["idle", f"{session['idle_seconds']:.1f}s"],
        ],
        title=f"session {session['id']}",
    ))
    _print("")
    _print(render_accounting("atoms", session["atoms"]))
    if session["structures"]:
        _print("")
        _print(render_table(
            ["structure", "atoms"],
            sorted(session["structures"].items()),
        ))
    context = session.get("context")
    if context:
        _print("")
        _print(render_table(["counter", "value"], sorted(context.items()),
                            title="evaluation context"))
    return 0


def cmd_session_rm(args) -> int:
    with _client(args) as client:
        client.delete_session(args.session)
    print(f"deleted {args.session}")
    return 0


def cmd_load(args) -> int:
    facts = _read_text(args, "facts", "file")
    with _client(args) as client:
        if args.extend:
            result = client.extend(args.session, args.name, facts)
        else:
            result = client.load(args.session, args.name, facts)
    _print(render_table(
        ["structure", "atoms", "added"],
        [[result["structure"], result["atoms"], result["added"]]],
    ))
    _print(render_accounting("session atoms", result["session_atoms"]))
    return 0


def _resilience_from_args(args):
    if args.strict:
        return False
    spec = {}
    if args.deadline is not None:
        spec["stage_deadline"] = args.deadline
    if args.retries is not None:
        spec["max_retries"] = args.retries
    return spec or None


def cmd_chase_run(args) -> int:
    rules: List[str] = list(args.rule or [])
    if args.rules_file:
        with open(args.rules_file, "r", encoding="utf-8") as handle:
            rules.extend(
                line.strip() for line in handle
                if line.strip() and not line.strip().startswith("#")
            )
    if not rules:
        raise SystemExit("no rules: pass --rule (repeatable) or --rules-file")
    with _client(args) as client:
        result = client.chase(
            args.session,
            args.structure,
            rules,
            result_name=args.result_name,
            workers=args.workers,
            strategy=args.strategy,
            max_stages=args.max_stages,
            max_atoms=args.max_atoms,
            resilience=_resilience_from_args(args),
        )
    stats = result.get("stats") or {}
    _print(render_table(
        ["result", "atoms", "fixpoint", "stages", "fired", "new atoms", "wall"],
        [[
            result["structure"],
            result["atoms"],
            result["reached_fixpoint"],
            result["stages_run"],
            stats.get("fired", "-"),
            stats.get("new_atoms", "-"),
            f"{stats.get('wall_seconds', 0):.3f}s",
        ]],
        title=f"chase of {result['source']}",
    ))
    per_stage = stats.get("per_stage") or []
    if per_stage and args.stages:
        _print("")
        _print(render_table(
            ["stage", "candidates", "deduped", "fired", "new atoms", "discovery", "fire"],
            [
                [
                    s["stage"], s["candidates"], s["deduped"], s["fired"],
                    s["new_atoms"],
                    f"{s['discovery_seconds']:.3f}s", f"{s['fire_seconds']:.3f}s",
                ]
                for s in per_stage
            ],
        ))
    faults = stats.get("faults") or {}
    if faults:
        _print("")
        _print(render_table(["fault", "count"], sorted(faults.items()),
                            title="fault ledger"))
    _print("")
    _print(render_accounting("session atoms", result["session_atoms"]))
    return 0


def cmd_query(args) -> int:
    with _client(args) as client:
        result = client.query(args.session, args.structure, args.query)
    variables = result["variables"]
    _print(render_table(
        variables or ["(boolean)"],
        result["answers"] if variables else [["true" if result["count"] else "false"]],
        title=f"{result['query']}: {result['count']} answer(s) over {args.structure}",
    ))
    return 0


def cmd_explain(args) -> int:
    with _client(args) as client:
        result = client.explain(args.session, args.structure, args.query)
    _print(result["explain"])
    return 0


def cmd_stats(args) -> int:
    with _client(args) as client:
        stats = client.server_stats()
    _print(render_accounting("sessions", stats["sessions"]))
    _print("")
    shape = stats["shape_cache"]
    _print(render_table(
        ["counter", "value"],
        [
            ["uptime", f"{stats['uptime_seconds']:.1f}s"],
            ["requests", stats["requests_total"]],
            ["errors", stats["errors_total"]],
            ["sessions created", stats["created_total"]],
            ["sessions evicted", stats["evicted_total"]],
            ["shape cache entries", f"{shape['entries']}/{shape['capacity']}"],
            ["shape cache hits", shape["hits"]],
            ["shape cache misses", shape["misses"]],
        ],
        title="server",
    ))
    return 0


def cmd_json(args) -> int:
    """Raw GET for scripting (``repro get /server/stats``)."""
    with _client(args) as client:
        print(json.dumps(client.request("GET", args.path), indent=2, sort_keys=True))
    return 0


# ----------------------------------------------------------------------
# repro top
def _histogram_quantiles(samples, name: str, group_label: str) -> Dict[str, Dict[str, float]]:
    """p50/p95/p99 per *group_label* value from cumulative ``_bucket`` samples."""
    from .obs.metrics import quantile_from_cumulative

    grouped: Dict[str, List[Tuple[float, float]]] = {}
    for sample in samples:
        if sample.name != f"{name}_bucket":
            continue
        le = sample.labels.get("le", "")
        bound = float("inf") if le == "+Inf" else float(le)
        key = sample.labels.get(group_label, "")
        grouped.setdefault(key, []).append((bound, sample.value))
    quantiles: Dict[str, Dict[str, float]] = {}
    for key, buckets in grouped.items():
        buckets.sort()
        quantiles[key] = {
            "p50": quantile_from_cumulative(buckets, 0.5),
            "p95": quantile_from_cumulative(buckets, 0.95),
            "p99": quantile_from_cumulative(buckets, 0.99),
        }
    return quantiles


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.2f}ms"


def _render_top(
    stats: dict,
    samples,
    previous: Dict[str, Tuple[int, float]],
    now: float,
) -> Tuple[str, Dict[str, Tuple[int, float]]]:
    """One ``repro top`` frame; returns (text, per-session request history)."""
    from .obs.exposition import sample_value

    lines: List[str] = []
    sessions = stats["sessions"]
    shape = stats["shape_cache"]
    errors = int(sample_value(samples, "repro_server_errors_total"))
    slow = int(sample_value(samples, "repro_slow_requests_total"))
    lines.append(
        f"repro top — uptime {stats['uptime_seconds']:.1f}s — "
        f"requests {stats['requests_total']} "
        f"(errors {stats['errors_total']}, 5xx {errors}, slow {slow}) — "
        f"rss {stats['peak_rss_kb'] // 1024}MB"
    )
    lines.append(
        f"sessions {sessions['used']}/{sessions['total']} — "
        f"shape cache {shape['hits']} hit / {shape['misses']} miss "
        f"({shape['entries']} entries)"
    )
    lines.append("")

    # Per-route latency from the server-wide request histograms.
    route_quantiles = _histogram_quantiles(samples, "repro_request_seconds", "route")
    route_rows = []
    for route in sorted(route_quantiles):
        count = sample_value(samples, "repro_request_seconds_count", {"route": route})
        q = route_quantiles[route]
        route_rows.append(
            [route, int(count), _ms(q["p50"]), _ms(q["p95"]), _ms(q["p99"])]
        )
    if route_rows:
        lines.append(render_table(
            ["route", "requests", "p50", "p95", "p99"], route_rows, title="routes",
        ))
        lines.append("")

    # Per-session: req/s between frames, latency quantiles, pool reuse,
    # atom accounting, fault counters.
    session_quantiles = _histogram_quantiles(
        samples, "repro_session_service_request_seconds", "session"
    )
    history: Dict[str, Tuple[int, float]] = {}
    session_rows = []
    for detail in stats.get("sessions_detail", []):
        sid = detail["id"]
        requests = int(detail["requests"])
        history[sid] = (requests, now)
        prior = previous.get(sid)
        if prior is not None and now > prior[1]:
            rate = f"{(requests - prior[0]) / (now - prior[1]):.1f}"
        else:
            rate = "-"
        q = session_quantiles.get(sid, {"p50": 0.0, "p95": 0.0, "p99": 0.0})
        pool = detail["engine_pool"]
        atoms = detail["atoms"]
        faults = int(sum(
            s.value for s in samples
            if s.name.startswith("repro_session_service_chase_faults_")
            and s.labels.get("session") == sid
        ))
        session_rows.append([
            sid, detail["name"], rate, requests,
            _ms(q["p50"]), _ms(q["p95"]), _ms(q["p99"]),
            f"{atoms['used']}/{atoms['total']}",
            f"{pool['reused']}/{pool['built']}",
            faults,
        ])
    lines.append(render_table(
        ["session", "name", "req/s", "requests", "p50", "p95", "p99",
         "atoms", "pool reuse/built", "faults"],
        session_rows,
        title=f"{len(session_rows)} session(s)",
    ))
    return "\n".join(lines), history


def cmd_top(args) -> int:
    """A polling terminal view over ``/metrics`` + ``/server/stats``."""
    from .obs.exposition import parse_exposition

    iterations = 1 if args.once else args.iterations
    previous: Dict[str, Tuple[int, float]] = {}
    count = 0
    with _client(args) as client:
        while True:
            stats = client.server_stats()
            samples = parse_exposition(client.metrics_text())
            frame, previous = _render_top(stats, samples, previous, time.monotonic())
            count += 1
            if not args.once and sys.stdout.isatty():
                print("\x1b[2J\x1b[H", end="")
            _print(frame)
            if iterations and count >= iterations:
                return 0
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:
                return 0


# ----------------------------------------------------------------------
# parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="command-line front end of the repro chase service",
    )
    parser.add_argument(
        "--url",
        default=None,
        help=f"service URL (default: $REPRO_SERVICE_URL or {DEFAULT_URL})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the session server in the foreground")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument("--max-sessions", type=int, default=16)
    p.add_argument("--idle-ttl", type=float, default=None,
                   help="evict sessions idle longer than this many seconds")
    p.add_argument("--session-max-atoms", type=int, default=1_000_000)
    p.add_argument("--verbose", action="store_true", help="log every request")
    p.add_argument("--access-log", default=None, metavar="PATH",
                   help="append one JSON line per request to this file")
    p.add_argument("--slow-request-seconds", type=float, default=1.0,
                   help="flag access-log entries at or past this latency")
    p.add_argument("--trace-ring", type=int, default=20_000,
                   help="trace ring capacity in lines (0 disables the ring)")
    p.add_argument("--no-telemetry", action="store_true",
                   help="disable request tracing, histograms and access log")
    p.set_defaults(func=cmd_serve)

    session = sub.add_parser("session", help="manage sessions")
    session_sub = session.add_subparsers(dest="session_command", required=True)
    p = session_sub.add_parser("ls", help="list live sessions")
    p.set_defaults(func=cmd_session_ls)
    p = session_sub.add_parser("new", help="create a session (prints its id)")
    p.add_argument("--name")
    p.add_argument("--max-atoms", type=int)
    p.set_defaults(func=cmd_session_new)
    p = session_sub.add_parser("show", help="session detail and accounting")
    p.add_argument("session")
    p.set_defaults(func=cmd_session_show)
    p = session_sub.add_parser("rm", help="delete a session (closes its pools)")
    p.add_argument("session")
    p.set_defaults(func=cmd_session_rm)

    p = sub.add_parser("load", help="load (or --extend) a structure from fact text")
    p.add_argument("session")
    p.add_argument("name")
    p.add_argument("facts", nargs="?", help='e.g. "R(a,b), R(b,c)"')
    p.add_argument("--file", help="read facts from a file ('-' for stdin)")
    p.add_argument("--extend", action="store_true")
    p.set_defaults(func=cmd_load)

    chase = sub.add_parser("chase", help="chase operations")
    chase_sub = chase.add_subparsers(dest="chase_command", required=True)
    p = chase_sub.add_parser("run", help="run the chase on a loaded structure")
    p.add_argument("session")
    p.add_argument("structure")
    p.add_argument("--rule", action="append", help='e.g. "R(x,y) -> S(y,w)" (repeatable)')
    p.add_argument("--rules-file", help="one rule per line, '#' comments")
    p.add_argument("--result-name")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--strategy", default=None,
                   choices=("lazy", "oblivious", "semi-oblivious"))
    p.add_argument("--max-stages", type=int, default=None)
    p.add_argument("--max-atoms", type=int, default=None)
    p.add_argument("--deadline", type=float, default=None,
                   help="per-stage supervision deadline (seconds)")
    p.add_argument("--retries", type=int, default=None,
                   help="supervised re-dispatch attempts per stage")
    p.add_argument("--strict", action="store_true",
                   help="disable fault supervision (fail fast)")
    p.add_argument("--stages", action="store_true", help="print the per-stage table")
    p.set_defaults(func=cmd_chase_run)

    p = sub.add_parser("query", help="evaluate a conjunctive query")
    p.add_argument("session")
    p.add_argument("structure")
    p.add_argument("query", help='e.g. "q(x,y) :- R(x,z), S(z,y)"')
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("explain", help="show the compiled query plan")
    p.add_argument("session")
    p.add_argument("structure")
    p.add_argument("query")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("stats", help="server-level accounting")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "top", help="live per-session request/latency view (polls /metrics)"
    )
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--iterations", type=int, default=0,
                   help="stop after N frames (0 = until Ctrl-C)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame and exit (no screen clearing)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("get", help="raw GET, JSON to stdout (scripting)")
    p.add_argument("path", help="e.g. /server/stats")
    p.set_defaults(func=cmd_json)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .service.client import ServiceAPIError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ServiceAPIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConnectionError as exc:
        print(
            f"error: cannot reach the repro service ({exc}); "
            "is `repro serve` running?",
            file=sys.stderr,
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
