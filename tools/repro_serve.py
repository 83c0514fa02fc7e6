"""Thin CLI / HTTP front of the lifetime-query service.

Wraps :class:`repro.api.LifetimeService` (the blessed constructor is
:func:`repro.api.serve`) in two transports:

* **JSONL** (default): read one JSON query per line from a file or
  stdin, write one JSON response per line to stdout.  A malformed query
  yields an ``{"error": ...}`` line instead of killing the stream. ::

      python -m tools.repro_serve queries.jsonl > answers.jsonl
      python -m tools.repro_serve --store cache/ < queries.jsonl

* **HTTP** (``--http``): a threaded stdlib server exposing

  - ``POST /query``  -- one query document, answered synchronously;
  - ``GET  /stats``  -- current window counters (requests, served-from
    split, store hit/miss, workspace reuse);
  - ``POST /stats/reset`` -- close the observation window, return its
    stats, start a fresh one;
  - ``GET  /healthz`` -- liveness probe.

The query document format is
:meth:`repro.api.LifetimeQuery.from_mapping`; responses carry the
lifetime CDF plus the schema-validated diagnostics (``served_from``,
``query_fingerprint``, ``query_id``, ``service_latency_seconds``, and
the solver telemetry).
"""

from __future__ import annotations

import argparse
import json
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, IO, Mapping

import numpy as np

from repro.api import LifetimeQuery, LifetimeService, ServiceResponse, serve
from repro.service.server import DEFAULT_STORE_ENTRIES

__all__ = ["build_service", "handle_payload", "main", "response_document", "run_jsonl"]

#: Seconds an HTTP connection may stall on a read before its handler gives
#: up on it, so a body shorter than its ``Content-Length`` cannot hold a
#: server thread forever.
REQUEST_TIMEOUT_SECONDS = 30.0


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of diagnostics values to JSON-safe types."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def build_service(args: argparse.Namespace) -> LifetimeService:
    """Construct the service the CLI front talks to."""
    from repro.api import RunOptions

    options = RunOptions(cache_dir=args.store) if args.store else None
    return serve(options=options, max_entries=args.max_entries)


def response_document(response: ServiceResponse) -> dict[str, Any]:
    """The JSON document of one answered query."""
    return {
        "label": response.result.label,
        "method": response.result.method,
        "times": response.result.times.tolist(),
        "probabilities": response.result.probabilities.tolist(),
        "served_from": response.served_from,
        "fingerprint": response.fingerprint,
        "query_id": response.query_id,
        "latency_seconds": response.latency_seconds,
        "diagnostics": _jsonable(response.diagnostics),
    }


def handle_payload(service: LifetimeService, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Answer one parsed query document."""
    query = LifetimeQuery.from_mapping(payload)
    return response_document(service.submit(query))


# ----------------------------------------------------------------------
def run_jsonl(service: LifetimeService, source: IO[str], sink: IO[str]) -> int:
    """Serve queries line by line; return the number of failed lines."""
    failures = 0
    for line in source:
        line = line.strip()
        if not line:
            continue
        try:
            document = handle_payload(service, json.loads(line))
        except Exception as exc:
            failures += 1
            document = {"error": f"{type(exc).__name__}: {exc}"}
        sink.write(json.dumps(document) + "\n")
        sink.flush()
    return failures


# ----------------------------------------------------------------------
def _make_handler(service: LifetimeService) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        timeout = REQUEST_TIMEOUT_SECONDS

        def _send(self, status: int, document: dict[str, Any]) -> None:
            body = json.dumps(document).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
            if self.path == "/healthz":
                self._send(200, {"ok": True})
            elif self.path == "/stats":
                self._send(200, _jsonable(service.stats()))
            else:
                self._send(404, {"error": f"unknown path {self.path!r}"})

        def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
            if self.path == "/stats/reset":
                self._send(200, _jsonable(service.reset_window()))
                return
            if self.path != "/query":
                self._send(404, {"error": f"unknown path {self.path!r}"})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                if length < 0:
                    raise ValueError(f"Content-Length must be non-negative, got {length}")
                payload = json.loads(self.rfile.read(length).decode("utf-8"))
                self._send(200, handle_payload(service, payload))
            except Exception as exc:
                self._send(400, {"error": f"{type(exc).__name__}: {exc}"})

        def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
            pass  # keep the transport quiet; observability lives in repro.obs

    return Handler


def run_http(service: LifetimeService, host: str, port: int) -> None:
    """Serve HTTP until interrupted."""
    server = ThreadingHTTPServer((host, port), _make_handler(service))
    host, port = server.server_address[:2]
    print(f"serving lifetime queries on http://{host}:{port}", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro_serve", description="Serve battery-lifetime queries."
    )
    parser.add_argument(
        "queries",
        nargs="?",
        help="JSONL file of query documents ('-' or omitted: stdin)",
    )
    parser.add_argument(
        "--store",
        help="directory of a disk-backed result store shared with sweeps",
    )
    parser.add_argument(
        "--max-entries",
        type=int,
        default=DEFAULT_STORE_ENTRIES,
        help="LRU bound of the in-memory result store",
    )
    parser.add_argument(
        "--http", action="store_true", help="serve HTTP instead of JSONL"
    )
    parser.add_argument("--host", default="127.0.0.1", help="HTTP bind host")
    parser.add_argument("--port", type=int, default=8357, help="HTTP bind port")
    args = parser.parse_args(argv)

    service = build_service(args)
    if args.http:
        run_http(service, args.host, args.port)
        return 0
    if args.queries and args.queries != "-":
        with open(args.queries, encoding="utf-8") as source:
            failures = run_jsonl(service, source, sys.stdout)
    else:
        failures = run_jsonl(service, sys.stdin, sys.stdout)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
