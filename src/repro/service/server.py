"""Dependency-light HTTP front end for the design service.

Stdlib only (``http.server``): the library stays importable with bare
NumPy, and ``repro serve`` needs nothing the test environment does not
already have.  One thread per request (``ThreadingHTTPServer``); the
artifact store's single-flight locking keeps concurrent identical misses
from computing twice.

Routes (all answers are canonical JSON — sorted keys, compact — so a
warm hit is byte-identical to the cold compute that populated it; the
``X-Repro-Cache`` header, not the body, says which one served you):

==============================  ========================================
``GET /v1/health``              liveness + schema version
``GET /v1/cache/stats``         entry/byte counts per kind
``GET /v1/<kind>?ks=3,3,3&...`` query via query-string parameters
``POST /v1/query``              query via JSON body ``{kind, params}``
==============================  ========================================

Malformed queries (unknown kind, bad parameter vector) answer ``400``
with ``{"error": ...}``; unknown routes ``404``; compute crashes ``500``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from .handlers import QUERY_KINDS, QueryError, query
from .store import SCHEMA_VERSION, ArtifactStore, canonical_json

__all__ = ["ServiceHTTPHandler", "make_server"]


class ServiceHTTPHandler(BaseHTTPRequestHandler):
    """One design query per request; see the module docstring for routes."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    @property
    def store(self) -> Optional[ArtifactStore]:
        return self.server.artifact_store

    def log_message(self, fmt: str, *args) -> None:
        if getattr(self.server, "quiet", False):
            return
        super().log_message(fmt, *args)

    def _send_json(
        self, status: int, payload: Dict, headers: Optional[Dict] = None
    ) -> None:
        body = canonical_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        for k, v in (headers or {}).items():
            self.send_header(k, v)
        self.end_headers()
        self.wfile.write(body)

    def _answer(self, kind: str, params: Dict) -> None:
        info: Dict[str, object] = {}
        try:
            result = query(kind, params, store=self.store, info=info)
        except QueryError as e:
            self._send_json(400, {"error": str(e), "kind": kind})
            return
        except Exception as e:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"internal error: {e}"})
            return
        self._send_json(
            200, result,
            headers={
                "X-Repro-Cache": str(info.get("cache", "off")),
                "X-Repro-Key": str(info.get("key", "")),
            },
        )

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path, params = self._split()
        if path == "/v1/health":
            self._send_json(
                200,
                {"ok": True, "schema_version": SCHEMA_VERSION,
                 "kinds": list(QUERY_KINDS)},
            )
        elif path == "/v1/cache/stats":
            if self.store is None:
                self._send_json(200, {"entries": 0, "cache": "off"})
            else:
                self._send_json(200, self.store.stats())
        elif path.startswith("/v1/"):
            self._answer(path[len("/v1/"):], params)
        else:
            self._send_json(404, {"error": f"no such route {path!r}"})

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        path, _params = self._split()
        if path != "/v1/query":
            self._send_json(404, {"error": f"no such route {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            doc = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(doc, dict):
                raise ValueError("body must be a JSON object")
            kind = doc.get("kind")
            params = doc.get("params", {})
            if not isinstance(kind, str):
                raise ValueError('body must carry a string "kind"')
        except (ValueError, UnicodeDecodeError) as e:
            self._send_json(400, {"error": f"bad request body: {e}"})
            return
        self._answer(kind, params)

    def _split(self) -> Tuple[str, Dict[str, str]]:
        parts = urlsplit(self.path)
        return parts.path.rstrip("/") or "/", dict(parse_qsl(parts.query))


def make_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store: Optional[ArtifactStore] = None,
    quiet: bool = False,
) -> ThreadingHTTPServer:
    """A configured (but not yet serving) HTTP server over ``store``
    (``None``: the cache is off); ``port=0`` binds an ephemeral port
    (read it back from ``server_address[1]``)."""
    srv = ThreadingHTTPServer((host, port), ServiceHTTPHandler)
    srv.artifact_store = store
    srv.quiet = quiet
    return srv
