"""Stdlib-only HTTP front end for the cluster router.

The router speaks the *same wire API* as a single ``repro serve``
process — ``/analyze``, ``/analyze_batch``, ``/jobs``, ``/healthz``,
``/metrics`` — so an existing :class:`~repro.serve.client.ServeClient`
can point at a router instead of a replica without changing a line.
The server class, the shared routes (``/metrics``, ``/jobs``), the
body plumbing, and the error → status map all come from
:mod:`repro.serve.http`; this module adds only the router's
backend calls and its own routes:

* ``POST /analyze`` — relays the serving replica's body byte for byte.
* ``POST /analyze_batch`` — split by key owner, fanned out, reassembled.
* ``GET /cluster/status`` — topology, per-replica health, placements.
* ``POST /cluster/drain`` — ``{"replica": "host:port", "draining":
  bool}`` toggles the operator draining flag (no new work, no
  migration).
* ``GET /debug/trace`` — the *stitched* multi-hop Gantt of one
  distributed trace (router spans plus the serving replica's span
  tree, re-anchored onto the router's clock); ``?format=json`` for
  the document, ``?trace_id=...`` to pick a specific trace.

``/analyze`` honours an incoming ``X-Repro-Trace`` header (trace id,
parent span, sampling flag) and propagates it downstream, so a
client-opened trace spans the whole cluster.  A replica rejection
proxied through the router keeps its *original* status code (the
``status`` attribute on :class:`~repro.errors.ServeError`), so a 404
from a replica does not mutate into a router 400 along the way.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.router import ClusterRouter
from repro.errors import ClusterError
from repro.serve.http import ReproHandler, ReproHTTPServer


class ClusterHTTPServer(ReproHTTPServer):
    """A threading HTTP server bound to one :class:`ClusterRouter`."""

    thread_name = "repro-cluster-http"

    def __init__(self, address: Tuple[str, int], router: ClusterRouter, *,
                 request_timeout: float = 60.0) -> None:
        super().__init__(address, _ClusterHandler,
                         request_timeout=request_timeout)
        self.router = router


def start_cluster_server(router: ClusterRouter, *, host: str = "127.0.0.1",
                         port: int = 0,
                         request_timeout: float = 60.0) -> ClusterHTTPServer:
    """Bind and start a background router server (``port=0`` = ephemeral)."""
    server = ClusterHTTPServer((host, port), router,
                               request_timeout=request_timeout)
    return server.start_background()


class _ClusterHandler(ReproHandler):
    server_version = "repro-cluster/1.0"

    def _route_get(self, route: str, query: dict) -> None:
        router = self.server.router
        if route == "/healthz":
            self._send_json(200, router.healthz())
        elif route == "/cluster/status":
            self._send_json(200, router.status())
        elif route == "/debug/trace":
            self._handle_debug_trace(query)
        else:
            self._send_not_found()

    def _route_post(self, route: str) -> None:
        if route == "/analyze":
            self._handle_analyze()
        elif route == "/analyze_batch":
            self._handle_analyze_batch()
        elif route == "/cluster/drain":
            self._handle_drain()
        else:
            self._send_not_found()

    def _metrics_document(self) -> dict:
        return self.server.router.metrics_document()

    def _handle_debug_trace(self, query: dict) -> None:
        """The stitched distributed trace (ASCII Gantt or JSON)."""
        router = self.server.router
        trace_id = query.get("trace_id", [None])[-1]
        fmt = query.get("format", ["ascii"])[-1]
        try:
            if fmt == "json":
                document = router.stitched_trace(trace_id)
                if document is None:
                    self._send_json(404, {
                        "error": "no matching stitched trace",
                        "type": "TraceNotFound",
                    })
                    return
                self._send_json(200, document)
            elif fmt == "ascii":
                self._send_text(router.render_stitched(trace_id))
            else:
                self._send_unknown_format("trace", fmt, "ascii", "json")
        except Exception as error:
            self._send_error(error)

    # ------------------------------------------------------------------
    # Jobs backend
    # ------------------------------------------------------------------

    def _jobs_list(self) -> List[dict]:
        return self.server.router.jobs()

    def _job_get(self, job_id: str) -> dict:
        return self.server.router.job(job_id)

    def _job_events(self, job_id: str, since: int) -> dict:
        return self.server.router.job_events(job_id, since=since)

    def _job_submit(self, payload) -> dict:
        return self.server.router.submit_job(payload,
                                             request_id=self.request_id)

    def _job_cancel(self, job_id: str) -> dict:
        return self.server.router.cancel_job(job_id,
                                             request_id=self.request_id)

    # ------------------------------------------------------------------
    # Analyze proxying
    # ------------------------------------------------------------------

    def _handle_analyze(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        try:
            raw = self.server.router.analyze_raw(
                payload, deadline_ms=self._header_deadline_ms(),
                request_id=self.request_id,
                trace_context=self._header_trace_context())
        except Exception as error:
            self._send_error(error)
            return
        # The replica's body is already the canonical record: relay the
        # exact bytes, preserving the byte-identity contract end to end.
        self._send_body(200, raw.encode("utf-8"))

    def _handle_analyze_batch(self) -> None:
        items = self._read_batch()
        if items is None:
            return
        try:
            results = self.server.router.analyze_batch(
                items, deadline_ms=self._header_deadline_ms(),
                request_id=self.request_id)
        except Exception as error:
            self._send_error(error)
            return
        self._send_json(200, {"request_id": self.request_id, "results": results})

    # ------------------------------------------------------------------
    # Cluster control
    # ------------------------------------------------------------------

    def _handle_drain(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        try:
            if not isinstance(payload, dict) or "replica" not in payload:
                raise ClusterError("drain expects {\"replica\": \"host:port\", "
                                   "\"draining\": true|false}")
            state = self.server.router.health.set_draining(
                str(payload["replica"]), bool(payload.get("draining", True)))
        except ClusterError as error:
            self._send_error(error)
            return
        self._send_json(200, {"replica": payload["replica"], "state": state})
