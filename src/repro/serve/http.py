"""Stdlib-only HTTP front ends: one server class, one handler base.

Both ``repro serve`` (:class:`AnalysisHTTPServer`, backed by an
:class:`~repro.serve.service.AnalysisService`) and ``repro cluster
route`` (:class:`repro.cluster.http.ClusterHTTPServer`, backed by a
:class:`~repro.cluster.router.ClusterRouter`) are built from the
:class:`ReproHTTPServer` and :class:`ReproHandler` defined here.  The
shared handler owns everything that is the same on both front ends:

* ``GET /metrics`` — the backend's metrics document (JSON);
  ``?format=prometheus`` or the ``/metrics/prometheus`` alias return
  text exposition format instead.
* ``GET /jobs``, ``GET /jobs/<id>``, ``GET /jobs/<id>/events?since=N``,
  ``POST /jobs``, ``POST /jobs/<id>/cancel`` — parsed here; each front
  end supplies only the five backend calls.
* the 404 for unknown paths, body parsing, and the error → status map.

This module's front end adds:

* ``POST /analyze`` — one wire-format request; the response body is the
  :func:`repro.core.api.canonical_json` record, byte-identical to the
  CLI's ``analyze --json`` for the same input.
* ``POST /analyze_batch`` — ``{"requests": [...]}``; responds
  ``{"request_id", "results": [...]}`` with a record or
  ``{"error", "type"}`` object per item, preserving order.
* ``GET /healthz`` — liveness plus queue depth.
* ``GET /debug/trace?n=K`` — ASCII Gantt of the last ``K`` completed
  request traces (``?format=json`` for span trees).
* ``GET /debug/trace/<trace_id>`` — one retained span tree by id (the
  lookup the cluster router stitches distributed traces from).

Every request gets a request ID — accepted via ``X-Repro-Request-Id``
or generated — resolved once per request and echoed in the
``X-Repro-Request-Id`` header of every response, in error bodies, and
in the ``/analyze_batch`` wrapper.  An invalid ID is answered 400 and
never echoed.  The *successful* ``/analyze`` body never carries it:
that body is the canonical analysis record, and staying byte-identical
to the CLI's ``--json`` output (and to the untraced path) is a
contract.  An ``X-Repro-Trace`` header (see :mod:`repro.obs.context`)
propagates a distributed trace: its head-based sampling decision
overrides the local sampler and the span tree is recorded under the
propagated trace id — never changing a single response byte.

Requests may carry a deadline: an ``X-Repro-Deadline-Ms`` header, or a
``deadline_ms`` field in the body (most specific wins — the body field
overrides the header, which overrides the service default).  A request
whose deadline expires before evaluation is dropped at batch
collection and answered ``504 Gateway Timeout``.

Error mapping (:meth:`ReproHandler._send_error`, in order): an error's
own ``status`` attribute (proxied replica rejections keep their
upstream code), unknown job → 404, expired deadline → 504, shed load
or a crashed worker shard → 503, any other library error → 400,
anything else → 500.  The server is a ``ThreadingHTTPServer``; every
handler thread just blocks on its backend, so the micro-batcher sees
all concurrent requests at once.  The default per-line stderr access
log stays disabled — the service's structured logger emits one JSON
line per request outcome instead (see :mod:`repro.obs.logging`), which
is what a serving process under load can actually afford.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from repro.core.api import canonical_json, extract_deadline_ms, validate_deadline_ms
from repro.errors import (
    DeadlineExceededError,
    ExecutionBackendError,
    JobError,
    JobNotFoundError,
    OverloadedError,
    ReproError,
    ServeError,
)
from repro.obs.context import TRACE_HEADER, maybe_parse_trace_header
from repro.obs.ids import REQUEST_ID_HEADER, coerce_request_id
from repro.obs.prometheus import render_prometheus
from repro.serve.service import AnalysisService

#: Request header carrying the relative deadline budget in milliseconds.
DEADLINE_HEADER = "X-Repro-Deadline-Ms"

#: Maximum accepted request body, a guard against memory-exhaustion.
MAX_BODY_BYTES = 1 << 20

#: Default number of traces rendered by ``/debug/trace``.
DEFAULT_TRACE_COUNT = 16


class ReproHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server run from one background acceptor thread."""

    daemon_threads = True
    allow_reuse_address = True
    # The socketserver default backlog of 5 resets connections under a
    # concurrent burst — exactly the workload a micro-batcher exists for.
    request_queue_size = 128
    #: Name of the acceptor thread :meth:`start_background` starts.
    thread_name = "repro-http"

    def __init__(self, address: Tuple[str, int], handler, *,
                 request_timeout: float) -> None:
        super().__init__(address, handler)
        self.request_timeout = request_timeout
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        """The bound port (useful with an ephemeral ``port=0`` bind)."""
        return self.server_address[1]

    def start_background(self):
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise ServeError("server is already running")
        self._thread = threading.Thread(
            target=self.serve_forever, name=self.thread_name, daemon=True
        )
        self._thread.start()
        return self

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block on the background acceptor thread; True once it exits."""
        if self._thread is None:
            return True
        self._thread.join(timeout)
        return not self._thread.is_alive()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting connections and join the acceptor thread.

        Safe to call before :meth:`start_background` (and idempotent):
        ``BaseServer.shutdown`` waits on an event that only
        ``serve_forever`` sets, so calling it without a running
        acceptor thread would hang forever — when no thread was ever
        started, only the listening socket needs closing.
        """
        if self._thread is None:
            self.server_close()
            return
        self.shutdown()
        self.server_close()
        self._thread.join(timeout)
        self._thread = None


class AnalysisHTTPServer(ReproHTTPServer):
    """A threading HTTP server bound to one :class:`AnalysisService`."""

    thread_name = "repro-serve-http"

    def __init__(self, address: Tuple[str, int], service: AnalysisService, *,
                 request_timeout: float = 60.0) -> None:
        super().__init__(address, _AnalysisHandler,
                         request_timeout=request_timeout)
        self.service = service


def start_server(service: AnalysisService, *, host: str = "127.0.0.1",
                 port: int = 0, request_timeout: float = 60.0) -> AnalysisHTTPServer:
    """Bind and start a background server; ``port=0`` picks a free port."""
    server = AnalysisHTTPServer((host, port), service,
                                request_timeout=request_timeout)
    return server.start_background()


def _status_for(error: BaseException) -> int:
    """The HTTP status an error answers with (see the module docstring)."""
    status = getattr(error, "status", None)
    if isinstance(status, int):
        return status
    if isinstance(error, JobNotFoundError):
        return 404
    if isinstance(error, DeadlineExceededError):
        return 504
    if isinstance(error, (OverloadedError, ExecutionBackendError)):
        return 503
    if isinstance(error, ReproError):
        return 400
    return 500


class ReproHandler(BaseHTTPRequestHandler):
    """The handler base both front ends share.

    A subclass supplies its own routes (:meth:`_route_get`,
    :meth:`_route_post`) and its backend: ``_metrics_document()`` and
    the five jobs calls ``_jobs_list()``, ``_job_get(id)``,
    ``_job_events(id, since)``, ``_job_submit(payload)``, and
    ``_job_cancel(id)``, each returning the JSON document to send.  Everything else — request-ID
    resolution, body plumbing, the shared routes, and the error →
    status map — lives here once.
    """

    protocol_version = "HTTP/1.1"
    timeout = 120.0  # socket inactivity guard for keep-alive connections

    #: The current request's ID (``None`` only while rejecting a bad one).
    request_id: Optional[str] = None

    # The default handler writes a per-request access line to stderr; a
    # serving process under load must not pay for that.  Request-level
    # visibility comes from the service's structured logger instead
    # (one JSON line per outcome, with request ID and stage breakdown).
    def log_message(self, format, *args) -> None:  # noqa: A002
        pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def do_GET(self) -> None:
        if not self._resolve_request_id():
            return
        parts = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(parts.query)
        route = parts.path
        if route == "/metrics":
            self._handle_metrics(query.get("format", ["json"])[-1])
        elif route == "/metrics/prometheus":
            self._handle_metrics("prometheus")
        elif route == "/jobs" or route.startswith("/jobs/"):
            self._handle_jobs_get(route, query)
        else:
            self._route_get(route, query)

    def do_POST(self) -> None:
        if not self._resolve_request_id():
            return
        route = urllib.parse.urlsplit(self.path).path
        if route == "/jobs":
            self._handle_jobs_submit()
        elif route.startswith("/jobs/") and route.endswith("/cancel"):
            self._handle_job_cancel(route)
        else:
            self._route_post(route)

    def _resolve_request_id(self) -> bool:
        """Set :attr:`request_id` for this request; False after a 400."""
        self.request_id = None
        try:
            self.request_id = coerce_request_id(self.headers.get(REQUEST_ID_HEADER))
        except ServeError as error:
            self._drain_body()
            self._send_error(error)
            return False
        return True

    def _route_get(self, route: str, query: dict) -> None:
        """Answer a front-end-specific ``GET`` route, or 404."""
        self._send_not_found()

    def _route_post(self, route: str) -> None:
        """Answer a front-end-specific ``POST`` route, or 404."""
        self._send_not_found()

    # ------------------------------------------------------------------
    # Shared routes
    # ------------------------------------------------------------------

    def _handle_metrics(self, fmt: str) -> None:
        document = self._metrics_document()
        if fmt == "prometheus":
            self._send_body(200, render_prometheus(document).encode("utf-8"),
                            content_type="text/plain; version=0.0.4; charset=utf-8")
        elif fmt == "json":
            self._send_json(200, document)
        else:
            self._send_unknown_format("metrics", fmt, "json", "prometheus")

    def _handle_jobs_get(self, route: str, query: dict) -> None:
        parts = [part for part in route.split("/") if part]
        try:
            if parts == ["jobs"]:
                document = {"jobs": self._jobs_list()}
            elif len(parts) == 2:
                document = self._job_get(parts[1])
            elif len(parts) == 3 and parts[2] == "events":
                try:
                    since = int(query.get("since", [0])[-1])
                except ValueError:
                    raise ServeError("since must be an integer")
                document = self._job_events(parts[1], since)
            else:
                self._send_not_found()
                return
        except Exception as error:
            self._send_error(error)
            return
        self._send_json(200, document)

    def _handle_jobs_submit(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        try:
            record = self._job_submit(payload)
        except Exception as error:
            self._send_error(error)
            return
        self._send_json(200, record)

    def _handle_job_cancel(self, route: str) -> None:
        self._drain_body()
        parts = [part for part in route.split("/") if part]
        if len(parts) != 3:
            self._send_not_found()
            return
        try:
            record = self._job_cancel(parts[1])
        except Exception as error:
            self._send_error(error)
            return
        self._send_json(200, record)

    # ------------------------------------------------------------------
    # Headers
    # ------------------------------------------------------------------

    def _header_deadline_ms(self) -> Optional[float]:
        """The validated ``X-Repro-Deadline-Ms`` header, if present."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        return validate_deadline_ms(raw)

    def _header_trace_context(self):
        """The validated ``X-Repro-Trace`` header, or ``None``."""
        return maybe_parse_trace_header(self.headers.get(TRACE_HEADER))

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    def _drain_body(self) -> None:
        """Read and discard a request body (keep-alive hygiene for
        endpoints that take no input, like ``/jobs/<id>/cancel``)."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = 0
        if 0 < length <= MAX_BODY_BYTES:
            self.rfile.read(length)

    def _read_json(self):
        """The decoded JSON body, or ``None`` after answering 400."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            self._send_error(ServeError("missing or oversized request body"))
            return None
        body = self.rfile.read(length)
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._send_error(ServeError(f"invalid JSON body: {error}"))
            return None

    def _read_batch(self) -> Optional[list]:
        """The ``requests`` list of an ``/analyze_batch`` body, or
        ``None`` after answering 400."""
        payload = self._read_json()
        if payload is None:
            return None
        if not isinstance(payload, dict) or not isinstance(payload.get("requests"), list):
            self._send_error(ServeError(
                "analyze_batch expects {\"requests\": [...]}"))
            return None
        return payload["requests"]

    def _send_error(self, error: BaseException) -> None:
        self._send_json(_status_for(error), _error_body(error, self.request_id))

    def _send_not_found(self) -> None:
        self._send_json(404, {"error": f"unknown path {self.path}",
                              "type": "NotFound"})

    def _send_unknown_format(self, kind: str, fmt: str, *expected: str) -> None:
        choices = " or ".join(repr(name) for name in expected)
        self._send_error(ServeError(
            f"unknown {kind} format {fmt!r} (expected {choices})"))

    def _send_text(self, text: str) -> None:
        self._send_body(200, text.encode("utf-8"),
                        content_type="text/plain; charset=utf-8")

    def _send_json(self, status: int, payload: dict) -> None:
        self._send_body(status, canonical_json(payload).encode("utf-8"))

    def _send_body(self, status: int, body: bytes, *,
                   content_type: str = "application/json") -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.request_id is not None:
            self.send_header(REQUEST_ID_HEADER, self.request_id)
        self.end_headers()
        self.wfile.write(body)


class _AnalysisHandler(ReproHandler):
    server_version = "repro-serve/1.0"

    def _route_get(self, route: str, query: dict) -> None:
        service = self.server.service
        if route == "/healthz":
            self._send_json(200, {"status": "ok",
                                  "queue_depth": service.queue_depth})
        elif route == "/debug/trace":
            self._handle_debug_trace(query)
        elif route.startswith("/debug/trace/"):
            self._handle_debug_trace_lookup(route[len("/debug/trace/"):])
        else:
            self._send_not_found()

    def _route_post(self, route: str) -> None:
        if route == "/analyze":
            self._handle_analyze()
        elif route == "/analyze_batch":
            self._handle_analyze_batch()
        else:
            self._send_not_found()

    def _metrics_document(self) -> dict:
        return self.server.service.metrics_snapshot()

    def _handle_debug_trace(self, query: dict) -> None:
        service = self.server.service
        try:
            count = int(query.get("n", [DEFAULT_TRACE_COUNT])[-1])
        except ValueError:
            self._send_error(ServeError("n must be an integer"))
            return
        count = max(0, count)
        fmt = query.get("format", ["ascii"])[-1]
        if fmt == "json":
            traces = [trace.to_dict() for trace in service.recent_traces(count)]
            self._send_json(200, {"traces": traces})
        elif fmt == "ascii":
            self._send_text(service.render_trace(count))
        else:
            self._send_unknown_format("trace", fmt, "ascii", "json")

    def _handle_debug_trace_lookup(self, trace_id: str) -> None:
        """``GET /debug/trace/<trace_id>`` — one retained span tree.

        The cluster router pulls a replica's half of a distributed
        trace through this route and stitches it into the cluster-wide
        tree; ``monotonic_now`` lets the puller re-anchor the trace's
        monotonic timestamps against its own clock.
        """
        trace = self.server.service.find_trace(trace_id)
        if trace is None:
            self._send_json(404, {
                "error": f"no retained trace with id {trace_id!r}",
                "type": "TraceNotFound",
            })
            return
        self._send_json(200, {"trace": trace.to_dict(),
                              "monotonic_now": time.monotonic()})

    # ------------------------------------------------------------------
    # Jobs backend
    # ------------------------------------------------------------------

    def _jobs_runner(self):
        runner = self.server.service.jobs
        if runner is None:
            error = JobError("jobs are not enabled "
                             "(start the server with --jobs-dir)")
            error.status = 404
            raise error
        return runner

    def _jobs_list(self) -> List[dict]:
        from repro.jobs import json_safe

        return [json_safe(record.to_dict(include_result=False))
                for record in self._jobs_runner().store.list()]

    def _job_get(self, job_id: str) -> dict:
        from repro.jobs import json_safe

        return json_safe(self._jobs_runner().store.get(job_id).to_dict())

    def _job_events(self, job_id: str, since: int) -> dict:
        from repro.jobs import json_safe

        store = self._jobs_runner().store
        record = store.get(job_id)
        events = store.events(job_id, since=since)
        return {
            "id": record.id,
            "state": record.state,
            "generations_done": record.generations_done,
            "events": json_safe(events),
            "next_since": events[-1]["seq"] if events else since,
        }

    def _job_submit(self, payload) -> dict:
        from repro.jobs import JobSpec, json_safe

        runner = self._jobs_runner()
        # job_key is transport metadata (the idempotency identity of
        # this submission), not part of the spec — peel it off before
        # spec validation, like deadline_ms on the analyze path.
        job_key = None
        if isinstance(payload, dict) and "job_key" in payload:
            payload = dict(payload)
            job_key = payload.pop("job_key")
        record = runner.submit(JobSpec.from_dict(payload), job_key=job_key)
        return json_safe(record.to_dict())

    def _job_cancel(self, job_id: str) -> dict:
        from repro.jobs import json_safe

        record = self._jobs_runner().cancel(job_id)
        return json_safe(record.to_dict(include_result=False))

    # ------------------------------------------------------------------
    # Analyze
    # ------------------------------------------------------------------

    def _handle_analyze(self) -> None:
        payload = self._read_json()
        if payload is None:
            return
        try:
            trace_context = self._header_trace_context()
            payload, deadline_ms = extract_deadline_ms(payload)
            if deadline_ms is None:
                deadline_ms = self._header_deadline_ms()
            result = self.server.service.analyze(
                payload, timeout=self.server.request_timeout,
                deadline_ms=deadline_ms, request_id=self.request_id,
                trace_context=trace_context)
        except Exception as error:
            self._send_error(error)
            return
        self._send_body(200, canonical_json(result).encode("utf-8"))

    def _handle_analyze_batch(self) -> None:
        items = self._read_batch()
        if items is None:
            return
        try:
            trace_context = self._header_trace_context()
            header_deadline = self._header_deadline_ms()
        except ServeError as error:
            self._send_error(error)
            return
        # Submit everything before waiting on anything, so the whole
        # HTTP batch can coalesce into as few solve stacks as possible.
        # A per-item deadline_ms field overrides the header deadline;
        # the batch's single request ID tags every item.
        service = self.server.service
        pendings = []
        for item in items:
            try:
                pendings.append(
                    self._submit_item(service, item, header_deadline,
                                      self.request_id, trace_context))
            except ReproError as error:
                pendings.append(error)
        results = []
        for pending in pendings:
            if isinstance(pending, Exception):
                results.append(_error_body(pending))
                continue
            try:
                results.append(pending.result(timeout=self.server.request_timeout))
            except ReproError as error:
                pending.cancel()  # detach so the worker drops the job
                results.append(_error_body(error))
        self._send_json(200, {"request_id": self.request_id, "results": results})

    @staticmethod
    def _submit_item(service, item, header_deadline: Optional[float],
                     request_id: str, trace_context=None):
        """Submit one batch item; a per-item ``deadline_ms`` field
        overrides the header deadline."""
        if header_deadline is not None and isinstance(item, dict):
            item, item_deadline = extract_deadline_ms(item)
            if item_deadline is not None:
                header_deadline = item_deadline
        return service.submit(item, deadline_ms=header_deadline,
                              request_id=request_id,
                              trace_context=trace_context)


def _error_body(error: BaseException,
                request_id: Optional[str] = None) -> dict:
    body = {"error": str(error), "type": type(error).__name__}
    if request_id is not None:
        body["request_id"] = request_id
    return body
