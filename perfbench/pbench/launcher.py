"""Traced server launcher: record spans at every layer boundary.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python perfbench/pbench/launcher.py --spans-out spans.json -- serve [flags]

Before calling ``repro.cli.main(["serve", ...])`` the launcher wraps
each layer's public functions, patching every name where its caller
looks it up (``repro.core.api.batched_lu_factor``,
``repro.serve.service.evaluate_requests``, ...).  A wrapper records one
span -- name, start, end, parent span, request id -- in memory; the
spans are written to ``--spans-out`` when the server has drained.

Request ids come from the ``X-Repro-Request-Id`` header the load
generator sets: the :meth:`AnalysisService.analyze` wrapper marks its
thread with the id, and the cache key and request object it sees are
remembered so that the batch worker's spans for the same request carry
the id too.  GA job spans carry the job id.

Under the process execution backend the wrapped functions run in
forked worker processes, whose memory the launcher cannot read.  There
the wrappers of the assembly and LU functions report their stamps
through the ``stage_hook`` the worker already sends back with each
shard (as ``pb.<span>`` stages), and the ``ProcessBackend.solve``
wrapper chains its own hook in front of the caller's to collect them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: One record per finished span:
#: ``[id, name, start, end, parent_id, request_id, extra]``.
SPANS: list = []
_IDS = itertools.count(1)
_LOCAL = threading.local()
_PARENT_PID = os.getpid()
#: cache key -> request id, and id(AnalyzeRequest) -> request id.
_KEY_RID: dict = {}
_OBJ_RID: dict = {}


def _stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


def _in_worker_process() -> bool:
    return os.getpid() != _PARENT_PID


def span(name, fn, *, rid_of=None, extra_of=None, on_enter=None):
    """Wrap *fn* so that every call records a span called *name*.

    ``rid_of(args, kwargs)`` names the request the call serves (default:
    the thread's current request); ``extra_of(args, kwargs, result)``
    adds fields to the record; ``on_enter(args, kwargs)`` runs before
    the call (used to mark the thread with a request id).
    """
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _in_worker_process():
            hook = getattr(_LOCAL, "worker_hook", None)
            if hook is None:
                return fn(*args, **kwargs)
            started = time.monotonic()
            result = fn(*args, **kwargs)
            extra = (extra_of(args, kwargs, result) if extra_of else None) or {}
            count = extra.get("stack", 1)
            hook("pb." + name, started, time.monotonic(), count)
            return result
        if on_enter is not None:
            on_enter(args, kwargs)
        stack = _stack()
        span_id = next(_IDS)
        parent = stack[-1] if stack else 0
        rid = rid_of(args, kwargs) if rid_of is not None else None
        if rid is None:
            rid = getattr(_LOCAL, "rid", None)
        stack.append(span_id)
        started = time.monotonic()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            ended = time.monotonic()
            stack.pop()
            extra = extra_of(args, kwargs, result) if extra_of else None
            SPANS.append([span_id, name, started, ended, parent, rid, extra])

    return wrapper


def patch(owner, attribute: str, name: str, **options) -> None:
    """Replace ``owner.attribute`` with its span-recording wrapper."""
    setattr(owner, attribute, span(name, getattr(owner, attribute), **options))


def _set_rid(rid) -> None:
    _LOCAL.rid = rid


def install() -> None:
    """Patch every traced layer boundary (once per process)."""
    # ``repro`` re-exports functions named like some of its packages
    # (``repro.optimize``), so modules are looked up by full name.
    api, store, fitness, ga, pool, cache, http, service = (
        importlib.import_module("repro." + name) for name in (
            "core.api", "jobs.store", "optimize.fitness", "optimize.ga",
            "parallel.pool", "serve.cache", "serve.http", "serve.service"))

    # serve.service: the request span, marking the handler thread.
    patch(service.AnalysisService, "analyze", "serve.analyze",
          on_enter=lambda a, k: _set_rid(k.get("request_id")))

    # serve.cache: key derivation and lookups.
    def key_extra(args, kwargs, key):
        rid = getattr(_LOCAL, "rid", None)
        if key is not None and rid is not None:
            _KEY_RID[key] = rid
            _OBJ_RID[id(args[0])] = rid
        return None

    patch(api.AnalyzeRequest, "cache_key", "serve.cache.key",
          extra_of=key_extra)
    in_handler = lambda: bool(_stack())  # noqa: E731 - inside serve.analyze
    patch(cache.ResultCache, "get", "serve.cache.get",
          rid_of=lambda a, k: None if in_handler() else _KEY_RID.get(a[1]),
          extra_of=lambda a, k, r: {"hit": r is not None})
    patch(cache.ResultCache, "put", "serve.cache.put",
          rid_of=lambda a, k: _KEY_RID.get(a[1]))

    # core.api: the batch evaluation and response shaping.
    patch(service, "evaluate_requests", "core.evaluate",
          extra_of=lambda a, k, r: {
              "rids": [_OBJ_RID.get(id(req)) for req in a[0]]})
    patch(service, "serialize_analysis", "core.serialize",
          rid_of=lambda a, k: _OBJ_RID.get(id(a[0])))
    patch(http, "canonical_json", "core.canonical_json")
    patch(api, "solve_request_systems", "core.solve_systems")
    _chain_worker_hook(api)

    # panel / linalg / viscous.
    patch(api, "assemble", "panel.assemble")
    stack_of = lambda a, k, r: {"stack": int(a[0].shape[0]),  # noqa: E731
                                "m": int(a[0].shape[-1])}
    patch(api, "batched_lu_factor", "linalg.factor", extra_of=stack_of)
    patch(api, "batched_lu_solve", "linalg.substitute",
          extra_of=lambda a, k, r: {"stack": int(a[1].shape[0]),
                                    "m": int(a[1].shape[-1])})
    patch(api, "analyze_viscous", "viscous.analyze")
    patch(fitness, "analyze_viscous", "viscous.analyze")

    # parallel: the process backend, with its shard stamps.
    original_solve = pool.ProcessBackend.solve

    def process_solve(self, requests, *, stage_hook=None, kernel=None):
        stamps = []

        def hook(stage, start, end, count):
            stamps.append((stage, start, end, count))
            if stage_hook is not None and not stage.startswith("pb."):
                stage_hook(stage, start, end, count)

        _LOCAL.stamps = stamps
        return original_solve(self, requests, stage_hook=hook, kernel=kernel)

    pool.ProcessBackend.solve = span(
        "parallel.solve", process_solve,
        extra_of=lambda a, k, r: {"n": len(a[1]),
                                  "stamps": getattr(_LOCAL, "stamps", [])})

    # optimize: generations, genome decoding, serial retries.
    patch(ga.GeneticOptimizer, "run_from", "optimize.generation")
    patch(fitness.FitnessEvaluator, "build_airfoil", "optimize.build_airfoil",
          extra_of=lambda a, k, r: {"feasible": bool(r and r[1] is None)})
    patch(fitness.FitnessEvaluator, "evaluate", "optimize.serial_evaluate")

    # jobs: the durable store; mark_running tags the runner thread.
    patch(store.JobStore, "mark_running", "jobs.mark_running",
          on_enter=lambda a, k: _set_rid(a[1]))
    patch(store.JobStore, "write_checkpoint", "jobs.checkpoint")
    patch(store.JobStore, "record_progress", "jobs.progress")


def _chain_worker_hook(api) -> None:
    """In forked workers, expose the shard's stage hook to the wrappers."""
    traced = api.solve_request_systems

    def solve_request_systems(requests, *, stage_hook=None, kernel=None):
        if not _in_worker_process():
            return traced(requests, stage_hook=stage_hook, kernel=kernel)
        _LOCAL.worker_hook = stage_hook
        try:
            return traced(requests, stage_hook=stage_hook, kernel=kernel)
        finally:
            _LOCAL.worker_hook = None

    api.solve_request_systems = solve_request_systems


def span_overhead_seconds(samples: int = 20000) -> float:
    """Measured cost of one recorded span over a bare call."""
    def bare(*args, **kwargs):
        return None

    wrapped = span("pb.calibrate", bare)
    started = time.perf_counter()
    for _ in range(samples):
        bare()
    bare_time = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced_time = time.perf_counter() - started
    del SPANS[-samples:]
    return max(0.0, (traced_time - bare_time) / samples)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--spans-out" or argv[2] != "--":
        print("usage: launcher.py --spans-out PATH -- serve [flags]",
              file=sys.stderr)
        return 2
    spans_out, serve_argv = argv[1], argv[3:]
    install()
    overhead = span_overhead_seconds()
    from repro.cli import main as cli_main

    code = cli_main(serve_argv)
    if not _in_worker_process():
        with open(spans_out + ".tmp", "w") as handle:
            json.dump({"span_overhead_s": overhead, "spans": SPANS}, handle)
        os.replace(spans_out + ".tmp", spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
