"""Execution backends: inline, and a pool of worker processes.

The paper's CPU-path observation is that *assembly dominates* and must
be overlapped with the solve; a Python serving process cannot get that
overlap from threads because assembly is GIL-bound numpy-and-loop
work.  :class:`ProcessBackend` therefore shards each micro-batch
across ``N`` persistent worker processes — real execution units.  Each
worker assembles *and* solves its shard and sends back, over its pipe,
one ``n_panels + 1`` row of ``float64`` per request (the circulation
strengths and the boundary constant); the parent rebuilds each
:class:`~repro.panel.solution.PanelSolution` from the request it
already holds.

The seam is :class:`ExecutionBackend`: one method,
``solve(requests, stage_hook=...)``, returning per-request
:class:`~repro.panel.solution.PanelSolution` entries (or the
:class:`~repro.errors.ReproError` a request raised).
:class:`InlineBackend` is the default and simply runs
:func:`repro.core.api.solve_request_systems` in the calling thread;
``ProcessBackend`` is opt-in via ``AnalysisService(exec_backend=...)``,
``serve --exec-backend process``, or ``REPRO_EXEC_BACKEND=process``.

Failure containment, not just speed:

* a crashed or killed child fails **only its shard's requests** with
  :class:`~repro.errors.ExecutionBackendError`; batchmates on sibling
  workers are answered normally and the pool re-forms;
* if worker processes cannot be started at all (or every worker dies
  on first use), the backend **degrades to inline execution** — the
  batch is still answered correctly, and the fallback is counted in
  ``stats()`` so ``/metrics`` shows it;
* after :meth:`ProcessBackend.close`, stray calls also fall back
  inline rather than erroring.

Small batches are a real trade-off: dispatching one request to one
child costs a pickled pipe round trip, so inline wins below a
handful of requests per shard — see the "Execution
backends" section of ``docs/serving.md``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionBackendError, ServeError
from repro.panel.assembly import Closure
from repro.panel.solution import PanelSolution
from repro.parallel.protocol import (
    ShardReply,
    ShardTask,
    anchor_stamps,
    merge_envelope,
    plan_shards,
)

#: Environment variable selecting the default backend (``inline`` /
#: ``process``) used when no explicit backend is passed.
BACKEND_ENV = "REPRO_EXEC_BACKEND"

#: Environment variable overriding the process backend's worker count.
PROCS_ENV = "REPRO_EXEC_PROCS"

#: Seconds a dispatched shard may run before its worker is declared
#: wedged, killed, and the shard failed.
SHARD_TIMEOUT = 120.0

#: Seconds to wait for a fresh worker's ready handshake.
START_TIMEOUT = 30.0


class ExecutionBackend:
    """Where a micro-batch's assembly + batched LU actually runs.

    Subclasses implement :meth:`solve`; :meth:`stats` and
    :meth:`close` have safe defaults so callers can treat every
    backend uniformly.
    """

    name = "abstract"

    def solve(self, requests: Sequence, *, stage_hook=None,
              kernel=None) -> List:
        """Assemble and solve *requests*; one entry per request, in
        order — a :class:`~repro.panel.solution.PanelSolution` or the
        :class:`~repro.errors.ReproError` that request raised.
        ``kernel`` selects the assembly kernel (``None`` defers to
        ``REPRO_ASSEMBLY_KERNEL``; see ``docs/kernels.md``)."""
        raise NotImplementedError

    def stats(self) -> dict:
        """JSON-ready counters for the ``/metrics`` document."""
        return {"name": self.name}

    def close(self) -> None:
        """Release any resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class InlineBackend(ExecutionBackend):
    """The default backend: solve in the calling thread."""

    name = "inline"

    def solve(self, requests: Sequence, *, stage_hook=None,
              kernel=None) -> List:
        from repro.core.api import solve_request_systems

        return solve_request_systems(requests, stage_hook=stage_hook,
                                     kernel=kernel)

    def stats(self) -> dict:
        return {"name": self.name, "procs": 0}


# ----------------------------------------------------------------------
# Worker-process side
# ----------------------------------------------------------------------

def _picklable(error: BaseException) -> BaseException:
    """Best-effort: an exception safe to send over a pipe."""
    import pickle

    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return ServeError(f"{type(error).__name__}: {error}")


def _run_shard(task: ShardTask) -> ShardReply:
    """Execute one shard inside a worker process."""
    from repro.core.api import solve_request_systems

    base = time.monotonic()
    stamps: List[Tuple[str, float, float, int]] = []

    def hook(stage: str, start: float, end: float, count: int) -> None:
        stamps.append((stage, start - base, end - base, count))

    solved = solve_request_systems(task.requests, stage_hook=hook,
                                   kernel=task.kernel)
    outcomes = tuple(
        _picklable(entry) if isinstance(entry, BaseException)
        else (entry.gamma, entry.constant)
        for entry in solved
    )
    return ShardReply(seq=task.seq, shard_index=task.shard_index,
                      outcomes=outcomes, error=None, stamps=tuple(stamps),
                      elapsed=time.monotonic() - base)


def _worker_main(conn) -> None:
    """Persistent worker loop: recv a task, run it, send the reply.

    ``SIGINT`` is ignored so a terminal Ctrl-C drains through the
    parent's graceful shutdown instead of killing children mid-shard.
    Exits on EOF, a ``None`` sentinel, or a broken pipe.
    """
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    try:
        conn.send(("ready", os.getpid()))
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        return
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            reply = _run_shard(task)
        except BaseException as error:  # whole-shard failure
            reply = ShardReply(seq=task.seq, shard_index=task.shard_index,
                               outcomes=None, error=_picklable(error))
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
            return


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

class _Worker:
    """One pool member: the process and the parent end of its pipe."""

    __slots__ = ("process", "conn")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class _Shard:
    """Book-keeping for one dispatched shard."""

    __slots__ = ("index", "bounds", "task", "worker",
                 "sent_at", "received_at", "reply")

    def __init__(self, index: int, bounds: Tuple[int, int]) -> None:
        self.index = index
        self.bounds = bounds
        self.task: Optional[ShardTask] = None
        self.worker: Optional[_Worker] = None
        self.sent_at = 0.0
        self.received_at = 0.0
        self.reply: Optional[ShardReply] = None


def _default_procs() -> int:
    """Worker count when none is configured: ``REPRO_EXEC_PROCS``, else
    2..4, always >= 2 so the sharded code path is exercised even on
    small hosts."""
    raw = os.environ.get(PROCS_ENV, "").strip()
    if not raw:
        return max(2, min(4, os.cpu_count() or 2))
    try:
        procs = int(raw)
    except ValueError:
        procs = 0
    if procs < 1:
        raise ServeError(
            f"{PROCS_ENV} must be a positive integer, got {raw!r}"
        )
    return procs


class ProcessBackend(ExecutionBackend):
    """Shard assembly and the batched LU across worker processes.

    Parameters
    ----------
    n_procs:
        Worker processes (default: ``REPRO_EXEC_PROCS`` or 2..4 from
        the host's core count; always at least 2).

    Workers start with ``fork`` where the platform has it, else
    ``spawn``.  Construction never raises for environmental reasons:
    if workers cannot be started the backend marks itself broken and
    serves every batch inline (see ``stats()['inline_fallbacks']``).
    """

    name = "process"

    def __init__(self, n_procs: Optional[int] = None) -> None:
        procs = _default_procs() if n_procs is None else int(n_procs)
        if procs < 1:
            raise ServeError(f"n_procs must be at least 1, got {n_procs}")
        self.n_procs = procs
        self._lock = threading.Lock()
        self._workers: List[Optional[_Worker]] = [None] * procs
        self._seq = 0
        self._closed = False
        self._broken = False
        self._ever_succeeded = False
        self._shards_dispatched = 0
        self._sharded_requests = 0
        self._worker_crashes = 0
        self._worker_restarts = 0
        self._inline_fallbacks = 0
        self._start_failures = 0
        #: Test seam: called as ``(shard_index, worker)`` right after a
        #: shard is written to its worker's pipe (used by the crash
        #: tests to SIGKILL a child deterministically mid-shard).
        self._after_dispatch: Optional[Callable] = None
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        try:
            with self._lock:
                self._ensure_workers_locked()
        except Exception:
            self._note_start_failure()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------

    def _spawn_worker(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child_conn,),
            name=f"repro-exec-{index}", daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(START_TIMEOUT):
            process.terminate()
            raise ExecutionBackendError(
                f"worker {index} did not complete its ready handshake "
                f"within {START_TIMEOUT:g}s"
            )
        parent_conn.recv()  # ("ready", pid)
        return _Worker(process, parent_conn)

    def _ensure_workers_locked(self) -> None:
        """Spawn (or respawn) every missing worker; called under lock."""
        for index in range(self.n_procs):
            worker = self._workers[index]
            if worker is not None and worker.alive:
                continue
            if worker is not None:
                self._discard_worker(worker)
                self._workers[index] = None
            self._workers[index] = self._spawn_worker(index)
            if worker is not None:
                self._worker_restarts += 1

    def _discard_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=1.0)
        if worker.process.is_alive():  # pragma: no cover - stubborn child
            worker.process.kill()
            worker.process.join(timeout=1.0)

    def _note_start_failure(self) -> None:
        with self._lock:
            self._broken = True
            self._start_failures += 1

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker (graceful sentinel, then terminate)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            deadline = time.monotonic() + max(0.0, float(timeout))
            for worker in self._workers:
                if worker is None:
                    continue
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for worker in self._workers:
                if worker is None:
                    continue
                worker.process.join(
                    timeout=max(0.0, deadline - time.monotonic())
                )
                self._discard_worker(worker)
            self._workers = [None] * self.n_procs

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------

    def _fallback(self, requests: Sequence, stage_hook,
                  kernel=None) -> List:
        from repro.core.api import solve_request_systems

        with self._lock:
            self._inline_fallbacks += 1
        return solve_request_systems(requests, stage_hook=stage_hook,
                                     kernel=kernel)

    def solve(self, requests: Sequence, *, stage_hook=None,
              kernel=None) -> List:
        requests = list(requests)
        if not requests:
            return []
        if self._closed or self._broken:
            return self._fallback(requests, stage_hook, kernel)
        with self._lock:
            try:
                self._ensure_workers_locked()
            except Exception:
                self._broken = True
                self._start_failures += 1
            else:
                return self._solve_locked(requests, stage_hook, kernel)
        return self._fallback(requests, stage_hook, kernel)

    def _solve_locked(self, requests: List, stage_hook,
                      kernel=None) -> List:
        shards = [_Shard(index, bounds) for index, bounds in
                  enumerate(plan_shards(len(requests), self.n_procs))]
        self._dispatch(shards, requests, kernel)
        self._collect(shards)
        crashed = [shard for shard in shards if shard.reply is None]
        if crashed:
            self._worker_crashes += len(crashed)
            self._repair_after_crash(crashed)
            if len(crashed) == len(shards) and not self._ever_succeeded:
                # Every worker died the very first time the pool was
                # used: treat it as a failed start and degrade.
                self._broken = True
                self._start_failures += 1
                self._inline_fallbacks += 1
                from repro.core.api import solve_request_systems

                return solve_request_systems(requests,
                                             stage_hook=stage_hook,
                                             kernel=kernel)
        if any(shard.reply is not None for shard in shards):
            self._ever_succeeded = True
        self._shards_dispatched += len(shards)
        self._sharded_requests += len(requests)
        return self._gather(shards, requests, stage_hook)

    def _dispatch(self, shards: List[_Shard], requests: List,
                  kernel=None) -> None:
        for shard in shards:
            start, stop = shard.bounds
            self._seq += 1
            shard.task = ShardTask(
                seq=self._seq, shard_index=shard.index,
                requests=tuple(requests[start:stop]), kernel=kernel,
            )
            worker = self._workers[shard.index]
            try:
                worker.conn.send(shard.task)
            except (BrokenPipeError, OSError):
                # The worker died while idle; one respawn-and-resend
                # attempt is safe because the task never started.
                try:
                    self._discard_worker(worker)
                    worker = self._spawn_worker(shard.index)
                    self._workers[shard.index] = worker
                    self._worker_restarts += 1
                    worker.conn.send(shard.task)
                except Exception:
                    shard.worker = worker
                    shard.sent_at = time.monotonic()
                    continue  # collected as a crashed shard
            shard.worker = worker
            shard.sent_at = time.monotonic()
            if self._after_dispatch is not None:
                self._after_dispatch(shard.index, worker)

    def _collect(self, shards: List[_Shard]) -> None:
        for shard in shards:
            worker = shard.worker
            deadline = shard.sent_at + SHARD_TIMEOUT
            while shard.reply is None:
                try:
                    if worker.conn.poll(0.02):
                        shard.reply = worker.conn.recv()
                        break
                except (EOFError, OSError):
                    break
                if not worker.alive:
                    # Drain a reply the child managed to write before
                    # dying, so finished work is never discarded.
                    try:
                        if worker.conn.poll(0):
                            shard.reply = worker.conn.recv()
                    except (EOFError, OSError):
                        pass
                    break
                if time.monotonic() > deadline:
                    worker.process.kill()
                    worker.process.join(timeout=1.0)
                    break
            shard.received_at = time.monotonic()

    def _repair_after_crash(self, crashed: List[_Shard]) -> None:
        """Re-form the pool after one or more workers were lost.

        A crashed shard's worker is replaced even when ``is_alive()``
        still says True: the pipe reports EOF before the kernel has
        reaped a killed child.
        """
        try:
            for shard in crashed:
                self._discard_worker(shard.worker)
                self._workers[shard.index] = self._spawn_worker(shard.index)
                self._worker_restarts += 1
            self._ensure_workers_locked()
        except Exception:
            self._broken = True
            self._start_failures += 1

    def _gather(self, shards: List[_Shard], requests: List,
                stage_hook) -> List:
        results: List = [None] * len(requests)
        anchored: List[Tuple[str, float, float, int]] = []
        for shard in shards:
            start, stop = shard.bounds
            reply = shard.reply
            if reply is None or reply.error is not None:
                detail = ("worker process crashed or timed out"
                          if reply is None
                          else f"worker shard failed: {reply.error!r}")
                error = ExecutionBackendError(
                    f"{detail}; {stop - start} request(s) of shard "
                    f"{shard.index} failed (batchmates are unaffected)"
                )
                for index in range(start, stop):
                    results[index] = error
                continue
            anchored.extend(anchor_stamps(reply.stamps, reply.elapsed,
                                          shard.received_at))
            for index, outcome in zip(range(start, stop), reply.outcomes):
                if isinstance(outcome, BaseException):
                    results[index] = outcome
                else:
                    results[index] = self._solution(requests[index],
                                                    *outcome)
        self._emit_stamps(anchored, len(requests), stage_hook)
        return results

    @staticmethod
    def _solution(request, gamma: np.ndarray,
                  constant: float) -> PanelSolution:
        """Rebuild a worker-solved request's :class:`PanelSolution`."""
        return PanelSolution(
            airfoil=request.build_airfoil(), freestream=request.freestream(),
            closure=Closure.KUTTA, gamma=gamma, constant=constant,
        )

    def _emit_stamps(self, anchored: List, n_requests: int,
                     stage_hook) -> None:
        """Per-shard attribution plus parallel-wall envelopes.

        Each child stamp is re-emitted under ``<stage>_shard`` so
        traces and ``/metrics`` show where every worker spent its time;
        the envelope of the shard spans is emitted under the core stage
        name, so ``assembly_seconds`` and ``solve_seconds`` keep
        measuring *wall* time — comparable across backends
        and consistent with the W/A/L/O identity.
        """
        if stage_hook is None:
            return
        by_stage: Dict[str, List[Tuple[float, float]]] = {}
        for stage, start, end, count in anchored:
            stage_hook(f"{stage}_shard", start, end, count)
            by_stage.setdefault(stage, []).append((start, end))
        for stage, spans in by_stage.items():
            envelope = merge_envelope(spans)
            if envelope is not None:
                stage_hook(stage, envelope[0], envelope[1], n_requests)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            alive = sum(1 for worker in self._workers
                        if worker is not None and worker.alive)
            return {
                "name": self.name,
                "procs": self.n_procs,
                "alive_workers": alive,
                "broken": self._broken,
                "shards": self._shards_dispatched,
                "sharded_requests": self._sharded_requests,
                "worker_crashes": self._worker_crashes,
                "worker_restarts": self._worker_restarts,
                "inline_fallbacks": self._inline_fallbacks,
                "start_failures": self._start_failures,
            }


# ----------------------------------------------------------------------
# Registry and defaults
# ----------------------------------------------------------------------

#: Recognized backend names for :func:`make_backend`.
BACKEND_NAMES = ("inline", "process")


def make_backend(name: str, *,
                 n_procs: Optional[int] = None) -> ExecutionBackend:
    """Construct a backend by name (``inline`` or ``process``)."""
    normalized = str(name).strip().lower()
    if normalized == "inline":
        return InlineBackend()
    if normalized == "process":
        return ProcessBackend(n_procs=n_procs)
    raise ServeError(
        f"unknown execution backend {name!r}; "
        f"expected one of {', '.join(BACKEND_NAMES)}"
    )


_default_lock = threading.Lock()
_default_backend: Optional[ExecutionBackend] = None
_default_name: Optional[str] = None


def default_backend() -> ExecutionBackend:
    """The process-wide backend used when none is passed explicitly.

    Chosen by ``REPRO_EXEC_BACKEND`` (default ``inline``) and cached;
    the cache is invalidated when the variable's value changes, so
    tests can flip backends with ``monkeypatch.setenv``.
    """
    global _default_backend, _default_name
    name = os.environ.get(BACKEND_ENV, "inline").strip().lower() or "inline"
    with _default_lock:
        if _default_backend is None or _default_name != name:
            if _default_backend is not None:
                _default_backend.close()
            _default_backend = make_backend(name)
            _default_name = name
        return _default_backend


def close_default_backend() -> None:
    """Close and forget the cached default backend (tests, atexit)."""
    global _default_backend, _default_name
    with _default_lock:
        if _default_backend is not None:
            _default_backend.close()
        _default_backend = None
        _default_name = None


atexit.register(close_default_backend)


def resolve_backend(backend=None) -> ExecutionBackend:
    """Coerce an ``evaluate_requests(backend=...)`` argument.

    ``None`` resolves to :func:`default_backend`; an
    :class:`ExecutionBackend` instance passes through.  Strings are
    deliberately rejected here — construct once with
    :func:`make_backend` instead of respawning a pool per call.
    """
    if backend is None:
        return default_backend()
    if isinstance(backend, ExecutionBackend):
        return backend
    raise ServeError(
        f"backend must be an ExecutionBackend or None, got "
        f"{type(backend).__name__}; use make_backend() for names"
    )
