"""Durable job state: append-only journal plus atomic checkpoints.

One :class:`JobStore` owns one jobs directory::

    <jobs_dir>/journal.jsonl            # append-only event log
    <jobs_dir>/checkpoints/<id>.json    # latest checkpoint per job

**Journal.**  Every state change is one JSON line, appended and
flushed (state transitions are also fsynced — they are the durability
promise; per-generation progress lines ride on the OS cache).  On
open, the store replays the journal to rebuild every
:class:`~repro.jobs.model.JobRecord`: a torn *final* line — the
signature of a crash mid-append — is tolerated and counted in
:attr:`JobStore.torn_lines`; a corrupt line anywhere else raises
:class:`~repro.errors.JobError`, because silently skipping interior
history would fabricate job states.  A submitted spec that today's
:meth:`JobSpec.from_dict <repro.jobs.model.JobSpec.from_dict>` rejects
(a journal written under looser validation) skips that one job,
counted in :attr:`JobStore.rejected_specs` and logged; every other job
still replays.  Jobs that were ``RUNNING`` when the process died stay
``RUNNING`` after replay and are reported by :meth:`resumable` for the
runner to pick up.

**Checkpoints.**  :meth:`write_checkpoint` writes the whole payload to
a temp file, fsyncs, and :func:`os.replace`-renames it over the live
checkpoint — a reader never observes a half-written file.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

from repro.errors import JobError, JobNotFoundError
from repro.jobs.metrics import JobMetrics
from repro.jobs.model import (
    JobRecord,
    JobSpec,
    JobState,
    derive_job_id,
    validate_job_key,
)
from repro.obs.logging import StructuredLogger

#: Journal filename inside a jobs directory.
JOURNAL_NAME = "journal.jsonl"

#: Checkpoint subdirectory inside a jobs directory.
CHECKPOINT_DIR = "checkpoints"

#: Legal state transitions (from -> allowed targets).
_TRANSITIONS = {
    JobState.PENDING: {JobState.RUNNING, JobState.CANCELLED, JobState.FAILED},
    JobState.RUNNING: {JobState.DONE, JobState.FAILED, JobState.CANCELLED},
}


def _dumps(payload: dict) -> str:
    # Internal files keep Python's Infinity/NaN tokens (json.loads
    # reads them back); only the HTTP layer needs strict JSON.
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class JobStore:
    """Journal-backed registry of jobs in one directory."""

    def __init__(self, jobs_dir: str, *,
                 logger: Optional[StructuredLogger] = None,
                 metrics: Optional[JobMetrics] = None) -> None:
        self.jobs_dir = str(jobs_dir)
        self.logger = logger if logger is not None else StructuredLogger("off")
        self.metrics = metrics if metrics is not None else JobMetrics()
        os.makedirs(self.jobs_dir, exist_ok=True)
        os.makedirs(os.path.join(self.jobs_dir, CHECKPOINT_DIR), exist_ok=True)
        self._journal_path = os.path.join(self.jobs_dir, JOURNAL_NAME)
        self._lock = threading.RLock()
        self._records: "Dict[str, JobRecord]" = {}
        self._events: "Dict[str, List[dict]]" = {}
        self._keys: "Dict[str, str]" = {}  # job_key -> job_id
        #: Torn final journal lines dropped during replay (0 or 1 per
        #: boot; counted so /metrics can surface crash recoveries).
        self.torn_lines = 0
        #: Journaled jobs skipped during replay because their spec no
        #: longer validates (their later entries are ignored too).
        self.rejected_specs = 0
        self._replay()
        self._journal = open(self._journal_path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    # Journal replay
    # ------------------------------------------------------------------

    def _replay(self) -> None:
        if not os.path.exists(self._journal_path):
            return
        with open(self._journal_path, "r", encoding="utf-8") as handle:
            raw = handle.read()
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()  # trailing newline of a clean append
        for number, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if number == len(lines) - 1:
                    # Crash mid-append: the journal's contract is that
                    # only its final line can be torn.  Truncate the
                    # tail so the next append starts a fresh line
                    # instead of merging with the partial one.
                    self.torn_lines += 1
                    self._truncate_tail(len(line.encode("utf-8")))
                    continue
                raise JobError(
                    f"corrupt journal line {number + 1} in "
                    f"{self._journal_path} (only the final line may be torn)"
                )
            self._apply(entry)

    def _truncate_tail(self, tail_bytes: int) -> None:
        """Drop the torn final line (the bytes after the last newline)."""
        with open(self._journal_path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            handle.truncate(max(0, handle.tell() - tail_bytes))

    def _apply(self, entry: dict) -> None:
        """Fold one replayed journal entry into the in-memory state."""
        kind = entry.get("type")
        job_id = entry.get("id")
        if kind == "submitted":
            try:
                spec = JobSpec.from_dict(entry["spec"])
            except JobError as error:
                self.rejected_specs += 1
                self.logger.event("job_rejected", id=job_id, error=str(error))
                return
            job_key = entry.get("job_key")
            self._records[job_id] = JobRecord(
                id=job_id,
                spec=spec,
                job_key=job_key,
                created_at=float(entry.get("at", 0.0)),
            )
            self._events[job_id] = []
            if job_key is not None:
                self._keys[job_key] = job_id
            return
        record = self._records.get(job_id)
        if record is None:
            return  # an entry for an unknown job: ignore, not fatal
        if kind == "state":
            record.state = entry["state"]
            at = float(entry.get("at", 0.0))
            if record.state == JobState.RUNNING and record.started_at is None:
                record.started_at = at
            if record.state in JobState.TERMINAL:
                record.finished_at = at
            record.error = entry.get("error", record.error)
            if "result" in entry:
                record.result = entry["result"]
        elif kind == "progress":
            event = {key: value for key, value in entry.items()
                     if key not in ("type", "id")}
            self._events[job_id].append(event)
            record.generations_done = max(
                record.generations_done, int(entry.get("generation", -1)) + 1
            )
        elif kind == "cancel":
            record.cancel_requested = True
        elif kind == "resume":
            record.resumes += 1
        # Unknown entry types are skipped (forward compatibility).

    # ------------------------------------------------------------------
    # Journal writing
    # ------------------------------------------------------------------

    def _append(self, entry: dict, *, durable: bool = False) -> None:
        self._journal.write(_dumps(entry) + "\n")
        self._journal.flush()
        if durable:
            os.fsync(self._journal.fileno())

    def _log_state(self, record: JobRecord, **extra) -> None:
        if self.logger.enabled:
            self.logger.event("job", id=record.id, state=record.state,
                              generations_done=record.generations_done,
                              **extra)

    # ------------------------------------------------------------------
    # Submission and lookup
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec, *, job_id: Optional[str] = None,
               job_key: Optional[str] = None) -> JobRecord:
        """Register a new PENDING job and journal it durably.

        With *job_key* set the job gets the deterministic derived ID
        (see :func:`~repro.jobs.model.derive_job_id`); resubmitting an
        existing key raises — use :meth:`submit_idempotent` for the
        duplicate-tolerant path.
        """
        with self._lock:
            if job_key is not None:
                job_key = validate_job_key(job_key)
                if job_key in self._keys:
                    raise JobError(f"job_key {job_key!r} already exists "
                                   f"as job {self._keys[job_key]}")
                job_id = job_id or derive_job_id(job_key)
            job_id = job_id or f"job-{uuid.uuid4().hex[:12]}"
            if job_id in self._records:
                raise JobError(f"job id {job_id!r} already exists")
            record = JobRecord(id=job_id, spec=spec, job_key=job_key,
                               created_at=time.time())
            self._records[job_id] = record
            self._events[job_id] = []
            if job_key is not None:
                self._keys[job_key] = job_id
            entry = {"type": "submitted", "id": job_id,
                     "spec": spec.to_dict(), "at": record.created_at}
            if job_key is not None:
                entry["job_key"] = job_key
            self._append(entry, durable=True)
            self.metrics.increment("submitted")
            self._log_state(record)
            return record

    def submit_idempotent(self, spec: JobSpec, job_key: str) -> "Tuple[JobRecord, bool]":
        """Keyed submission: ``(record, created)``.

        The first submission with *job_key* registers the job exactly
        like :meth:`submit`; every later one returns the existing
        record with ``created=False`` and never double-runs the job.
        The key — not the spec — is the identity: a duplicate key with
        a different spec still returns the original job (counted in
        ``duplicate_submits``), because two racing submitters of "the
        same" job must converge on one record.
        """
        job_key = validate_job_key(job_key)
        with self._lock:
            existing = self._keys.get(job_key)
            if existing is not None:
                self.metrics.increment("duplicate_submits")
                return self.get(existing), False
            return self.submit(spec, job_key=job_key), True

    def find_by_key(self, job_key: str) -> Optional[JobRecord]:
        """The record submitted under *job_key*, or ``None``."""
        with self._lock:
            job_id = self._keys.get(job_key)
            return None if job_id is None else self.get(job_id)

    def get(self, job_id: str) -> JobRecord:
        """The record for *job_id*; raises :class:`JobNotFoundError`."""
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                raise JobNotFoundError(f"no such job: {job_id}")
            return record

    def list(self) -> List[JobRecord]:
        """Every record, oldest submission first."""
        with self._lock:
            return sorted(self._records.values(),
                          key=lambda record: (record.created_at, record.id))

    def state_counts(self) -> dict:
        """How many jobs are in each state (every state always present)."""
        counts = {state: 0 for state in sorted(JobState.ALL)}
        with self._lock:
            for record in self._records.values():
                counts[record.state] += 1
        return counts

    def resumable(self) -> List[JobRecord]:
        """Jobs a fresh runner should pick up, oldest first.

        ``RUNNING`` records are jobs that were mid-run when the
        previous process died (their last checkpoint resumes them);
        ``PENDING`` records never started.
        """
        return [record for record in self.list()
                if record.state in (JobState.PENDING, JobState.RUNNING)]

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def _transition(self, job_id: str, state: str, *,
                    error: Optional[str] = None,
                    result: Optional[dict] = None) -> JobRecord:
        with self._lock:
            record = self.get(job_id)
            allowed = _TRANSITIONS.get(record.state, frozenset())
            if state not in allowed:
                raise JobError(
                    f"job {job_id} cannot move {record.state} -> {state}"
                )
            record.state = state
            at = time.time()
            if state == JobState.RUNNING and record.started_at is None:
                record.started_at = at
            if state in JobState.TERMINAL:
                record.finished_at = at
            if error is not None:
                record.error = error
            if result is not None:
                record.result = result
            entry = {"type": "state", "id": job_id, "state": state, "at": at}
            if error is not None:
                entry["error"] = error
            if result is not None:
                entry["result"] = result
            self._append(entry, durable=True)
            self._log_state(record, error=error)
            return record

    def mark_running(self, job_id: str) -> JobRecord:
        """PENDING -> RUNNING (no-op when already RUNNING — a resume)."""
        with self._lock:
            record = self.get(job_id)
            if record.state == JobState.RUNNING:
                return record
            record = self._transition(job_id, JobState.RUNNING)
            self.metrics.increment("started")
            return record

    def mark_done(self, job_id: str, result: dict) -> JobRecord:
        """RUNNING -> DONE with the terminal result payload."""
        record = self._transition(job_id, JobState.DONE, result=result)
        self.metrics.increment("done")
        return record

    def mark_failed(self, job_id: str, error: str) -> JobRecord:
        """Any live state -> FAILED with the error description."""
        record = self._transition(job_id, JobState.FAILED, error=error)
        self.metrics.increment("failed")
        return record

    def mark_cancelled(self, job_id: str) -> JobRecord:
        """Any live state -> CANCELLED."""
        record = self._transition(job_id, JobState.CANCELLED)
        self.metrics.increment("cancelled")
        return record

    def mark_resumed(self, job_id: str) -> JobRecord:
        """Count one crash-resume for *job_id* (journaled)."""
        with self._lock:
            record = self.get(job_id)
            record.resumes += 1
            self._append({"type": "resume", "id": job_id, "at": time.time()})
            self.metrics.increment("resumed")
            self._log_state(record, resumed=True)
            return record

    def request_cancel(self, job_id: str) -> JobRecord:
        """Ask a job to stop at its next generation boundary.

        Idempotent; a no-op for terminal jobs.  The runner honours the
        flag cooperatively — a PENDING job is cancelled when a worker
        dequeues it, a RUNNING one between generations.
        """
        with self._lock:
            record = self.get(job_id)
            if record.terminal or record.cancel_requested:
                return record
            record.cancel_requested = True
            self._append({"type": "cancel", "id": job_id, "at": time.time()},
                         durable=True)
            self._log_state(record, cancel_requested=True)
            return record

    # ------------------------------------------------------------------
    # Progress events
    # ------------------------------------------------------------------

    def record_progress(self, job_id: str, generation: int,
                        summary: dict) -> dict:
        """Append one per-generation progress event (journaled)."""
        with self._lock:
            record = self.get(job_id)
            event = dict(summary)
            event["generation"] = int(generation)
            event["seq"] = len(self._events[job_id]) + 1
            event["at"] = time.time()
            self._events[job_id].append(event)
            record.generations_done = max(record.generations_done,
                                          int(generation) + 1)
            self._append(dict(event, type="progress", id=job_id))
            return event

    def events(self, job_id: str, since: int = 0) -> List[dict]:
        """Progress events with ``seq > since``, oldest first."""
        with self._lock:
            self.get(job_id)  # raise JobNotFoundError for unknown ids
            return [event for event in self._events[job_id]
                    if event["seq"] > since]

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def _checkpoint_path(self, job_id: str) -> str:
        return os.path.join(self.jobs_dir, CHECKPOINT_DIR, f"{job_id}.json")

    def write_checkpoint(self, job_id: str, payload: dict) -> str:
        """Atomically persist *payload* as the job's latest checkpoint."""
        path = self._checkpoint_path(job_id)
        tmp_path = path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(_dumps(payload))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
        self.metrics.increment("checkpoints")
        if self.logger.enabled:
            self.logger.event("job_checkpoint", id=job_id,
                              generation_offset=payload.get("generation_offset"))
        return path

    def load_checkpoint(self, job_id: str) -> Optional[dict]:
        """The job's latest checkpoint payload, or ``None``."""
        path = self._checkpoint_path(job_id)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError as error:
            # os.replace is atomic, so a checkpoint is either absent or
            # whole; a parse failure means outside interference.
            raise JobError(f"corrupt checkpoint {path}: {error}")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Flush and close the journal handle (idempotent)."""
        with self._lock:
            if not self._journal.closed:
                self._journal.flush()
                self._journal.close()
