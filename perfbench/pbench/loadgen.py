"""Arrival schedules, percentiles and the open-loop HTTP load generator.

The generator is *open loop*: every request has a scheduled send time
fixed before the run starts, and its latency is measured from that
scheduled time, so a server stall is charged to every request it
delays (no coordinated omission).  It uses at most two threads, each
owning one keep-alive connection.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import threading
import time
from typing import List, Optional, Sequence

import numpy as np

#: Percentiles the tail helper may report, highest first.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

#: Samples a reported percentile must leave above it.
MIN_BEYOND = 10

#: Sender threads, each with one keep-alive connection (the host has
#: two cores; more client threads would compete with the server).
CONNECTIONS = 2


#: Seed of the one arrival pattern per (rate, length) that every run
#: replays from its own seeded phase (see :func:`poisson_schedule`).
PATTERN_SEED = 2009


def poisson_schedule(rate: float, seconds: float, seed: int) -> List[float]:
    """Send offsets (seconds) of Poisson arrivals at *rate* over *seconds*.

    The pattern: ``round(rate * seconds)`` arrivals whose gaps are
    exponential with mean ``1 / rate``, drawn by stratified sampling
    (one gap from each equal-probability stratum, jittered within it,
    in random order) and scaled to fill the window exactly.  The window
    is treated as a circle and the pattern is rotated by a phase drawn
    from *seed*, so another seed sends at other times while every run
    meets the same bursts.  Drawing a fresh pattern per seed let the
    seed alone move the cold p90 by up to 40 %, because where bursts
    fall decides how often requests collide on the two connections.
    """
    count = max(1, int(round(rate * seconds)))
    rng = np.random.default_rng([PATTERN_SEED, count])
    strata = (rng.permutation(count) + rng.uniform(size=count)) / count
    gaps = -np.log1p(-strata) / rate
    gaps *= seconds / gaps.sum()
    pattern = np.cumsum(gaps) - gaps[0]
    phase = np.random.default_rng([int(seed), 0x5C4ED]).uniform(0.0, seconds)
    return sorted(float((t + phase) % seconds) for t in pattern)


def _rank(q: float, n: int) -> int:
    """Nearest rank of the *q*-th percentile among *n* samples."""
    return int(math.ceil(round(q * n / 100.0, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile by the nearest-rank rule (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, _rank(q, len(ordered)))
    return float(ordered[min(rank, len(ordered)) - 1])


def tail_percentile(n_samples: int) -> Optional[float]:
    """The highest percentile of :data:`TAIL_LADDER` the sample supports.

    A percentile is supported when at least :data:`MIN_BEYOND` samples
    lie above its nearest rank.  Returns ``None`` below 20 samples.
    """
    for q in TAIL_LADDER:
        rank = _rank(q, n_samples)
        if n_samples - rank >= MIN_BEYOND:
            return q
    return None


@dataclasses.dataclass
class Outcome:
    """What the client saw for one scheduled request."""

    index: int
    request_id: str
    scheduled: float  # monotonic scheduled send time
    sent: float = 0.0  # monotonic actual send time
    done: float = 0.0  # monotonic time the whole body was read
    status: int = 0  # 0 = transport error
    body: bytes = b""

    @property
    def latency_ms(self) -> float:
        """Latency from the *scheduled* send time."""
        return 1e3 * (self.done - self.scheduled)

    @property
    def round_trip_ms(self) -> float:
        """Latency from the actual send time."""
        return 1e3 * (self.done - self.sent)

    @property
    def lag_ms(self) -> float:
        """How late the generator sent this request."""
        return 1e3 * (self.sent - self.scheduled)


def post_json(connection: http.client.HTTPConnection, path: str,
              body: bytes, headers: Optional[dict] = None):
    """One POST on a keep-alive connection; returns ``(status, body)``."""
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    connection.request("POST", path, body, all_headers)
    response = connection.getresponse()
    return response.status, response.read()


def get_json(connection: http.client.HTTPConnection, path: str):
    """One GET returning ``(status, parsed JSON body)``."""
    connection.request("GET", path)
    response = connection.getresponse()
    payload = response.read()
    return response.status, json.loads(payload) if payload else None


def run_open_loop(port: int, bodies: Sequence[bytes],
                  offsets: Sequence[float], *, id_prefix: str = "pb", timeout: float = 60.0
                  ) -> List[Outcome]:
    """Send ``bodies[i]`` to ``/analyze`` at ``start + offsets[i]``.

    Each thread takes the next unsent request, sleeps until it is due,
    and sends it on the thread's own keep-alive connection.  When every
    connection is busy a due request goes out late; its lag is recorded
    and its latency still counts from the scheduled time.
    """
    if len(bodies) != len(offsets):
        raise ValueError("one body per scheduled offset")
    start = time.monotonic() + 0.05
    outcomes = [Outcome(index=i, request_id=f"{id_prefix}-{i}",
                        scheduled=start + offset)
                for i, offset in enumerate(offsets)]
    cursor = iter(range(len(outcomes)))
    lock = threading.Lock()

    def worker() -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=timeout)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                outcome = outcomes[index]
                delay = outcome.scheduled - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                outcome.sent = time.monotonic()
                try:
                    outcome.status, outcome.body = post_json(
                        connection, "/analyze", bodies[index],
                        {"X-Repro-Request-Id": outcome.request_id})
                except (OSError, http.client.HTTPException):
                    outcome.status = 0
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=timeout)
                outcome.done = time.monotonic()
        finally:
            connection.close()

    pool = [threading.Thread(target=worker, daemon=True)
            for _ in range(CONNECTIONS)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return outcomes
