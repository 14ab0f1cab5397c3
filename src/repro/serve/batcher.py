"""Dynamic micro-batching of analyze requests.

Coalescing concurrent requests into stacks is the serving analogue of
the paper's pipeline slicing: the offline pipeline cuts one huge batch
into slices so assembly overlaps the solve, while the service glues
tiny requests into stacks big enough to amortize per-call overhead.
The default batcher needs no timer for that.  It is work-conserving:
a worker flushes as soon as the queue is empty, and the requests that
queue while a solve runs make the next batch.  A flush deadline only
adds latency when the queue is empty, so ``max_wait`` defaults to 0;
an operator opts into a timer with ``--max-wait-ms``.

Two pieces live here:

* :class:`BatchPolicy` — the max-batch and flush-deadline knobs;
* :func:`collect_batch` — the queue-draining loop a worker runs to
  coalesce one micro-batch.
"""

from __future__ import annotations

import dataclasses
import math
import queue as queue_module
import time
from typing import List, Optional, Tuple

from repro.errors import ServeError

#: The default micro-batch cap: beyond this, stacking stops paying for
#: the extra queueing latency at serving concurrency levels.
MAX_BATCH_CEILING = 64


@dataclasses.dataclass(frozen=True)
class BatchPolicy:
    """The micro-batcher's two knobs.

    Parameters
    ----------
    max_batch:
        Flush as soon as this many requests are coalesced.
    max_wait:
        Flush when the oldest request in the forming batch has waited
        this long (seconds), even if the batch is not full.  The
        default 0 flushes whatever is queued without waiting.
    """

    max_batch: int = MAX_BATCH_CEILING
    max_wait: float = 0.0

    def __post_init__(self) -> None:
        try:
            batch = int(self.max_batch)
        except (TypeError, ValueError):
            raise ServeError(f"max_batch must be an integer, got {self.max_batch!r}")
        if batch != self.max_batch:
            # A fractional max_batch (say 2.7) used to be silently
            # truncated to 2 — flushing earlier than configured, which
            # reads as a throughput regression with no error anywhere.
            raise ServeError(f"max_batch must be an integer, got {self.max_batch!r}")
        if batch < 1:
            raise ServeError(f"max_batch must be at least 1, got {self.max_batch}")
        object.__setattr__(self, "max_batch", batch)
        wait = float(self.max_wait)
        if not math.isfinite(wait) or wait < 0.0:
            raise ServeError(f"max_wait must be finite and >= 0, got {self.max_wait}")
        object.__setattr__(self, "max_wait", wait)


def collect_batch(source: "queue_module.Queue", first_item, policy: BatchPolicy, *,
                  sentinel=None, clock=time.monotonic,
                  drop=None, on_admit=None, enqueued_at=None) -> Tuple[List, bool]:
    """Coalesce one micro-batch starting from an already-dequeued item.

    Drains *source* until the batch holds ``policy.max_batch`` items or
    the *oldest admitted item* has waited ``policy.max_wait`` since it
    was enqueued; a backlog present at the deadline is still drained
    without waiting, so a congested queue always flushes full stacks.

    *enqueued_at*, when given, maps an item to the ``clock()`` stamp at
    which it entered the queue; the flush deadline is anchored there.
    This matters whenever the worker dequeues *first_item* later than
    it was submitted (a solve was in flight, say): ``max_wait`` is a
    promise about how long a request may sit waiting for batchmates,
    and anchoring at collection start silently extended that promise by
    the whole queue wait.  Without *enqueued_at* the deadline falls
    back to collection start (the old behavior, correct only when the
    queue wait is negligible).

    *drop*, when given, is consulted for every dequeued item (including
    *first_item*): returning True discards the item instead of batching
    it — this is where expired or cancelled requests are shed *before*
    they cost a solve slot.  The callable owns any accounting or waiter
    notification for what it drops, and dropped items do not count
    toward ``max_batch``, so dead work never displaces live work.

    *on_admit*, when given, is called with every item that joins the
    batch, at the moment it joins — the tracing hook that marks the end
    of a request's queue wait and the start of its batch-collect stage
    (see :mod:`repro.serve.tracing`).  It must be cheap and must not
    raise.

    Returns ``(items, saw_sentinel)``; ``items`` may be empty when
    everything was dropped.  When the shutdown *sentinel* is drawn it
    is pushed back (so sibling workers also observe it), the batch
    collected so far is returned, and ``saw_sentinel`` is True.
    """
    items: List = []
    deadline: Optional[float] = None

    def admit(item) -> None:
        nonlocal deadline
        if drop is None or not drop(item):
            if on_admit is not None:
                on_admit(item)
            items.append(item)
            if deadline is None and enqueued_at is not None:
                # Anchor at the oldest *admitted* item: dropped items
                # never waited for this batch, so they cannot shorten
                # its window.
                deadline = float(enqueued_at(item)) + policy.max_wait

    started = clock()
    admit(first_item)
    while len(items) < policy.max_batch:
        # No anchored deadline yet (no enqueued_at, or everything so
        # far was dropped): fall back to the collection-start anchor.
        effective = deadline if deadline is not None else started + policy.max_wait
        remaining = effective - clock()
        try:
            if remaining <= 0.0:
                item = source.get_nowait()
            else:
                item = source.get(timeout=remaining)
        except queue_module.Empty:
            break
        if sentinel is not None and item is sentinel:
            source.put(item)
            return items, True
        admit(item)
    return items, False
