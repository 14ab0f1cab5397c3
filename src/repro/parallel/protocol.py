"""Shard protocol for the process-pool execution backend.

A micro-batch handed to :class:`repro.parallel.ProcessBackend` is cut
into contiguous *shards*, one per worker process.  Each child runs the
full :func:`repro.core.api.solve_request_systems` path (assembly and
batched LU) on its shard, and everything crosses the process boundary
as pickled :class:`ShardTask` / :class:`ShardReply` messages over a
pipe.  The bulk of a reply is one ``n_panels + 1`` row of ``float64``
per request: the expanded circulation strengths followed by the
boundary constant.

The reply is bit-faithful to the inline backend: LAPACK factors each
matrix of the stack independently, and widening ``float32`` results to ``float64`` is
exact — which is what makes response bytes identical across backends.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple


@dataclasses.dataclass(frozen=True)
class ShardTask:
    """One worker's share of a micro-batch.

    Attributes
    ----------
    seq:
        Monotonic dispatch sequence number (labels replies).
    shard_index:
        Position of this shard within the batch's shard list.
    requests:
        The shard's :class:`~repro.core.api.AnalyzeRequest` objects.
    kernel:
        Assembly-kernel selection forwarded to the child (``None``
        defers to the child's ``REPRO_ASSEMBLY_KERNEL`` default) — the
        knob must cross the process boundary explicitly or a parent
        pinned to one kernel would shard onto children using another.
    """

    seq: int
    shard_index: int
    requests: Tuple
    kernel: Optional[str] = None


@dataclasses.dataclass(frozen=True)
class ShardReply:
    """A worker's answer for one :class:`ShardTask`.

    ``outcomes`` aligns with the task's requests: a ``(gamma, constant)``
    pair — the ``float64`` circulation row and the boundary constant —
    for a solved request, or the exception instance that request raised
    during assembly/solve (the same per-request error convention
    :func:`~repro.core.api.evaluate_requests` uses).  ``error`` is a
    whole-shard failure (``outcomes`` is then ``None``).  ``stamps`` are
    ``(stage, rel_start, rel_end, count)`` tuples relative to the
    child's task start, and ``elapsed`` is the child's total task wall
    time — the parent re-anchors both on its own monotonic clock for
    tracing.
    """

    seq: int
    shard_index: int
    outcomes: Optional[Tuple]
    error: Optional[BaseException]
    stamps: Tuple = ()
    elapsed: float = 0.0


def plan_shards(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Cut ``range(n_items)`` into at most *n_shards* contiguous chunks.

    Chunks are balanced to within one item and never empty, so the
    shard count adapts to small batches (a 3-request batch on a
    4-process pool yields 3 single-request shards).
    """
    n_shards = max(1, min(int(n_shards), int(n_items)))
    base, extra = divmod(int(n_items), n_shards)
    bounds = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def anchor_stamps(stamps: Sequence, elapsed: float,
                  received_at: float) -> List[Tuple[str, float, float, int]]:
    """Re-anchor a child's relative stage stamps on the parent's clock.

    The child's monotonic clock is not comparable to the parent's, so
    its task timeline is pinned by estimating the task start as
    ``received_at - elapsed`` (reply receipt minus the child's measured
    task duration) — exact up to the pipe latency of one small message.
    """
    base = float(received_at) - float(elapsed)
    return [(stage, base + start, base + end, count)
            for stage, start, end, count in stamps]


def merge_envelope(spans: Sequence[Tuple[float, float]]
                   ) -> Optional[Tuple[float, float]]:
    """The ``(min_start, max_end)`` envelope of concurrent shard spans.

    This is the *wall* time of a stage running in parallel across the
    pool — the number the paper's W/A/L/O tables put in the ``A`` and
    ``L`` columns — as opposed to the sum of per-shard durations, which
    measures CPU work and exceeds wall whenever shards overlap.
    """
    if not spans:
        return None
    return min(start for start, _ in spans), max(end for _, end in spans)
