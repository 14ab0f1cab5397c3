"""Process-parallel execution backends for micro-batch evaluation.

This package supplies the :class:`ExecutionBackend` seam used by
:func:`repro.core.api.evaluate_requests`: ``inline`` (default — solve
in the calling thread) and ``process`` (shard a micro-batch across
persistent worker processes; each worker assembles and LU-solves its
shard and sends the circulation rows back over its pipe).  See
:mod:`repro.parallel.pool` for the backend implementations,
:mod:`repro.parallel.protocol` for the shard messages and maths, and
the "Execution backends" section of ``docs/serving.md`` for
trade-offs.
"""

from repro.parallel.pool import (
    BACKEND_ENV,
    BACKEND_NAMES,
    PROCS_ENV,
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    close_default_backend,
    default_backend,
    make_backend,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "PROCS_ENV",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessBackend",
    "close_default_backend",
    "default_backend",
    "make_backend",
    "resolve_backend",
]
