"""Tests for micro-batch collection and the work-conserving default policy."""

import queue
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import AnalysisService, BatchPolicy, WorkerPool, collect_batch
from repro.serve.batcher import MAX_BATCH_CEILING


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ServeError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ServeError):
            BatchPolicy(max_wait=-1.0)
        with pytest.raises(ServeError):
            BatchPolicy(max_wait=float("inf"))

    def test_coerces_types(self):
        policy = BatchPolicy(max_batch=8.0, max_wait=1)
        assert policy.max_batch == 8 and policy.max_wait == 1.0

    def test_rejects_fractional_max_batch(self):
        # Regression: 2.7 used to be silently truncated to 2, flushing
        # smaller batches than configured with no error anywhere.
        with pytest.raises(ServeError, match="integer"):
            BatchPolicy(max_batch=2.7)

    def test_rejects_non_numeric_max_batch(self):
        with pytest.raises(ServeError, match="integer"):
            BatchPolicy(max_batch="eight")


class TestCollectBatch:
    def test_max_batch_path_flushes_without_waiting(self):
        source = queue.Queue()
        for index in range(10):
            source.put(index)
        first = source.get()
        start = time.monotonic()
        items, saw = collect_batch(source, first,
                                   BatchPolicy(max_batch=4, max_wait=5.0))
        elapsed = time.monotonic() - start
        assert items == [0, 1, 2, 3] and not saw
        assert elapsed < 1.0  # did NOT sit out the 5 s deadline
        assert source.qsize() == 6

    def test_deadline_path_flushes_partial_batch(self):
        source = queue.Queue()
        start = time.monotonic()
        items, saw = collect_batch(source, "only",
                                   BatchPolicy(max_batch=8, max_wait=0.05))
        elapsed = time.monotonic() - start
        assert items == ["only"] and not saw
        assert 0.04 <= elapsed < 1.0

    def test_zero_wait_still_drains_backlog(self):
        source = queue.Queue()
        for index in range(5):
            source.put(index)
        first = source.get()
        items, saw = collect_batch(source, first,
                                   BatchPolicy(max_batch=100, max_wait=0.0))
        assert items == [0, 1, 2, 3, 4] and not saw

    def test_sentinel_is_pushed_back(self):
        sentinel = object()
        source = queue.Queue()
        source.put("b")
        source.put(sentinel)
        items, saw = collect_batch(source, "a",
                                   BatchPolicy(max_batch=10, max_wait=0.0),
                                   sentinel=sentinel)
        assert items == ["a", "b"] and saw
        # Re-queued so sibling workers observe the shutdown too.  (In
        # real use the sentinel is always last: admissions stop before
        # shutdown enqueues it.)
        assert source.get_nowait() is sentinel


class TestCollectBatchDrop:
    def test_dropped_items_are_excluded_and_notified(self):
        source = queue.Queue()
        for value in (1, -2, 3, -4, 5):
            source.put(value)
        first = source.get()
        dropped = []

        def drop(item):
            if item < 0:
                dropped.append(item)
                return True
            return False

        items, saw = collect_batch(source, first,
                                   BatchPolicy(max_batch=10, max_wait=0.0),
                                   drop=drop)
        assert items == [1, 3, 5] and not saw
        assert dropped == [-2, -4]

    def test_first_item_can_be_dropped(self):
        source = queue.Queue()
        source.put("live")
        items, saw = collect_batch(source, "dead",
                                   BatchPolicy(max_batch=4, max_wait=0.0),
                                   drop=lambda item: item == "dead")
        assert items == ["live"] and not saw

    def test_all_dropped_returns_empty_batch(self):
        source = queue.Queue()
        source.put("dead")
        items, saw = collect_batch(source, "dead",
                                   BatchPolicy(max_batch=4, max_wait=0.0),
                                   drop=lambda item: True)
        assert items == [] and not saw

    def test_dropped_items_do_not_consume_batch_slots(self):
        """Dead work must not displace live work: with max_batch=2 and
        expired items interleaved, the batch still fills with live ones."""
        source = queue.Queue()
        for value in ("dead", "live-1", "dead", "live-2"):
            source.put(value)
        first = source.get()
        items, _ = collect_batch(source, first,
                                 BatchPolicy(max_batch=2, max_wait=0.0),
                                 drop=lambda item: item == "dead")
        assert items == ["live-1", "live-2"]

    def test_sentinel_still_observed_while_dropping(self):
        sentinel = object()
        source = queue.Queue()
        source.put("dead")
        source.put(sentinel)
        items, saw = collect_batch(source, "live",
                                   BatchPolicy(max_batch=10, max_wait=0.0),
                                   sentinel=sentinel,
                                   drop=lambda item: item == "dead")
        assert items == ["live"] and saw
        assert source.get_nowait() is sentinel

    @given(expired=st.lists(st.booleans(), min_size=1, max_size=30),
           max_batch=st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_property_zero_wait_with_expired_items(self, expired, max_batch):
        """With max_wait=0 and a pre-filled backlog of (index, expired)
        items: no expired item is ever batched, live items keep FIFO
        order, and the batch never exceeds max_batch live items."""
        backlog = list(enumerate(expired))
        source = queue.Queue()
        for entry in backlog[1:]:
            source.put(entry)
        dropped = []

        def drop(entry):
            if entry[1]:
                dropped.append(entry)
                return True
            return False

        items, saw = collect_batch(source, backlog[0],
                                   BatchPolicy(max_batch=max_batch,
                                               max_wait=0.0),
                                   drop=drop)
        assert not saw
        assert all(not is_expired for _, is_expired in items)
        assert len(items) <= max_batch
        live = [entry for entry in backlog if not entry[1]]
        assert items == live[:len(items)]  # FIFO order, no skips
        # Everything examined was either batched or dropped; nothing
        # vanished.  (The scan stops once the batch is full.)
        examined = len(items) + len(dropped) + source.qsize()
        assert examined == len(backlog)
        if len(items) < max_batch:  # backlog exhausted without filling up
            assert items == live
            assert dropped == [entry for entry in backlog if entry[1]]


class TestDeadlineAnchoring:
    """The flush deadline is a promise about the *oldest request's*
    total wait, so it anchors at that request's enqueue stamp, not at
    whenever a worker got around to collecting the batch."""

    def test_stale_first_item_flushes_immediately(self):
        # Regression: the item already waited 10 s in the queue (a
        # solve was in flight); pre-fix the deadline restarted at
        # collection time and the item sat out another full max_wait.
        source = queue.Queue()
        item = ("req", time.monotonic() - 10.0)
        start = time.monotonic()
        items, saw = collect_batch(source, item,
                                   BatchPolicy(max_batch=8, max_wait=0.25),
                                   enqueued_at=lambda it: it[1])
        elapsed = time.monotonic() - start
        assert items == [item] and not saw
        assert elapsed < 0.1

    def test_partially_spent_budget_waits_only_the_remainder(self):
        source = queue.Queue()
        item = ("req", time.monotonic() - 0.2)
        start = time.monotonic()
        items, _ = collect_batch(source, item,
                                 BatchPolicy(max_batch=8, max_wait=0.3),
                                 enqueued_at=lambda it: it[1])
        elapsed = time.monotonic() - start
        assert items == [item]
        assert 0.05 <= elapsed < 0.25  # ~0.1 s remained of the budget

    def test_fresh_first_item_still_waits_the_full_window(self):
        source = queue.Queue()
        item = ("req", time.monotonic())
        start = time.monotonic()
        items, _ = collect_batch(source, item,
                                 BatchPolicy(max_batch=8, max_wait=0.05),
                                 enqueued_at=lambda it: it[1])
        elapsed = time.monotonic() - start
        assert items == [item]
        assert 0.04 <= elapsed < 1.0

    def test_anchor_comes_from_first_admitted_not_first_dropped(self):
        # The dropped first item never waited for this batch; the
        # deadline anchors at the first *admitted* item, whose budget
        # here is already spent — so collection returns immediately.
        source = queue.Queue()
        live = ("live", time.monotonic() - 10.0)
        source.put(live)
        start = time.monotonic()
        items, _ = collect_batch(source, ("dead", time.monotonic()),
                                 BatchPolicy(max_batch=8, max_wait=0.25),
                                 drop=lambda it: it[0] == "dead",
                                 enqueued_at=lambda it: it[1])
        elapsed = time.monotonic() - start
        assert items == [live]
        assert elapsed < 0.1


class _RecordingQueue(queue.Queue):
    """A queue that records the timeout of every blocking ``get``."""

    def __init__(self):
        super().__init__()
        self.blocking_gets = []

    def get(self, block=True, timeout=None):
        if block:
            self.blocking_gets.append(timeout)
        return super().get(block, timeout)


class TestWorkConservingDefault:
    """``BatchPolicy()`` flushes whatever is queued and never waits for
    batchmates: requests that queue while a solve runs form the next
    batch, so no timer is needed."""

    def test_default_is_64_with_no_wait(self):
        assert BatchPolicy() == BatchPolicy(MAX_BATCH_CEILING, 0.0)
        assert BatchPolicy() == BatchPolicy(64, 0.0)

    def test_lone_item_returns_without_a_blocking_get(self):
        source = _RecordingQueue()
        items, saw = collect_batch(source, "only", BatchPolicy(),
                                   clock=lambda: 100.0,
                                   enqueued_at=lambda item: 100.0)
        assert items == ["only"] and not saw
        assert source.blocking_gets == []

    def test_lone_item_without_enqueue_stamps(self):
        source = _RecordingQueue()
        items, _ = collect_batch(source, "only", BatchPolicy(),
                                 clock=lambda: 7.0)
        assert items == ["only"]
        assert source.blocking_gets == []

    @pytest.mark.parametrize("k", [2, 5, MAX_BATCH_CEILING])
    def test_backlog_of_k_flushes_as_one_batch(self, k):
        source = _RecordingQueue()
        for index in range(1, k):
            source.put(index)
        items, saw = collect_batch(source, 0, BatchPolicy(),
                                   clock=lambda: 100.0,
                                   enqueued_at=lambda item: 100.0)
        assert items == list(range(k)) and not saw
        assert source.blocking_gets == []
        assert source.qsize() == 0

    def test_pool_and_service_share_the_default(self):
        pool = WorkerPool(lambda items: None, n_workers=1)
        try:
            assert pool.policy == BatchPolicy()
        finally:
            pool.shutdown()
        with AnalysisService(n_workers=1) as service:
            assert service.policy == BatchPolicy()
            assert service._pool.policy == BatchPolicy()

    def test_service_overrides_win_individually(self):
        with AnalysisService(n_workers=1, max_wait=0.002) as service:
            assert service.policy == BatchPolicy(MAX_BATCH_CEILING, 0.002)
        with AnalysisService(n_workers=1, max_batch=7) as service:
            assert service.policy == BatchPolicy(7, 0.0)
