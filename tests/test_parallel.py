"""Tests for the process-parallel execution backend.

Covers the shard protocol maths, byte-identity of responses across
backends (including a hypothesis property test), crash containment
(a SIGKILLed worker fails only its own shard and the pool re-forms),
graceful degradation to inline execution, and the service-level
integration (metrics section, end-to-end equality, mid-batch crash).
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import (
    AnalyzeRequest,
    canonical_json,
    evaluate_requests,
    serialize_analysis,
    solve_request_systems,
)
from repro.errors import ExecutionBackendError, GeometryError, ServeError
from repro.parallel import (
    BACKEND_ENV,
    InlineBackend,
    ProcessBackend,
    close_default_backend,
    default_backend,
    make_backend,
    resolve_backend,
)
from repro.parallel.protocol import (
    anchor_stamps,
    merge_envelope,
    plan_shards,
)
from repro.serve import AnalysisService


def requests_mixed():
    """A batch with mixed sizes, precisions, and one bad geometry."""
    return [
        AnalyzeRequest(airfoil="2412", alpha_degrees=0.0, n_panels=80),
        AnalyzeRequest(airfoil="2412", alpha_degrees=4.0, n_panels=80),
        AnalyzeRequest(airfoil="0012", alpha_degrees=2.0, n_panels=60,
                       precision="single", reynolds=None),
        AnalyzeRequest(airfoil="99zz", alpha_degrees=0.0, n_panels=60),
        AnalyzeRequest(airfoil="4412", alpha_degrees=1.0, n_panels=80,
                       reynolds=5e5),
    ]


def serialized(requests, outcomes):
    out = []
    for request, outcome in zip(requests, outcomes):
        if isinstance(outcome, BaseException):
            out.append((type(outcome).__name__, str(outcome)))
        else:
            out.append(canonical_json(serialize_analysis(request, outcome)))
    return out


@pytest.fixture(scope="module")
def worker_backend():
    backend = make_backend("process", n_procs=2)
    yield backend
    backend.close()


class TestShardPlanning:
    def test_balanced_contiguous_cover(self):
        bounds = plan_shards(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_never_empty_shards(self):
        assert plan_shards(2, 4) == [(0, 1), (1, 2)]
        assert plan_shards(1, 4) == [(0, 1)]

    def test_single_shard(self):
        assert plan_shards(5, 1) == [(0, 5)]

    def test_anchor_and_envelope(self):
        stamps = [("assembly", 0.1, 0.4, 3), ("solve", 0.4, 0.5, 3)]
        anchored = anchor_stamps(stamps, elapsed=0.5, received_at=100.0)
        assert anchored[0] == ("assembly", 99.6, 99.9, 3)
        assert anchored[1] == ("solve", 99.9, 100.0, 3)
        assert merge_envelope([(1.0, 2.0), (1.5, 3.0)]) == (1.0, 3.0)
        assert merge_envelope([]) is None


class TestBackendResolution:
    def test_unknown_name_rejected(self):
        with pytest.raises(ServeError, match="unknown execution backend"):
            make_backend("bogus")

    def test_strings_rejected_by_resolve(self):
        with pytest.raises(ServeError, match="make_backend"):
            resolve_backend("process")

    def test_instance_passes_through(self):
        backend = InlineBackend()
        assert resolve_backend(backend) is backend

    def test_default_backend_follows_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
        close_default_backend()
        try:
            assert isinstance(default_backend(), InlineBackend)
            monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
            monkeypatch.setenv("REPRO_EXEC_PROCS", "2")
            backend = default_backend()
            assert isinstance(backend, ProcessBackend)
            assert backend.n_procs == 2
            assert default_backend() is backend  # cached
        finally:
            close_default_backend()

    def test_invalid_procs_rejected(self):
        with pytest.raises(ServeError, match="n_procs"):
            ProcessBackend(n_procs=0)

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_bad_procs_env_is_a_typed_error(self, monkeypatch, capsys, raw):
        from repro.cli import main

        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_PROCS", raw)
        close_default_backend()
        try:
            with pytest.raises(ServeError, match="REPRO_EXEC_PROCS"):
                default_backend()
            assert main(["analyze", "2412", "--panels", "40"]) == 1
            assert capsys.readouterr().err.startswith(
                "error: REPRO_EXEC_PROCS must be a positive integer")
        finally:
            close_default_backend()

    def test_one_shard_mode_no_knobs(self, worker_backend):
        """Workers always solve their shards: the constructor takes
        only a worker count and /metrics reports no mode field."""
        import inspect

        params = inspect.signature(ProcessBackend.__init__).parameters
        assert list(params) == ["self", "n_procs"]
        with pytest.raises(TypeError):
            make_backend("process", n_procs=2, solve_in_worker=False)
        assert "solve_in_worker" not in worker_backend.stats()


class TestByteIdentity:
    def test_worker_mode_matches_inline(self, worker_backend):
        requests = requests_mixed()
        baseline = serialized(requests, evaluate_requests(requests))
        outcomes = evaluate_requests(requests, backend=worker_backend)
        assert serialized(requests, outcomes) == baseline
        assert isinstance(outcomes[3], GeometryError)

    def test_single_request_single_shard(self, worker_backend):
        request = AnalyzeRequest(airfoil="2412", alpha_degrees=2.0,
                                 n_panels=70)
        baseline = serialized([request], evaluate_requests([request]))
        assert serialized(
            [request], evaluate_requests([request], backend=worker_backend)
        ) == baseline

    def test_empty_batch(self, worker_backend):
        assert worker_backend.solve([]) == []

    def test_gamma_bits_match_exactly(self, worker_backend):
        """Not just serialized equality: the float64 circulation rows
        coming back over the worker pipes are bit-for-bit the inline
        backend's (float32 widening is exact; no arithmetic differs)."""
        same_size = [
            AnalyzeRequest(airfoil="2412", alpha_degrees=a, n_panels=64,
                           precision=precision, reynolds=None)
            for a in (0.0, 3.0) for precision in ("single", "double")
        ]
        # Five requests on two workers split 3/2, and each shard holds
        # more than one (size, dtype) group.
        uneven = [
            AnalyzeRequest(airfoil="4412", alpha_degrees=float(index),
                           n_panels=n_panels, precision=precision,
                           reynolds=None)
            for index, (n_panels, precision) in enumerate(
                [(48, "double"), (72, "double"), (48, "single"),
                 (96, "double"), (72, "single")])
        ]
        for requests in (same_size, uneven):
            inline = solve_request_systems(requests)
            sharded = worker_backend.solve(requests)
            for ours, theirs in zip(inline, sharded):
                lhs = np.asarray(ours.gamma, dtype=np.float64)
                rhs = np.asarray(theirs.gamma, dtype=np.float64)
                assert lhs.tobytes() == rhs.tobytes()
                assert ours.constant == theirs.constant

    def test_stage_hook_emits_shard_and_envelope_spans(self, worker_backend):
        requests = requests_mixed()
        stamps = []
        worker_backend.solve(
            requests, stage_hook=lambda *args: stamps.append(args)
        )
        stages = [stamp[0] for stamp in stamps]
        assert stages.count("assembly") == 1  # the envelope
        assert stages.count("solve") == 1
        assert stages.count("assembly_shard") == 2  # one per worker
        by_name = {}
        for stage, start, end, _count in stamps:
            assert end >= start
            by_name.setdefault(stage, []).append((start, end))
        envelope = by_name["assembly"][0]
        for start, end in by_name["assembly_shard"]:
            assert envelope[0] <= start and end <= envelope[1]

    @given(alpha=st.floats(-5.0, 8.0, allow_nan=False),
           n_panels=st.sampled_from([40, 56]),
           precision=st.sampled_from(["single", "double"]),
           reynolds=st.sampled_from([None, 5e5]),
           batchmates=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_responses_identical_across_backends(
            self, shared_process_backend, alpha, n_panels, precision,
            reynolds, batchmates):
        """For any request (and any shard split its batchmates force),
        the /analyze response bytes are identical across backends."""
        requests = [AnalyzeRequest(airfoil="2412", alpha_degrees=alpha,
                                   n_panels=n_panels, precision=precision,
                                   reynolds=reynolds)]
        requests += [
            AnalyzeRequest(airfoil="0012", alpha_degrees=float(index),
                           n_panels=48, reynolds=None)
            for index in range(batchmates)
        ]
        baseline = serialized(requests, evaluate_requests(requests))
        assert serialized(
            requests,
            evaluate_requests(requests, backend=shared_process_backend),
        ) == baseline


@pytest.fixture(scope="module")
def shared_process_backend():
    backend = make_backend("process", n_procs=2)
    yield backend
    backend.close()


class TestCrashContainment:
    def test_sigkill_fails_only_that_shard(self):
        requests = requests_mixed()
        backend = make_backend("process", n_procs=2)
        try:
            killed = []

            def kill_first_shard(shard_index, worker):
                if shard_index == 0:
                    killed.append(worker.process.pid)
                    os.kill(worker.process.pid, signal.SIGKILL)

            backend._after_dispatch = kill_first_shard
            outcomes = backend.solve(requests)
            backend._after_dispatch = None
            assert killed
            bounds = plan_shards(len(requests), 2)
            start, stop = bounds[0]
            for index, outcome in enumerate(outcomes):
                if start <= index < stop:
                    assert isinstance(outcome, ExecutionBackendError)
                    assert "batchmates are unaffected" in str(outcome)
                else:
                    assert not isinstance(outcome, ExecutionBackendError)
            stats = backend.stats()
            assert stats["worker_crashes"] == 1
            assert stats["worker_restarts"] == 1
            assert stats["alive_workers"] == 2  # the pool re-formed
            assert not stats["broken"]
            # And the re-formed pool solves the next batch correctly.
            baseline = serialized(requests, evaluate_requests(requests))
            assert serialized(
                requests, evaluate_requests(requests, backend=backend)
            ) == baseline
        finally:
            backend.close()

    def test_crash_repair_does_not_trust_is_alive(self):
        """The pipe reports EOF before the kernel has reaped a killed
        child, so ``is_alive()`` can still say True during repair; the
        crashed shard's worker must be replaced all the same."""
        requests = requests_mixed()
        backend = make_backend("process", n_procs=2)
        try:
            def kill_first_shard(shard_index, worker):
                if shard_index == 0:
                    os.kill(worker.process.pid, signal.SIGKILL)
                    worker.process.join()
                    worker.process.is_alive = lambda: True  # not yet reaped

            backend._after_dispatch = kill_first_shard
            backend.solve(requests)
            backend._after_dispatch = None
            stats = backend.stats()
            assert stats["worker_crashes"] == 1
            assert stats["worker_restarts"] == 1
            assert stats["alive_workers"] == 2
            baseline = serialized(requests, evaluate_requests(requests))
            assert serialized(
                requests, evaluate_requests(requests, backend=backend)
            ) == baseline
        finally:
            backend.close()

    def test_crashed_shard_error_is_a_serve_error(self):
        # The serving path re-raises failures as fresh clones built
        # from .args; the error must survive that round trip.
        error = ExecutionBackendError("worker process crashed")
        clone = type(error)(*error.args)
        assert isinstance(clone, ServeError)
        assert str(clone) == str(error)

    def test_start_failure_degrades_to_inline(self, monkeypatch):
        def refuse_to_spawn(self, index):
            raise OSError("no forks today")

        monkeypatch.setattr(ProcessBackend, "_spawn_worker", refuse_to_spawn)
        backend = ProcessBackend(n_procs=2)
        try:
            stats = backend.stats()
            assert stats["broken"] and stats["start_failures"] >= 1
            requests = requests_mixed()
            baseline = serialized(requests, evaluate_requests(requests))
            outcomes = evaluate_requests(requests, backend=backend)
            assert serialized(requests, outcomes) == baseline
            assert backend.stats()["inline_fallbacks"] >= 1
        finally:
            backend.close()

    def test_close_is_idempotent_and_falls_back_inline(self):
        backend = make_backend("process", n_procs=2)
        backend.close()
        backend.close()
        requests = requests_mixed()[:2]
        baseline = serialized(requests, evaluate_requests(requests))
        outcomes = evaluate_requests(requests, backend=backend)
        assert serialized(requests, outcomes) == baseline
        assert backend.stats()["inline_fallbacks"] >= 1
        assert backend.stats()["alive_workers"] == 0


class TestServiceIntegration:
    def test_process_backend_service_matches_inline(self):
        payloads = [{"airfoil": "2412", "alpha": float(a), "n_panels": 90}
                    for a in range(4)]
        with AnalysisService(exec_backend="inline", cache_size=0) as service:
            baseline = [canonical_json(service.analyze(p)) for p in payloads]
        with AnalysisService(exec_backend="process", exec_procs=2,
                             cache_size=0) as service:
            got = [canonical_json(service.analyze(p)) for p in payloads]
            snapshot = service.metrics_snapshot()
        assert got == baseline
        section = snapshot["exec_backend"]
        assert section["name"] == "process" and section["procs"] == 2
        assert section["sharded_requests"] >= len(payloads)

    def test_metrics_snapshot_always_has_backend_section(self, monkeypatch):
        # The section must be present for the env-configured default
        # backend too, whichever one the environment selects.
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        try:
            with AnalysisService() as service:
                section = service.metrics_snapshot()["exec_backend"]
            assert section["name"] == "inline"
        finally:
            close_default_backend()

    def test_prometheus_renders_backend_counters(self):
        from repro.obs.prometheus import render_prometheus

        with AnalysisService(exec_backend="process", exec_procs=2) as service:
            service.analyze({"airfoil": "0012", "n_panels": 60,
                             "reynolds": 0})
            text = render_prometheus(service.metrics_snapshot())
        assert "# TYPE repro_exec_backend_worker_crashes counter" in text
        assert "repro_exec_backend_procs 2" in text

    def test_borrowed_backend_is_not_closed_by_service(self):
        backend = make_backend("process", n_procs=2)
        try:
            with AnalysisService(exec_backend=backend, cache_size=0) as service:
                service.analyze({"airfoil": "2412", "n_panels": 60,
                                 "reynolds": 0})
            assert backend.stats()["alive_workers"] == 2  # still ours
        finally:
            backend.close()

    def test_mid_batch_worker_crash_spares_batchmates(self):
        """SIGKILL one of two shard workers mid-batch: exactly that
        shard's requests fail with a ServeError, the rest complete, the
        failure lands in /metrics, and the pool re-forms."""
        backend = make_backend("process", n_procs=2)
        try:
            def kill_first_shard(shard_index, worker):
                if shard_index == 0:
                    os.kill(worker.process.pid, signal.SIGKILL)

            with AnalysisService(exec_backend=backend, cache_size=0,
                                 n_workers=1, max_batch=8,
                                 max_wait=0.5) as service:
                payloads = [{"airfoil": "2412", "alpha": float(a),
                             "n_panels": 120, "reynolds": 0}
                            for a in range(8)]
                backend._after_dispatch = kill_first_shard
                pendings = [service.submit(p) for p in payloads]
                failures, successes = 0, 0
                for pending in pendings:
                    try:
                        response = pending.result(timeout=60.0)
                    except ServeError as error:
                        assert "batchmates are unaffected" in str(error)
                        failures += 1
                    else:
                        assert response["airfoil"].startswith("NACA")
                        successes += 1
                backend._after_dispatch = None
                assert failures == 4 and successes == 4
                counters = service.metrics_snapshot()["requests"]
                assert counters["failed"] == 4
                assert counters["completed"] == 4
                # The pool re-formed: the next request solves sharded.
                again = service.analyze({"airfoil": "0012", "n_panels": 64,
                                         "reynolds": 0})
                assert again["cl"] == pytest.approx(0.0, abs=1e-9)
                assert backend.stats()["alive_workers"] == 2
        finally:
            backend._after_dispatch = None
            backend.close()

    def test_env_selected_backend_reaches_evaluate_requests(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
        monkeypatch.setenv("REPRO_EXEC_PROCS", "2")
        close_default_backend()
        try:
            requests = requests_mixed()[:2]
            monkeypatch.delenv("REPRO_EXEC_BACKEND")
            monkeypatch.delenv("REPRO_EXEC_PROCS")
            close_default_backend()
            baseline = serialized(requests, evaluate_requests(requests))
            monkeypatch.setenv("REPRO_EXEC_BACKEND", "process")
            monkeypatch.setenv("REPRO_EXEC_PROCS", "2")
            assert serialized(requests, evaluate_requests(requests)) == baseline
            assert isinstance(default_backend(), ProcessBackend)
        finally:
            close_default_backend()
