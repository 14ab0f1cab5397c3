"""Serial/batched generation evaluation parity — the bit-for-bit
contract between :meth:`FitnessEvaluator.evaluate_population` (what GA
jobs call) and :meth:`FitnessEvaluator.evaluate`."""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.api as api
from repro.errors import ExecutionBackendError, OptimizationError
from repro.jobs import JobSpec, JobState
from repro.optimize import (
    FitnessEvaluator,
    GAConfig,
    GeneticOptimizer,
    GenomeLayout,
)
from repro.parallel import ExecutionBackend, InlineBackend


def make_evaluator(**overrides):
    settings = dict(layout=GenomeLayout(n_upper=5, n_lower=5),
                    n_panels=60, reynolds=4e5)
    settings.update(overrides)
    return FitnessEvaluator(**settings)


def records_identical(serial, batched):
    """Bit-for-bit equality of two EvaluationRecords (NaN-safe)."""
    for field in ("fitness", "cl", "cd"):
        left = getattr(serial, field)
        right = getattr(batched, field)
        if left is None or right is None:
            assert left is right, f"{field}: {left!r} != {right!r}"
        else:
            assert (np.float64(left).tobytes()
                    == np.float64(right).tobytes()), \
                f"{field}: {left!r} != {right!r}"
    assert serial.failure == batched.failure
    return True


#: Genomes drawn wide enough to hit every evaluate() branch: feasible
#: sections, thin/crossed sections, and negative-lift shapes.
genome_strategy = st.lists(
    st.floats(min_value=-0.12, max_value=0.12, allow_nan=False,
              width=64),
    min_size=10, max_size=10,
).map(lambda genes: np.asarray(genes, dtype=np.float64))


class TestBitParity:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(genome_strategy, min_size=1, max_size=6))
    def test_batched_generation_matches_serial_bit_for_bit(self, genomes):
        evaluator = make_evaluator()
        serial_records = [evaluator.evaluate(genome) for genome in genomes]
        batched_records = evaluator.evaluate_population(genomes)
        assert len(batched_records) == len(serial_records)
        for serial, batch in zip(serial_records, batched_records):
            assert records_identical(serial, batch)

    def test_mixed_population_with_failures(self, rng):
        evaluator = make_evaluator()
        genomes = [
            evaluator.layout.random_genome(rng),          # usually feasible
            np.full(10, 0.03),                            # zero thickness
            np.array([0.02, 0.02, 0.02, 0.02, 0.02,
                      -0.09, -0.10, -0.10, -0.09, -0.04]),  # negative lift
            evaluator.layout.random_genome(rng),
        ]
        batched = evaluator.evaluate_population(genomes)
        for genome, record in zip(genomes, batched):
            assert records_identical(evaluator.evaluate(genome), record)


class CrashingBackend(ExecutionBackend):
    """Solves inline, then reports every other entry as a crashed shard."""

    name = "crashing"

    def __init__(self):
        self.kernels = []

    def solve(self, requests, *, stage_hook=None, kernel=None):
        self.kernels.append(kernel)
        solved = InlineBackend().solve(requests, stage_hook=stage_hook,
                                       kernel=kernel)
        return [ExecutionBackendError("worker process crashed")
                if index % 2 else entry
                for index, entry in enumerate(solved)]


class TestCrashRetry:
    def test_crashed_shard_entries_are_rescored_inline(self, rng):
        evaluator = make_evaluator()
        genomes = [evaluator.layout.random_genome(rng) for _ in range(6)]
        backend = CrashingBackend()
        batched = evaluator.evaluate_population(genomes, backend=backend)
        assert backend.kernels == [None]
        assert len(batched) == len(genomes)
        for genome, record in zip(genomes, batched):
            assert records_identical(evaluator.evaluate(genome), record)

    def test_inline_retry_keeps_the_pinned_kernel(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_ASSEMBLY_KERNEL", "fused")
        seen = []
        assemble = api.assemble

        def recording_assemble(*args, kernel=None, **kwargs):
            seen.append(kernel)
            return assemble(*args, kernel=kernel, **kwargs)

        monkeypatch.setattr(api, "assemble", recording_assemble)
        evaluator = make_evaluator()
        genomes = [evaluator.layout.random_genome(rng) for _ in range(4)]
        backend = CrashingBackend()
        evaluator.evaluate_population(genomes, backend=backend,
                                      kernel="reference")
        assert backend.kernels == ["reference"]
        assert seen and set(seen) == {"reference"}


class TestServiceKernel:
    def test_jobs_use_the_kernel_the_service_pinned(self, tmp_path,
                                                    monkeypatch):
        from repro.serve.service import AnalysisService

        backend = CrashingBackend()
        monkeypatch.setenv("REPRO_ASSEMBLY_KERNEL", "reference")
        service = AnalysisService(n_workers=1, exec_backend=backend,
                                  jobs_dir=str(tmp_path))
        try:
            # A later env change must not split the service's kernel.
            monkeypatch.setenv("REPRO_ASSEMBLY_KERNEL", "fused")
            record = service.jobs.submit(JobSpec.from_dict({
                "seed": 3, "ga": {"population_size": 6, "generations": 2},
                "fitness": {"n_panels": 40},
            }))
            deadline = time.monotonic() + 120.0
            while not service.jobs.store.get(record.id).terminal:
                assert time.monotonic() < deadline, "job did not finish"
                time.sleep(0.02)
            assert service.jobs.store.get(record.id).state == JobState.DONE
        finally:
            service.close()
        assert len(backend.kernels) == 2
        assert set(backend.kernels) == {"reference"}


class TestGAIntegration:
    def test_ga_with_batched_evaluate_all_is_identical(self):
        evaluator = make_evaluator()
        config = GAConfig(population_size=10, generations=3)
        serial = GeneticOptimizer(evaluator=evaluator, config=config).run(
            np.random.default_rng(11)
        )
        batched = GeneticOptimizer(
            evaluator=evaluator, config=config,
            evaluate_all=evaluator.evaluate_population,
        ).run(np.random.default_rng(11))
        assert len(serial.generations) == len(batched.generations)
        for left, right in zip(serial.generations, batched.generations):
            assert left.best_fitness == right.best_fitness
            assert left.mean_fitness == right.mean_fitness
            assert left.feasible_fraction == right.feasible_fraction
            for a, b in zip(left.best, right.best):
                assert np.array_equal(a.genome, b.genome)
                assert a.fitness == b.fitness

    def test_wrong_length_evaluate_all_rejected(self):
        evaluator = make_evaluator()
        config = GAConfig(population_size=8, generations=1)
        optimizer = GeneticOptimizer(
            evaluator=evaluator, config=config,
            evaluate_all=lambda population: [],
        )
        with pytest.raises(OptimizationError, match="8"):
            optimizer.run(np.random.default_rng(0))

    def test_run_from_chaining_matches_single_run(self):
        """One-generation stepping (what the job runner does) is
        exactly one multi-generation run."""
        evaluator = make_evaluator()
        config = GAConfig(population_size=10, generations=3)
        reference = GeneticOptimizer(evaluator=evaluator, config=config).run(
            np.random.default_rng(5)
        )
        from repro.optimize import OptimizationHistory

        rng = np.random.default_rng(5)
        population = [evaluator.layout.random_genome(rng)
                      for _ in range(config.population_size)]
        history = OptimizationHistory()
        step = dataclasses.replace(config, generations=1)
        for generation in range(config.generations):
            population = GeneticOptimizer(
                evaluator=evaluator, config=step,
            ).run_from(population, rng, history=history,
                       generation_offset=generation)
        assert len(history.generations) == len(reference.generations)
        for left, right in zip(reference.generations, history.generations):
            assert left.index == right.index
            assert left.best_fitness == right.best_fitness
            assert np.array_equal(left.champion.genome, right.champion.genome)
