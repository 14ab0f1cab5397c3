"""Tests for the genetic optimizer: operators, fitness, GA loop."""

import math

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.optimize import (
    FitnessEvaluator,
    GAConfig,
    GenomeBounds,
    GenomeLayout,
    GeneticOptimizer,
    INFEASIBLE_FITNESS,
    OptimizationHistory,
    mutate_single_coefficient,
    one_point_crossover,
    tournament_select,
)


@pytest.fixture(scope="module")
def layout():
    return GenomeLayout(n_upper=5, n_lower=5)


class TestGenome:
    def test_gene_count(self, layout):
        assert layout.n_genes == 10

    def test_random_genome_in_bounds(self, layout, rng):
        genome = layout.random_genome(rng)
        low = layout.bounds.low_vector(5, 5)
        high = layout.bounds.high_vector(5, 5)
        assert np.all(genome >= low) and np.all(genome <= high)

    def test_clip(self, layout):
        wild = np.full(10, 99.0)
        clipped = layout.clip(wild)
        assert np.all(clipped <= layout.bounds.high_vector(5, 5))

    def test_to_parametrization_roundtrip(self, layout, rng):
        genome = layout.random_genome(rng)
        parametrization = layout.to_parametrization(genome)
        assert parametrization.coefficients() == pytest.approx(genome)

    def test_wrong_length_rejected(self, layout):
        with pytest.raises(OptimizationError, match="genes"):
            layout.to_parametrization(np.zeros(7))

    def test_empty_bounds_rejected(self):
        with pytest.raises(OptimizationError):
            GenomeBounds(upper_low=0.2, upper_high=0.1)

    def test_too_few_coefficients(self):
        with pytest.raises(OptimizationError):
            GenomeLayout(n_upper=2, n_lower=5)


class TestOperators:
    def test_tournament_prefers_best(self, rng):
        fitnesses = [0.0, 100.0, 1.0, 2.0]
        winners = [
            tournament_select(rng, fitnesses, tournament_size=4)
            for _ in range(20)
        ]
        assert all(w == 1 for w in winners)

    def test_tournament_size_one_is_uniform(self, rng):
        fitnesses = [1.0, 2.0, 3.0]
        winners = {tournament_select(rng, fitnesses, tournament_size=1)
                   for _ in range(200)}
        assert winners == {0, 1, 2}

    def test_tournament_empty_population(self, rng):
        with pytest.raises(OptimizationError):
            tournament_select(rng, [])

    def test_tournament_handles_infinities(self, rng):
        fitnesses = [-math.inf, 5.0, -math.inf]
        winner = tournament_select(rng, fitnesses, tournament_size=3)
        assert winner == 1

    def test_crossover_preserves_genes(self, rng):
        a = np.arange(10.0)
        b = np.arange(10.0) + 100.0
        child_a, child_b = one_point_crossover(rng, a, b)
        combined = np.sort(np.concatenate([child_a, child_b]))
        assert combined == pytest.approx(np.sort(np.concatenate([a, b])))

    def test_crossover_cut_internal(self, rng):
        a = np.zeros(10)
        b = np.ones(10)
        for _ in range(20):
            child_a, child_b = one_point_crossover(rng, a, b)
            assert 0 < child_a.sum() < 10  # neither pure copy
            assert child_a.sum() + child_b.sum() == pytest.approx(10.0)

    def test_crossover_shape_mismatch(self, rng):
        with pytest.raises(OptimizationError):
            one_point_crossover(rng, np.zeros(4), np.zeros(5))

    def test_mutation_changes_one_gene(self, layout, rng):
        genome = layout.random_genome(rng)
        mutated = mutate_single_coefficient(rng, genome, layout, scale=0.01)
        changed = np.nonzero(mutated != genome)[0]
        assert len(changed) <= 1  # exactly one, unless clipped back equal

    def test_mutation_does_not_modify_input(self, layout, rng):
        genome = layout.random_genome(rng)
        original = genome.copy()
        mutate_single_coefficient(rng, genome, layout)
        assert genome == pytest.approx(original)

    def test_mutation_respects_bounds(self, layout, rng):
        genome = layout.bounds.high_vector(5, 5)
        for _ in range(30):
            mutated = mutate_single_coefficient(rng, genome, layout, scale=1.0)
            assert np.all(mutated <= layout.bounds.high_vector(5, 5) + 1e-12)

    def test_mutation_bad_scale(self, layout, rng):
        with pytest.raises(OptimizationError):
            mutate_single_coefficient(rng, layout.random_genome(rng), layout,
                                      scale=0.0)


class TestFitness:
    @pytest.fixture(scope="class")
    def evaluator(self):
        return FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                n_panels=60, reynolds=4e5)

    def test_reasonable_genome_feasible(self, evaluator):
        genome = np.array([0.05, 0.08, 0.08, 0.06, 0.03,
                           -0.02, -0.03, -0.03, -0.02, -0.01])
        record = evaluator.evaluate(genome)
        assert record.feasible
        assert record.cl > 0
        assert record.cd > 0
        assert record.fitness == pytest.approx(record.cl / record.cd)

    def test_thin_genome_infeasible(self, evaluator):
        # Upper at its floor and lower at its ceiling: nearly zero thickness.
        genome = np.array([0.03, 0.03, 0.03, 0.03, 0.03,
                           0.03, 0.03, 0.03, 0.03, 0.03])
        record = evaluator.evaluate(genome)
        assert record.fitness == INFEASIBLE_FITNESS
        assert record.failure is not None

    def test_negative_lift_ranked_low_but_finite(self, evaluator):
        # Inverted camber: lifts downward at alpha = 0.
        genome = np.array([0.02, 0.02, 0.02, 0.02, 0.02,
                           -0.09, -0.10, -0.10, -0.09, -0.04])
        record = evaluator.evaluate(genome)
        if record.failure == "non-positive lift":
            assert record.fitness <= 0
            assert math.isfinite(record.fitness)

    def test_callable_interface(self, evaluator):
        genome = np.array([0.05, 0.08, 0.08, 0.06, 0.03,
                           -0.02, -0.03, -0.03, -0.02, -0.01])
        assert evaluator(genome) == evaluator.evaluate(genome).fitness


class TestGAConfig:
    def test_total_evaluations(self):
        assert GAConfig(population_size=10, generations=4).total_evaluations == 40

    def test_odd_population_rejected(self):
        with pytest.raises(OptimizationError):
            GAConfig(population_size=11)

    def test_elitism_bound(self):
        with pytest.raises(OptimizationError):
            GAConfig(population_size=10, elitism=10)

    def test_probability_bounds(self):
        with pytest.raises(OptimizationError):
            GAConfig(crossover_probability=1.5)


class TestGeneticOptimizer:
    @pytest.fixture(scope="class")
    def history(self):
        evaluator = FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                     n_panels=60, reynolds=4e5)
        config = GAConfig(population_size=16, generations=4)
        optimizer = GeneticOptimizer(evaluator=evaluator, config=config)
        return optimizer.run(np.random.default_rng(99))

    def test_generation_count(self, history):
        assert len(history.generations) == 4

    def test_elitism_keeps_best_nondecreasing(self, history):
        trace = history.best_fitness_trace()
        assert np.all(np.diff(trace) >= -1e-9)

    def test_champion_is_global_best(self, history):
        best = max(g.best_fitness for g in history.generations)
        assert history.champion.fitness == pytest.approx(best)

    def test_records_top_three(self, history):
        for generation in history.generations:
            assert len(generation.best) == 3
            fits = [i.fitness for i in generation.best]
            assert fits == sorted(fits, reverse=True)

    def test_callback_invoked(self):
        seen = []
        evaluator = FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                     n_panels=60, reynolds=4e5)
        optimizer = GeneticOptimizer(
            evaluator=evaluator,
            config=GAConfig(population_size=8, generations=2),
            on_generation=seen.append,
        )
        optimizer.run(np.random.default_rng(1))
        assert [record.index for record in seen] == [0, 1]

    def test_reproducible_with_seed(self):
        evaluator = FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                     n_panels=60, reynolds=4e5)
        config = GAConfig(population_size=8, generations=2)
        first = GeneticOptimizer(evaluator=evaluator, config=config).run(
            np.random.default_rng(7)
        )
        second = GeneticOptimizer(evaluator=evaluator, config=config).run(
            np.random.default_rng(7)
        )
        assert first.champion.fitness == pytest.approx(second.champion.fitness)

    def test_empty_history_champion_raises(self):
        with pytest.raises(ValueError):
            OptimizationHistory().champion


class TestRunFrom:
    @pytest.fixture(scope="class")
    def evaluator(self):
        return FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                n_panels=60, reynolds=4e5)

    def test_chains_with_offset(self, evaluator):
        config = GAConfig(population_size=10, generations=2)
        optimizer = GeneticOptimizer(evaluator=evaluator, config=config)
        rng = np.random.default_rng(2)
        population = [evaluator.layout.random_genome(rng) for _ in range(10)]
        history = OptimizationHistory()
        population = optimizer.run_from(population, rng, history=history)
        optimizer.run_from(population, rng, history=history,
                           generation_offset=2)
        assert [g.index for g in history.generations] == [0, 1, 2, 3]

    def test_population_size_checked(self, evaluator):
        config = GAConfig(population_size=10, generations=1)
        optimizer = GeneticOptimizer(evaluator=evaluator, config=config)
        with pytest.raises(OptimizationError, match="population"):
            optimizer.run_from([np.zeros(10)], np.random.default_rng(0))


class TestRankingOrder:
    """Regression tests for the tie-break instability: reversing a
    stable ascending argsort emitted equal-fitness individuals in
    *reversed* index order, so two identical populations could record
    different champions."""

    def test_ties_keep_input_order(self):
        from repro.optimize.history import ranking_order

        order = ranking_order([1.0, 2.0, 2.0, 0.5, 2.0])
        assert order.tolist() == [1, 2, 4, 0, 3]
        # The old np.argsort(...)[::-1] spelling fails this: it yields
        # the tied indices as [4, 2, 1].

    def test_nan_ranks_last(self):
        from repro.optimize.history import ranking_order

        order = ranking_order([float("nan"), 1.0, float("-inf"), 2.0])
        assert order.tolist()[:2] == [3, 1]
        assert set(order.tolist()[2:]) == {0, 2}

    def test_record_breaks_fitness_ties_by_index(self):
        from repro.optimize.fitness import EvaluationRecord

        history = OptimizationHistory()
        genomes = [np.full(10, 0.01 * i) for i in range(4)]
        records = [EvaluationRecord(5.0, cl=1.0, cd=0.2) for _ in genomes]
        generation = history.record(0, genomes, records, keep_best=3)
        for slot, expected in enumerate(genomes[:3]):
            assert np.array_equal(generation.best[slot].genome, expected)

    def test_elitism_tie_break_is_deterministic(self):
        """Two GA runs over a fitness landscape full of ties must make
        identical selections (the checkpoint/resume prerequisite)."""
        class Constant:
            layout = GenomeLayout(n_upper=5, n_lower=5)

            def evaluate(self, genome):
                from repro.optimize.fitness import EvaluationRecord

                return EvaluationRecord(1.0, cl=1.0, cd=1.0)

        config = GAConfig(population_size=8, generations=3)
        first = GeneticOptimizer(evaluator=Constant(), config=config).run(
            np.random.default_rng(2)
        )
        second = GeneticOptimizer(evaluator=Constant(), config=config).run(
            np.random.default_rng(2)
        )
        for left, right in zip(first.generations, second.generations):
            for a, b in zip(left.best, right.best):
                assert np.array_equal(a.genome, b.genome)


class TestGAConfigValidationSatellites:
    def test_keep_best_below_one_rejected(self):
        with pytest.raises(OptimizationError, match="keep_best"):
            GAConfig(keep_best=0)

    def test_tournament_size_below_one_rejected(self):
        with pytest.raises(OptimizationError, match="tournament"):
            GAConfig(tournament_size=0)

    def test_minimal_valid_values_accepted(self):
        config = GAConfig(keep_best=1, tournament_size=1)
        assert config.keep_best == 1
        assert config.tournament_size == 1
