"""The genetic optimizer driving the panel-method inner solver.

Implements the algorithm the paper validates its code with: a
generational GA using tournament selection, one-point crossover, and
single-coefficient mutation over B-spline airfoil parametrizations,
maximizing lift-to-drag at zero angle of attack.

This optimizer also *defines the workload* of the hardware experiments:
``candidate solutions = population size x generations`` panel systems
must be assembled and solved — 4000 of them in the paper's Table 2
setup.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

import numpy as np

from repro.errors import OptimizationError
from repro.optimize.fitness import EvaluationRecord, FitnessEvaluator
from repro.optimize.genome import GenomeLayout
from repro.optimize.history import (
    GenerationRecord,
    OptimizationHistory,
    ranking_order,
)
from repro.optimize.operators import (
    mutate_single_coefficient,
    one_point_crossover,
)


@dataclasses.dataclass(frozen=True)
class GAConfig:
    """Hyper-parameters of the genetic algorithm.

    The defaults are scaled-down relative to the paper (population 1000
    in Figure 2; 400 x 10 generations for the timing workload) so the
    examples run quickly; the experiment harness overrides them.
    """

    population_size: int = 60
    generations: int = 8
    tournament_size: int = 3
    crossover_probability: float = 0.9
    mutation_probability: float = 0.6
    mutation_scale: float = 0.015
    elitism: int = 2
    keep_best: int = 3  # individuals recorded per generation
    #: Parent-selection strategy; the paper uses tournament selection,
    #: the alternatives enable the operator ablation
    #: (see :mod:`repro.optimize.selection`).
    selection: str = "tournament"

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise OptimizationError("population must hold at least 2 individuals")
        if self.population_size % 2:
            raise OptimizationError("population size must be even (pairwise crossover)")
        if self.generations < 1:
            raise OptimizationError("need at least one generation")
        if not 0.0 <= self.crossover_probability <= 1.0:
            raise OptimizationError("crossover probability must be in [0, 1]")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise OptimizationError("mutation probability must be in [0, 1]")
        if not 0 <= self.elitism < self.population_size:
            raise OptimizationError("elitism must be < population size")
        if self.keep_best < 1:
            raise OptimizationError(
                "keep_best must be >= 1 (GenerationRecord.champion needs "
                "at least one recorded individual)"
            )
        if self.tournament_size < 1:
            raise OptimizationError("tournament size must be >= 1")
        from repro.optimize.selection import SelectionMethod

        try:
            SelectionMethod(self.selection)
        except ValueError:
            names = ", ".join(member.value for member in SelectionMethod)
            raise OptimizationError(
                f"unknown selection {self.selection!r}; choose from {names}"
            )

    @property
    def selection_method(self):
        """The configured :class:`~repro.optimize.selection.SelectionMethod`."""
        from repro.optimize.selection import SelectionMethod

        return SelectionMethod(self.selection)

    @property
    def total_evaluations(self) -> int:
        """Candidate count — the hardware workload's batch size."""
        return self.population_size * self.generations


@dataclasses.dataclass
class GeneticOptimizer:
    """Generational GA over B-spline airfoil genomes.

    Parameters
    ----------
    evaluator:
        The fitness function (carries the genome layout).
    config:
        GA hyper-parameters.
    on_generation:
        Optional callback invoked with each :class:`GenerationRecord`
        as it completes (used for progress reporting).
    evaluate_all:
        Optional replacement for the serial per-genome evaluation loop.
        Called with the population (list of genomes) and must return one
        :class:`EvaluationRecord` per genome, in order — this is the seam
        the jobs subsystem uses to score whole generations as one stack
        (a bound :meth:`FitnessEvaluator.evaluate_population`).
    """

    evaluator: FitnessEvaluator
    config: GAConfig = dataclasses.field(default_factory=GAConfig)
    on_generation: Optional[Callable[[GenerationRecord], None]] = None
    evaluate_all: Optional[Callable[[list], List[EvaluationRecord]]] = None

    @property
    def layout(self) -> GenomeLayout:
        """The genome layout used for sampling and mutation."""
        return self.evaluator.layout

    def run(self, rng: np.random.Generator = None) -> OptimizationHistory:
        """Run the full optimization and return its history."""
        rng = rng or np.random.default_rng()
        population = [
            self.layout.random_genome(rng)
            for _ in range(self.config.population_size)
        ]
        history = OptimizationHistory()
        records = self._evaluate_all(population)
        for generation in range(self.config.generations):
            summary = history.record(
                generation, population, records, keep_best=self.config.keep_best
            )
            if self.on_generation is not None:
                self.on_generation(summary)
            if generation == self.config.generations - 1:
                break
            population = self._next_generation(rng, population, records)
            records = self._evaluate_all(population)
        return history

    def run_from(self, population, rng: np.random.Generator = None, *,
                 history: OptimizationHistory = None,
                 generation_offset: int = 0) -> List[np.ndarray]:
        """Evolve an *existing* population for ``config.generations``.

        Unlike :meth:`run`, every recorded generation is also evolved
        (the returned list is the population *after* the last step), so
        successive calls chain cleanly — the durable job runner calls it
        one generation at a time.  Records are appended to
        *history* (if given) with indices starting at
        ``generation_offset``.
        """
        rng = rng or np.random.default_rng()
        history = history if history is not None else OptimizationHistory()
        population = [np.array(genome, copy=True) for genome in population]
        if len(population) != self.config.population_size:
            raise OptimizationError(
                f"population has {len(population)} individuals, config "
                f"expects {self.config.population_size}"
            )
        for generation in range(self.config.generations):
            records = self._evaluate_all(population)
            summary = history.record(
                generation_offset + generation, population, records,
                keep_best=self.config.keep_best,
            )
            if self.on_generation is not None:
                self.on_generation(summary)
            population = self._next_generation(rng, population, records)
        return population

    def _evaluate_all(self, population) -> List[EvaluationRecord]:
        if self.evaluate_all is not None:
            records = list(self.evaluate_all(population))
            if len(records) != len(population):
                raise OptimizationError(
                    f"evaluate_all returned {len(records)} records for "
                    f"{len(population)} genomes"
                )
            return records
        return [self.evaluator.evaluate(genome) for genome in population]

    def _next_generation(self, rng, population, records) -> List[np.ndarray]:
        fitnesses = [record.fitness for record in records]
        order = ranking_order(fitnesses)
        select = self.config.selection_method.selector(
            tournament_size=self.config.tournament_size
        )
        next_population: List[np.ndarray] = [
            population[i].copy() for i in order[: self.config.elitism]
        ]
        while len(next_population) < self.config.population_size:
            index_a = select(rng, fitnesses)
            index_b = select(rng, fitnesses)
            parent_a, parent_b = population[index_a], population[index_b]
            if rng.random() < self.config.crossover_probability:
                child_a, child_b = one_point_crossover(rng, parent_a, parent_b)
            else:
                child_a, child_b = parent_a.copy(), parent_b.copy()
            for child in (child_a, child_b):
                if len(next_population) >= self.config.population_size:
                    break
                if rng.random() < self.config.mutation_probability:
                    child = mutate_single_coefficient(
                        rng, child, self.layout, scale=self.config.mutation_scale
                    )
                next_population.append(child)
        return next_population
