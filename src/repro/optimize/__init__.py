"""Genetic optimization of airfoil geometries (the paper's outer loop)."""

from repro.optimize.acceleration import GATimingResult, ga_speedup, time_ga_run
from repro.optimize.fitness import (
    INFEASIBLE_FITNESS,
    EvaluationRecord,
    FitnessEvaluator,
)
from repro.optimize.ga import GAConfig, GeneticOptimizer
from repro.optimize.genome import GenomeBounds, GenomeLayout
from repro.optimize.history import (
    GenerationRecord,
    Individual,
    OptimizationHistory,
)
from repro.optimize.selection import (
    SelectionMethod,
    measure_selection_pressure,
    rank_select,
    roulette_select,
)
from repro.optimize.operators import (
    mutate_single_coefficient,
    one_point_crossover,
    tournament_select,
)

__all__ = [
    "EvaluationRecord",
    "FitnessEvaluator",
    "GAConfig",
    "GATimingResult",
    "GenerationRecord",
    "ga_speedup",
    "time_ga_run",
    "GeneticOptimizer",
    "GenomeBounds",
    "GenomeLayout",
    "INFEASIBLE_FITNESS",
    "Individual",
    "OptimizationHistory",
    "SelectionMethod",
    "measure_selection_pressure",
    "rank_select",
    "roulette_select",
    "mutate_single_coefficient",
    "one_point_crossover",
    "tournament_select",
]
