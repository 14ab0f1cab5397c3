"""Benchmark: the jobs subsystem's batched generation evaluation.

Two sections, one JSON artifact (``BENCH_jobs.json``):

* **Generation evaluation** — the same GA population evaluated by the
  serial per-genome loop (:meth:`FitnessEvaluator.evaluate`, a stack of
  one each) and by :meth:`FitnessEvaluator.evaluate_population`, which
  stacks every feasible candidate of the generation into one batched
  solve through the shared request path.  This is the paper's argument
  applied to the optimizer's inner loop: the GA offers a naturally
  batched workload (population evaluation), and the batched kernels
  collapse it into a handful of stacked solves.  The two paths are
  asserted bit-identical before any timing is reported.
* **Checkpoint overhead** — one job driven through the
  :class:`~repro.jobs.JobRunner` with a checkpoint after every
  generation versus one that never checkpoints mid-run, so the
  artifact records what the durability guarantee costs per generation.

Also runnable standalone::

    PYTHONPATH=src python benchmarks/bench_jobs.py [--smoke]
        [--output BENCH_jobs.json]
"""

import argparse
import json
import os
import tempfile
import time

import numpy as np

from repro.jobs import JobRunner, JobSpec, JobStore
from repro.optimize import FitnessEvaluator, GenomeLayout

N_PANELS = 120
POPULATION = 64
REPEATS = 3
SMOKE_N_PANELS = 60
SMOKE_POPULATION = 16
SMOKE_REPEATS = 2

#: Generations of the checkpoint-overhead job.
RUNNER_GENERATIONS = 4
SMOKE_RUNNER_GENERATIONS = 2

#: Default artifact filename (see ``conftest.write_bench_json``).
OUTPUT_FILENAME = "BENCH_jobs.json"


def make_population(evaluator, size, seed=20160704):
    rng = np.random.default_rng(seed)
    return [evaluator.layout.random_genome(rng) for _ in range(size)]


def _identical(serial_records, batched_records):
    for serial, batched in zip(serial_records, batched_records):
        for field in ("fitness", "cl", "cd"):
            left, right = getattr(serial, field), getattr(batched, field)
            if left is None or right is None:
                assert left is right
            else:
                assert np.float64(left).tobytes() == np.float64(right).tobytes()
        assert serial.failure == batched.failure


def generation_comparison(*, smoke=False):
    """Serial vs batched evaluation of one GA generation."""
    n_panels = SMOKE_N_PANELS if smoke else N_PANELS
    size = SMOKE_POPULATION if smoke else POPULATION
    repeats = SMOKE_REPEATS if smoke else REPEATS
    evaluator = FitnessEvaluator(layout=GenomeLayout(n_upper=5, n_lower=5),
                                 n_panels=n_panels, reynolds=4e5)
    population = make_population(evaluator, size)
    serial_records = [evaluator.evaluate(genome) for genome in population]
    batched_records = evaluator.evaluate_population(population)
    _identical(serial_records, batched_records)

    def best_of(run):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return min(times)

    serial_s = best_of(lambda: [evaluator.evaluate(genome)
                                for genome in population])
    batched_s = best_of(lambda: evaluator.evaluate_population(population))
    return {
        "n_panels": n_panels,
        "population": size,
        "repeats": repeats,
        "serial_s": round(serial_s, 6),
        "batched_s": round(batched_s, 6),
        "serial_genomes_per_s": round(size / serial_s, 1),
        "batched_genomes_per_s": round(size / batched_s, 1),
        "speedup": round(serial_s / batched_s, 3),
    }


def _run_job(jobs_dir, spec_dict):
    store = JobStore(jobs_dir)
    runner = JobRunner(store).start()
    record = runner.submit(JobSpec.from_dict(spec_dict))
    start = time.perf_counter()
    while not store.get(record.id).terminal:
        time.sleep(0.005)
    wall = time.perf_counter() - start
    final = store.get(record.id)
    assert final.state == "DONE", final.error
    checkpoints = store.metrics.snapshot()["checkpoints"]
    runner.close()
    store.close()
    return wall, checkpoints


def checkpoint_overhead(*, smoke=False):
    """One job checkpointing every generation vs never mid-run."""
    generations = SMOKE_RUNNER_GENERATIONS if smoke else RUNNER_GENERATIONS
    population = SMOKE_POPULATION if smoke else POPULATION
    n_panels = SMOKE_N_PANELS if smoke else N_PANELS
    spec = {"seed": 7,
            "ga": {"population_size": population, "generations": generations},
            "fitness": {"n_panels": n_panels}}
    rows = []
    for label, cadence in (("every_generation", 1),
                           ("never_mid_run", generations)):
        with tempfile.TemporaryDirectory() as jobs_dir:
            wall, checkpoints = _run_job(
                jobs_dir, dict(spec, checkpoint_every=cadence)
            )
        rows.append({"cadence": label, "checkpoint_every": cadence,
                     "wall_s": round(wall, 4),
                     "checkpoints_written": checkpoints,
                     "generations": generations})
    return {"generations": generations, "population": population,
            "rows": rows}


def check_rows(generation, overhead):
    assert generation["batched_s"] > 0.0 and generation["serial_s"] > 0.0
    every, never = overhead["rows"]
    assert every["checkpoints_written"] == overhead["generations"] - 1
    assert never["checkpoints_written"] == 0


def _artifact(generation, overhead, *, smoke):
    return {"smoke": smoke, "generation_evaluation": generation,
            "checkpoint_overhead": overhead}


def test_jobs_generation_throughput(benchmark):
    from conftest import run_once, write_bench_json

    generation = run_once(benchmark, lambda: generation_comparison(smoke=False))
    overhead = checkpoint_overhead(smoke=False)
    print("\n" + json.dumps(generation, indent=2))
    print(json.dumps(overhead, indent=2))
    check_rows(generation, overhead)
    path = write_bench_json(OUTPUT_FILENAME,
                            _artifact(generation, overhead, smoke=False))
    print(f"wrote {path}")


if __name__ == "__main__":
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from conftest import write_bench_json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--output", default=OUTPUT_FILENAME, metavar="FILE",
                        help="artifact filename (relative paths land in "
                             "$BENCH_OUTPUT_DIR when set; default "
                             f"{OUTPUT_FILENAME})")
    arguments = parser.parse_args()
    generation_rows = generation_comparison(smoke=arguments.smoke)
    overhead_rows = checkpoint_overhead(smoke=arguments.smoke)
    print(json.dumps(generation_rows, indent=2))
    print(json.dumps(overhead_rows, indent=2))
    check_rows(generation_rows, overhead_rows)
    artifact_path = write_bench_json(arguments.output,
                                     _artifact(generation_rows, overhead_rows,
                                               smoke=arguments.smoke))
    print(f"wrote {artifact_path}")
