"""Per-layer metrics from the traced run's spans.

A span record is ``[id, name, start, end, parent_id, request_id,
extra]`` (see :mod:`pbench.launcher`).  A layer's *self time* is its
spans' duration minus what their child spans cover.  Self times are
attributed per request (per job on ``ga_job``) along the steps that
block the client; ``unattributed`` is the client's wall time minus
their sum.

Attribution rules for one ``/analyze`` request:

* ``serve.http``: client round trip minus the ``serve.analyze`` span
  and the handler's ``core.canonical_json``;
* ``serve.service``: queue wait plus batch collect, from the end of
  the handler's admission spans to the first span the batch worker
  runs for the request.  The rest of the ``serve.analyze`` span not
  covered by a child span (payload parsing, counters, the wake-up of
  the handler) is left unattributed.  Children of ``serve.analyze``
  are the handler thread's cache spans plus the batch worker's spans
  for the request, the whole ``core.evaluate`` span that served it
  included (a batch blocks every rider);
* ``serve.cache``: key derivation, lookups and the insert;
* ``core.api``: response shaping plus the self time of
  ``core.evaluate`` and ``core.solve_systems``;
* ``panel`` / ``linalg`` / ``viscous``: assembly, LU factor and
  substitution, viscous pass inside that evaluation.

For a GA job, ``parallel.solve`` spans are split along the longest
worker shard: its assembly and LU stamps go to ``panel`` / ``linalg``,
the rest of the shard to ``core.api``, and the span's wall time beyond
that shard to ``parallel`` (pickling, pipes, shared memory, waiting).
"""

from __future__ import annotations

import collections
from typing import Dict, Iterable, List, Optional, Sequence

from pbench.loadgen import percentile

ID, NAME, START, END, PARENT, RID, EXTRA = range(7)

#: Layers whose self times are attributed, in report order.
LAYERS = ("serve.http", "serve.service", "serve.cache", "core.api", "panel",
          "linalg", "viscous", "parallel", "optimize", "jobs")

_LAYER_OF = {
    "serve.cache.key": "serve.cache", "serve.cache.get": "serve.cache",
    "serve.cache.put": "serve.cache", "core.evaluate": "core.api",
    "core.solve_systems": "core.api", "core.serialize": "core.api",
    "core.canonical_json": "core.api", "panel.assemble": "panel",
    "linalg.factor": "linalg", "linalg.substitute": "linalg",
    "viscous.analyze": "viscous", "optimize.generation": "optimize",
    "optimize.build_airfoil": "optimize",
    "optimize.serial_evaluate": "optimize", "jobs.checkpoint": "jobs",
    "jobs.progress": "jobs", "jobs.mark_running": "jobs",
}


def duration_ms(record) -> float:
    return 1e3 * (record[END] - record[START])


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


class SpanIndex:
    """Spans grouped by name, parent and request id."""

    def __init__(self, spans: Iterable[list]) -> None:
        self.spans = list(spans)
        self.children: Dict[int, List[list]] = collections.defaultdict(list)
        self.by_rid: Dict[str, List[list]] = collections.defaultdict(list)
        self.by_name: Dict[str, List[list]] = collections.defaultdict(list)
        for record in self.spans:
            self.children[record[PARENT]].append(record)
            self.by_name[record[NAME]].append(record)
            if record[RID] is not None:
                self.by_rid[record[RID]].append(record)

    def self_ms(self, record) -> float:
        return duration_ms(record) - sum(duration_ms(child) for child in
                                         self.children.get(record[ID], ()))

    def subtree_self(self, record, into: Dict[str, float]) -> None:
        """Add the self time of *record* and its descendants by layer."""
        layer = _LAYER_OF.get(record[NAME])
        if layer is not None:
            into[layer] += self.self_ms(record)
        for child in self.children.get(record[ID], ()):
            self.subtree_self(child, into)

    def in_window(self, name: str, start: float, end: float) -> List[list]:
        return [record for record in self.by_name.get(name, ())
                if start <= record[START] <= end]


def attribute_request(index: SpanIndex, rid: str, wall_ms: float,
                      batch_of: Dict[str, list]) -> Optional[Dict[str, float]]:
    """Self time by layer along one ``/analyze`` request's blocking path."""
    own = index.by_rid.get(rid, ())
    analyze = next((r for r in own if r[NAME] == "serve.analyze"), None)
    if analyze is None:
        return None
    layers = dict.fromkeys(LAYERS, 0.0)
    handler_json = sum(duration_ms(r) for r in own
                       if r[NAME] == "core.canonical_json"
                       and r[START] >= analyze[END])
    layers["serve.http"] = wall_ms - duration_ms(analyze) - handler_json
    layers["core.api"] += handler_json
    # Children of the analyze span: same-thread ones by parent id, the
    # batch worker's ones by request id, plus the evaluation that
    # served the request.
    handler = list(index.children.get(analyze[ID], ()))
    worker = [r for r in own if r[PARENT] == 0 and r is not analyze
              and r[NAME] != "core.canonical_json"
              and analyze[START] <= r[START] <= analyze[END]]
    evaluation = batch_of.get(rid)
    if evaluation is not None:
        worker.append(evaluation)
    if worker:
        # Queue wait plus batch collect: from the end of admission to
        # the first thing the batch worker does for this request.
        picked_up = min(r[START] for r in worker)
        admitted = max((r[END] for r in handler if r[END] <= picked_up),
                       default=analyze[START])
        layers["serve.service"] = 1e3 * (picked_up - admitted)
    for child in handler + worker:
        index.subtree_self(child, layers)
    layers["unattributed"] = wall_ms - sum(layers[name] for name in LAYERS)
    return layers


def _shards(stamps: Sequence) -> List[List[tuple]]:
    """Split a ``parallel.solve`` span's stamps into per-shard lists.

    Each worker's stamps arrive together and end with its
    ``pb.core.solve_systems_shard`` stamp, which covers the whole shard.
    """
    shards, current = [], []
    for stamp in stamps:
        if not stamp[0].endswith("_shard"):
            continue
        current.append(stamp)
        if stamp[0] == "pb.core.solve_systems_shard":
            shards.append(current)
            current = []
    return shards


def _stamp_ms(stamp) -> float:
    return 1e3 * (stamp[2] - stamp[1])


def split_parallel_solve(record) -> Dict[str, float]:
    """Wall time of one ``parallel.solve`` span by layer (longest shard)."""
    out = dict.fromkeys(("panel", "linalg", "core.api", "parallel"), 0.0)
    shards = _shards(record[EXTRA]["stamps"])
    wall = duration_ms(record)
    if not shards:
        out["parallel"] = wall
        return out
    longest = max(shards, key=lambda shard: _stamp_ms(shard[-1]))
    shard_ms = _stamp_ms(longest[-1])
    for stamp in longest:
        if stamp[0] == "pb.panel.assemble_shard":
            out["panel"] += _stamp_ms(stamp)
        elif stamp[0] in ("pb.linalg.factor_shard", "pb.linalg.substitute_shard"):
            out["linalg"] += _stamp_ms(stamp)
    out["core.api"] = shard_ms - out["panel"] - out["linalg"]
    out["parallel"] = wall - shard_ms
    return out


def attribute_job(index: SpanIndex, job_id: str,
                  wall_ms: float) -> Dict[str, float]:
    """Self time by layer along one GA job's blocking path."""
    layers = dict.fromkeys(LAYERS, 0.0)
    for record in index.by_rid.get(job_id, ()):
        name = record[NAME]
        if name == "parallel.solve":
            for layer, value in split_parallel_solve(record).items():
                layers[layer] += value
        elif name in _LAYER_OF:
            layers[_LAYER_OF[name]] += index.self_ms(record)
    layers["unattributed"] = wall_ms - sum(layers[name] for name in LAYERS)
    return layers


def lu_rates(factor: Sequence, substitute: Sequence, flops_of) -> tuple:
    """``(factor ms/system, substitute ms/system, mean stack, GFLOP/s)``.

    *factor* and *substitute* are ``(duration_ms, stack, m)`` triples;
    ``flops_of(stack, m)`` is the computed flop count of one factor +
    solve (``repro.linalg.batched_flops``).
    """
    systems = sum(stack for _, stack, _ in factor)
    if not systems:
        return 0.0, 0.0, 0.0, 0.0
    factor_ms = sum(ms for ms, _, _ in factor)
    substitute_ms = sum(ms for ms, _, _ in substitute)
    flops = sum(flops_of(stack, m) for _, stack, m in factor)
    seconds = (factor_ms + substitute_ms) / 1e3
    return (factor_ms / systems,
            substitute_ms / max(1, sum(stack for _, stack, _ in substitute)),
            systems / len(factor),
            flops / seconds / 1e9 if seconds > 0 else 0.0)


def request_metrics(index: SpanIndex, walls: Dict[str, float],
                    window: tuple) -> tuple:
    """Serve-side per-layer metrics of an ``/analyze`` workload, and the
    per-request attribution (see :func:`attribute_request`)."""
    start, end = window
    gets = index.in_window("serve.cache.get", start, end)
    evaluations = index.in_window("core.evaluate", start, end)
    batch_of = {}
    for record in evaluations:
        for rid in record[EXTRA]["rids"]:
            if rid is not None:
                batch_of[rid] = record
    http_self, waits, keys, serialize = [], [], [], []
    attributed = []
    for rid, wall in walls.items():
        layers = attribute_request(index, rid, wall, batch_of)
        if layers is None:
            continue
        attributed.append(layers)
        http_self.append(layers["serve.http"])
        waits.append(layers["serve.service"])
        own = index.by_rid.get(rid, ())
        keys.extend(duration_ms(r) for r in own if r[NAME] == "serve.cache.key")
        serialize.append(sum(duration_ms(r) for r in own if r[NAME] in
                             ("core.serialize", "core.canonical_json")))
    served = sum(len(r[EXTRA]["rids"]) for r in evaluations)
    return {
        "serve.http.self_ms_p50": _p(http_self, 50),
        "serve.http.self_ms_p90": _p(http_self, 90),
        "serve.cache.key_ms_p50": _p(keys, 50),
        "serve.cache.hit_share": (sum(1 for r in gets if r[EXTRA]["hit"]) / len(gets)
                                  if gets else 0.0),
        "serve.cache.puts": float(len(index.in_window("serve.cache.put", start, end))),
        "serve.service.wait_ms_p50": _p(waits, 50),
        "serve.batcher.batch_size_mean": (served / len(evaluations)
                                          if evaluations else 0.0),
        "core.api.evaluate_ms_per_request": (
            sum(duration_ms(r) for r in evaluations) / served if served else 0.0),
        "core.api.serialize_ms_per_request": _mean(serialize),
    }, attributed


def job_metrics(index: SpanIndex, jobs: Dict[str, float],
                window: tuple) -> tuple:
    """GA-side per-layer metrics of the ``ga_job`` workload, and the
    per-job attribution (see :func:`attribute_job`)."""
    start, end = window
    generations = index.in_window("optimize.generation", start, end)
    builds = index.in_window("optimize.build_airfoil", start, end)
    solves = index.in_window("parallel.solve", start, end)
    ipc = [split_parallel_solve(r)["parallel"] for r in solves]
    return {
        "parallel.solve_ms_per_generation": _mean([duration_ms(r) for r in solves]),
        "parallel.ipc_ms_per_generation": _mean(ipc),
        "optimize.generation_ms": _mean([duration_ms(r) for r in generations]),
        "optimize.build_airfoil_ms_per_genome": _mean([duration_ms(r) for r in builds]),
        "optimize.feasible_share": (sum(1 for r in builds if r[EXTRA]["feasible"])
                                    / len(builds) if builds else 0.0),
        "optimize.serial_retries": float(len(index.in_window(
            "optimize.serial_evaluate", start, end))),
        "jobs.checkpoint_ms": _mean([duration_ms(r) for r in index.in_window(
            "jobs.checkpoint", start, end)]),
        "jobs.progress_ms": _mean([duration_ms(r) for r in index.in_window(
            "jobs.progress", start, end)]),
    }, [attribute_job(index, job_id, wall) for job_id, wall in jobs.items()]


def compute_layer_stats(index: SpanIndex, window: tuple,
                        flops_of, n_panels: int) -> Dict[str, float]:
    """Assembly, LU and viscous rates, from spans or worker stamps."""
    start, end = window
    assemble = [duration_ms(r) for r in index.in_window("panel.assemble", start, end)]
    factor = [(duration_ms(r), r[EXTRA]["stack"], r[EXTRA]["m"])
              for r in index.in_window("linalg.factor", start, end)]
    substitute = [(duration_ms(r), r[EXTRA]["stack"], r[EXTRA]["m"])
                  for r in index.in_window("linalg.substitute", start, end)]
    for record in index.in_window("parallel.solve", start, end):
        for stage, s0, s1, count in record[EXTRA]["stamps"]:
            ms = 1e3 * (s1 - s0)
            if stage == "pb.panel.assemble_shard":
                assemble.append(ms)
            elif stage == "pb.linalg.factor_shard":
                factor.append((ms, count, n_panels))
            elif stage == "pb.linalg.substitute_shard":
                substitute.append((ms, count, n_panels))
    viscous = [duration_ms(r) for r in index.in_window("viscous.analyze", start, end)]
    factor_ms, substitute_ms, stack_mean, gflops = lu_rates(factor, substitute,
                                                            flops_of)
    return {
        "panel.assembly_ms_per_system": _mean(assemble),
        "panel.assembly_calls": float(len(assemble)),
        "linalg.factor_ms_per_system": factor_ms,
        "linalg.substitute_ms_per_system": substitute_ms,
        "linalg.stack_size_mean": stack_mean,
        "linalg.gflops": gflops,
        "viscous.ms_per_call": _mean(viscous),
        "viscous.calls": float(len(viscous)),
    }
