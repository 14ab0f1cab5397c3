"""The repository benchmark: ``/analyze`` cold and hot, and GA jobs.

Run from the repository root::

    python3 perfbench/run.py --workload analyze_cold --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md``):

* ``analyze_cold`` - open-loop Poisson ``POST /analyze`` at 6 req/s,
  every request a distinct default request (viscous on, n = 200);
* ``analyze_hot`` - open-loop Poisson ``/analyze`` at 20 req/s over 16
  keys pre-warmed at set-up, so every request is a cache hit;
* ``ga_job`` - closed loop of durable GA jobs (population 64, n = 200)
  on the process execution backend, polled until DONE.

``--trace 0`` starts ``python -m repro serve`` and reports the
end-to-end metrics; ``--trace 1`` starts the server through
``pbench/launcher.py``, which records spans at each layer boundary,
and reports the per-layer metrics.  Outputs and the server's request
and job counters are checked after the timed window; the last line of
stdout is one JSON object, and the exit code is non-zero when a check
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Latency limit of ``slo_good_share`` (the server's ``--slo-latency-ms``).
SLO_MS = 250.0
#: Cold responses recomputed in-process with the reference kernel.
REFERENCE_SAMPLE = 8
#: Seconds between job-status polls on ``ga_job``.
POLL_S = 0.5

WORKLOADS = {
    "analyze_cold": {"kind": "open", "rate": 6.0},
    "analyze_hot": {"kind": "open", "rate": 20.0},
    "ga_job": {"kind": "jobs"},
}


class Run:
    """State shared by the phases of one benchmark run."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = os.path.join(ROOT, ".perfbench",
                                    f"{workload}-{os.getpid()}")
        self.problems: list = []
        self.ceilings: dict = {}
        self.notes: list = []

    def flags(self) -> list:
        if self.workload == "ga_job":
            return ["--jobs-dir", os.path.join(self.workdir, "jobs"),
                    "--exec-backend", "process", "--exec-procs", "2"]
        return []

    def start_server(self, attempt: int):
        from pbench.server import ServerProcess

        spans = (os.path.join(self.workdir, f"spans-{attempt}.json")
                 if self.trace else None)
        return ServerProcess(ROOT, self.flags(), spans_path=spans,
                             log_path=os.path.join(self.workdir, "serve.log"))


def _warm_up(server, seed: int) -> None:
    """One request outside every key set: lazy imports, worker spawn."""
    from pbench.loadgen import post_json
    from pbench.payloads import encode, warmup_payload

    connection = server.connection()
    try:
        status, body = post_json(connection, "/analyze",
                                 encode(warmup_payload(seed)))
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"warm-up request failed with {status}: {body[:200]!r}")


def _prewarm_hot(server) -> dict:
    """Fill the cache with the 16 hot keys; returns key index -> body."""
    from pbench.loadgen import run_open_loop
    from pbench.payloads import encode, hot_keys

    keys = hot_keys()
    outcomes = run_open_loop(server.port, [encode(k) for k in keys],
                             [0.0] * len(keys), id_prefix="warm")
    bodies = {}
    for outcome in outcomes:
        if outcome.status != 200:
            raise RuntimeError(f"pre-warm of hot key {outcome.index} "
                               f"failed with {outcome.status}")
        bodies[outcome.index] = outcome.body
    return bodies


def set_up(run: Run):
    """Start the server SETUPS times; keep the last one running."""
    durations, server, state = [], None, None
    for attempt in range(SETUPS):
        if server is not None:
            server.stop()
        started = time.monotonic()
        server = run.start_server(attempt)
        try:
            _warm_up(server, run.seed)
            if run.workload == "analyze_hot":
                state = _prewarm_hot(server)
        except BaseException:
            server.stop()
            raise
        durations.append(time.monotonic() - started)
    return server, state, statistics.median(durations)


def settled_metrics(server, check, attempts: int = 20):
    """Scrape ``/metrics`` until *check* finds no problem (or give up).

    The service counts a batched request as completed just after it
    hands the response over, so a scrape sent the moment the last
    response arrives may miss that one increment.  A real mismatch
    persists through every retry and is returned.
    """
    for _ in range(attempts):
        after = server.metrics()
        problems = check(after)
        if not problems:
            break
        time.sleep(0.05)
    return after, problems


def latency_summary(run: Run, latencies, good: int, sent: int) -> dict:
    from pbench.loadgen import percentile, tail_percentile

    tail = tail_percentile(len(latencies))
    run.notes.append(f"{len(latencies)} latency samples: the highest percentile "
                     f"with ten samples beyond it is "
                     + (f"p{tail:g}" if tail else "none"))
    return {
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "slo_good_share": good / sent if sent else 0.0,
    }


def drive_open_loop(run: Run, server, hot_bodies) -> dict:
    from pbench import checks
    from pbench.loadgen import poisson_schedule, run_open_loop
    from pbench.payloads import (cold_payloads, encode, hot_choices,
                                 hot_keys, sample_indices)

    offsets = poisson_schedule(WORKLOADS[run.workload]["rate"], run.seconds,
                               run.seed)
    if run.workload == "analyze_cold":
        payloads = cold_payloads(len(offsets), run.seed)
        choices = None
    else:
        choices = hot_choices(len(offsets), run.seed)
        payloads = [hot_keys()[k] for k in choices]
    bodies = [encode(p) for p in payloads]
    before = server.metrics()
    window_start = time.monotonic()
    outcomes = run_open_loop(server.port, bodies, offsets)
    window_end = time.monotonic()
    statuses = [o.status for o in outcomes]
    after, accounting = settled_metrics(
        server, lambda after: checks.check_request_accounting(before, after,
                                                              statuses))

    # Output checks, outside the timed window.
    wrong = set()
    for outcome, payload in zip(outcomes, payloads):
        if outcome.status != 200:
            continue
        if choices is not None:
            problems = ([] if outcome.body == hot_bodies[choices[outcome.index]]
                        else ["body differs from its pre-warm body"])
        else:
            problems = checks.check_record(outcome.body, payload)
        if problems:
            wrong.add(outcome.index)
            run.problems.append(f"request {outcome.index}: {problems[0]}")
    if choices is None:
        for index in sample_indices(len(payloads), REFERENCE_SAMPLE, run.seed):
            if outcomes[index].status != 200:
                continue
            problems = checks.check_against_reference(
                outcomes[index].body, checks.reference_analysis(payloads[index]))
            if problems:
                wrong.add(index)
                run.problems.append(f"request {index}: {problems[0]}")
    run.problems.extend(accounting)

    sent = len(outcomes)
    failed = sum(1 for o in outcomes if o.status != 200 or o.index in wrong)
    good = sum(1 for o in outcomes if o.status == 200 and o.index not in wrong
               and o.latency_ms <= SLO_MS)
    span_s = max(o.done for o in outcomes) - outcomes[0].scheduled
    metrics = latency_summary(run, [o.latency_ms for o in outcomes], good, sent)
    metrics["evals_per_s"] = (sent - failed) / span_s
    return {"metrics": metrics, "attempted": sent, "failed": failed,
            "outcomes": outcomes, "window": (window_start, window_end),
            "exec_before": before.get("exec_backend", {}),
            "exec_after": after.get("exec_backend", {})}


def drive_jobs(run: Run, server) -> dict:
    from pbench import checks
    from pbench.loadgen import get_json, post_json
    from pbench.payloads import GA_GENERATIONS, GA_POPULATION, encode, ga_spec

    before = server.metrics()
    connection = server.connection()
    polls, jobs, specs, durations = [], [], [], []
    operations = failed = 0
    window_start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - window_start
            if jobs and elapsed + statistics.mean(durations) > run.seconds:
                break
            spec = ga_spec(run.seed, len(jobs))
            submitted = time.monotonic()
            status, body = post_json(connection, "/jobs", encode(spec))
            operations += 1
            if status not in (200, 201, 202):
                raise RuntimeError(f"job submit failed with {status}: {body[:200]!r}")
            job_id = json.loads(body)["id"]
            while True:
                if time.monotonic() - submitted > 150.0:
                    raise RuntimeError(f"job {job_id} did not finish")
                time.sleep(POLL_S)
                sent = time.monotonic()
                status, record = get_json(connection, f"/jobs/{job_id}")
                polls.append((1e3 * (time.monotonic() - sent), status))
                operations += 1
                if status != 200:
                    failed += 1
                elif record["state"] in ("DONE", "FAILED", "CANCELLED"):
                    break
            durations.append(time.monotonic() - submitted)
            jobs.append(record)
            specs.append(spec)
    finally:
        connection.close()
    window_end = time.monotonic()
    done = sum(1 for record in jobs if record.get("state") == "DONE")
    after, accounting = settled_metrics(
        server, lambda after: checks.check_request_accounting(before, after, [])
        + checks.check_job_accounting(before, after, submitted=len(jobs),
                                      done=done, generations=GA_GENERATIONS))
    run.problems.extend(accounting)

    for record, spec in zip(jobs, specs):
        problems = checks.check_champion(record, spec)
        if problems:
            failed += 1
            run.problems.extend(problems)

    # Generation latency from the jobs' own progress events: the time
    # between consecutive generation results, as a watcher sees them.
    connection = server.connection()
    steps = []
    try:
        for record in jobs:
            _, page = get_json(connection, f"/jobs/{record['id']}/events?since=0")
            stamps = [event["at"] for event in page["events"]]
            steps.extend(1e3 * (b - a) for a, b in zip(stamps, stamps[1:]))
    finally:
        connection.close()
    good = sum(1 for ms, status in polls if status == 200 and ms <= SLO_MS)
    metrics = latency_summary(run, steps, good, len(polls))
    metrics["evals_per_s"] = 1e3 * GA_POPULATION / statistics.median(steps)
    run.notes.append(
        f"{done} jobs; {GA_POPULATION * GA_GENERATIONS * done / sum(durations):.4g}"
        f" evals/s from submit to DONE; status poll p50 "
        f"{statistics.median(ms for ms, _ in polls):.4g} ms")
    walls = {record["id"]: 1e3 * duration
             for record, duration in zip(jobs, durations)}
    return {"metrics": metrics, "attempted": operations, "failed": failed,
            "jobs": walls, "window": (window_start, window_end),
            "exec_before": before.get("exec_backend", {}),
            "exec_after": after.get("exec_backend", {})}


def lu_ceilings(stacks, m: int, repeats: int = 15) -> dict:
    """``np.linalg.solve`` GFLOP/s on ``(stack, m, m)`` stacks, this host.

    LAPACK calls can run far below speed for up to about a second after
    a process first uses them, so a warm-up loop runs until 20 calls
    in a row are fast (at most 3 s); each ceiling is then the best of
    *repeats* calls.
    """
    import numpy as np
    from repro.linalg import batched_flops

    rng = np.random.default_rng(0)

    def system(stack):
        return (rng.standard_normal((stack, m, m)) + m * np.eye(m),
                rng.standard_normal((stack, m, 1)))

    matrices, rhs = system(1)
    fast, deadline = 0, time.monotonic() + 3.0
    while fast < 20 and time.monotonic() < deadline:
        started = time.perf_counter()
        np.linalg.solve(matrices, rhs)
        fast = fast + 1 if time.perf_counter() - started < 0.005 else 0
    ceilings = {}
    for stack in stacks:
        matrices, rhs = system(stack)
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            np.linalg.solve(matrices, rhs)
            best = min(best, time.perf_counter() - started)
        ceilings[stack] = batched_flops(stack, m) / best / 1e9
    return ceilings


def layer_metrics(run: Run, result: dict) -> dict:
    """Every per-layer metric, from the traced server's spans."""
    from pbench import layers
    from pbench.loadgen import percentile
    from pbench.payloads import N_PANELS
    from repro.linalg import batched_flops

    with open(os.path.join(run.workdir, f"spans-{SETUPS - 1}.json")) as handle:
        recorded = json.load(handle)
    index = layers.SpanIndex(recorded["spans"])
    window = result["window"]
    metrics = dict.fromkeys(metric_units("per_layer"), 0.0)
    if run.workload == "ga_job":
        walls = result["jobs"]
        serve_or_ga, attributed = layers.job_metrics(index, walls, window)
    else:
        walls = {o.request_id: o.round_trip_ms for o in result["outcomes"]
                 if o.status == 200}
        serve_or_ga, attributed = layers.request_metrics(index, walls, window)
        metrics["loadgen.lag_p90_ms"] = percentile(
            [o.lag_ms for o in result["outcomes"]], 90)
    metrics.update(serve_or_ga)
    metrics.update(layers.compute_layer_stats(index, window, batched_flops,
                                              N_PANELS))
    if metrics["linalg.stack_size_mean"]:
        ceiling = run.ceilings.get(
            max(1, round(metrics["linalg.stack_size_mean"])),
            run.ceilings[max(run.ceilings)])
        metrics["linalg.ceiling_share"] = metrics["linalg.gflops"] / ceiling
    for counter in ("worker_crashes", "inline_fallbacks"):
        metrics[f"parallel.{counter}"] = float(
            result["exec_after"].get(counter, 0) - result["exec_before"].get(counter, 0))
    n = max(1, len(attributed))
    for layer in layers.LAYERS + ("unattributed",):
        value = sum(entry[layer] for entry in attributed) / n
        metrics["unattributed_ms_per_request" if layer == "unattributed"
                else f"self_ms_per_request.{layer}"] = value
    total_wall = sum(walls.values())
    metrics["client_wall_ms_per_request"] = total_wall / max(1, len(walls))
    in_window = sum(1 for record in index.spans
                    if window[0] <= record[layers.START] <= window[1])
    metrics["trace.overhead_share"] = (
        1e3 * recorded["span_overhead_s"] * in_window / total_wall
        if total_wall else 0.0)
    return metrics


def metric_units(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics
    that ``BENCHMARK.json`` defines, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {metric["name"]: metric["unit"]
                for metric in json.load(handle)[kind]}


def execute(run: Run) -> dict:
    if run.trace:
        # The LAPACK ceiling is measured while the host is otherwise
        # idle, at the stack shapes the workloads solve.
        from pbench.payloads import N_PANELS

        run.ceilings = lu_ceilings((1, 2, 32), N_PANELS)
    server, hot_bodies, setup_s = set_up(run)
    try:
        if WORKLOADS[run.workload]["kind"] == "open":
            result = drive_open_loop(run, server, hot_bodies)
        else:
            result = drive_jobs(run, server)
        result["metrics"]["server_peak_rss_mb"] = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        run.problems.append(f"server exited with code {code}")
    result["metrics"]["setup_s"] = setup_s
    if run.trace:
        result["layer_metrics"] = layer_metrics(run, result)
    return result


def report(run: Run, result: dict) -> dict:
    units = metric_units("per_layer" if run.trace else "end_to_end")
    values = result["layer_metrics"] if run.trace else result["metrics"]
    print(f"workload={run.workload} seed={run.seed} seconds={run.seconds:g} "
          f"trace={int(run.trace)}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_share':40s} {failed / attempted:14.6g} share "
          f"({failed}/{attempted})")
    for note in run.notes:
        print(f"  {note}")
    if run.problems:
        print("  checks FAILED: " + "; ".join(run.problems[:8]))
    else:
        print("  checks: ok (outputs and server accounting)")
    return {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    run = Run(arguments.workload, arguments.seed, arguments.seconds,
              bool(arguments.trace))
    os.makedirs(run.workdir, exist_ok=True)
    try:
        result = execute(run)
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run.workdir))  # only when empty
        except OSError:
            pass
    summary = report(run, result)
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
