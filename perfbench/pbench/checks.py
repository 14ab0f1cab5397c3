"""Output and accounting checks, run outside the timed window.

Each check returns a list of human-readable problems; an empty list
means the check passed.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence

#: Relative tolerance on cl and cm against the reference recompute.
CL_CM_RTOL = 1e-6
#: Relative tolerance on cd against the reference recompute.
CD_RTOL = 1e-5
#: Relative tolerance on the GA champion's fitness against a serial
#: re-evaluation of its genome.
FITNESS_RTOL = 1e-6

#: Fields of a served record that must be finite numbers.
FINITE_FIELDS = ("cl", "cm", "cd", "lift_to_drag")

#: The service's request counters compared against the client.
REQUEST_COUNTERS = ("admitted", "completed", "failed", "shed", "expired",
                    "cancelled")


def _close(served: float, expected: float, rtol: float) -> bool:
    return abs(served - expected) <= rtol * max(abs(expected), 1e-12)


def check_record(body: bytes, payload: dict) -> List[str]:
    """A 200 body parses, echoes its request and holds no NaN/inf."""
    try:
        record = json.loads(body)
    except ValueError as error:
        return [f"body is not JSON: {error}"]
    problems = []
    for field in FINITE_FIELDS:
        value = record.get(field)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{field} is not a finite number: {value!r}")
    expected_name = "NACA " + payload["airfoil"]
    if record.get("airfoil") != expected_name:
        problems.append(f"airfoil {record.get('airfoil')!r} != {expected_name!r}")
    if record.get("alpha_degrees") != float(payload["alpha_degrees"]):
        problems.append("alpha_degrees not echoed")
    if record.get("n_panels") != int(payload["n_panels"]):
        problems.append("n_panels not echoed")
    if record.get("reynolds") != float(payload["reynolds"]):
        problems.append("reynolds not echoed")
    return problems


def check_against_reference(body: bytes, reference) -> List[str]:
    """cl/cm/cd of a served body against a reference-kernel analysis.

    *reference* is anything with ``cl``, ``cm`` and ``cd`` attributes
    (an :class:`repro.core.api.AirfoilAnalysis`).
    """
    try:
        record = json.loads(body)
    except ValueError as error:
        return [f"body is not JSON: {error}"]
    problems = []
    for field, rtol in (("cl", CL_CM_RTOL), ("cm", CL_CM_RTOL), ("cd", CD_RTOL)):
        served = record.get(field)
        expected = float(getattr(reference, field))
        if (not isinstance(served, (int, float)) or not math.isfinite(served)
                or not _close(float(served), expected, rtol)):
            problems.append(f"{field}={served!r} differs from reference "
                            f"{expected!r} beyond rtol {rtol:g}")
    return problems


def reference_analysis(payload: dict):
    """Recompute one payload in-process with the reference kernel."""
    from repro.core.api import AnalyzeRequest

    return AnalyzeRequest.from_dict(dict(payload)).run(kernel="reference")


def check_champion(job: dict, spec: dict) -> List[str]:
    """The job is DONE and its champion re-scores serially to its fitness."""
    import numpy as np
    from repro.jobs.model import JobSpec

    if job.get("state") != "DONE":
        return [f"job {job.get('id')} ended {job.get('state')}: {job.get('error')}"]
    champion = (job.get("result") or {}).get("champion") or {}
    genome = champion.get("genome")
    fitness = champion.get("fitness")
    if genome is None or not isinstance(fitness, (int, float)):
        return [f"job {job.get('id')} has no champion"]
    evaluator = JobSpec.from_dict(spec).fitness_evaluator()
    serial = evaluator.evaluate(np.asarray(genome, dtype=np.float64)).fitness
    if not math.isfinite(fitness) or not _close(fitness, serial, FITNESS_RTOL):
        return [f"job {job.get('id')} champion fitness {fitness!r} != serial "
                f"re-evaluation {serial!r}"]
    return []


def delta(before: dict, after: dict, section: str,
          names: Sequence[str]) -> Dict[str, int]:
    """Counter increments of ``after[section]`` over ``before[section]``."""
    return {name: int(after[section][name]) - int(before[section][name])
            for name in names}


def check_request_accounting(before: dict, after: dict,
                             statuses: Sequence[int]) -> List[str]:
    """The service's request counters agree with what the client saw.

    Every request the client sent was either admitted or shed; each
    200 is one completion, each 504 one expiry, each 503 one shed and
    any other status one failure.  Nothing may still be in flight.
    """
    counted = delta(before, after, "requests", REQUEST_COUNTERS)
    sent = len(statuses)
    observed = {
        "completed": sum(1 for s in statuses if s == 200),
        "expired": sum(1 for s in statuses if s == 504),
        "shed": sum(1 for s in statuses if s == 503),
        "failed": sum(1 for s in statuses if s not in (200, 503, 504)),
        "cancelled": 0,
    }
    problems = [f"requests.{name}: server counted {counted[name]}, "
                f"client observed {value}"
                for name, value in observed.items() if counted[name] != value]
    if counted["admitted"] + counted["shed"] != sent:
        problems.append(f"requests.admitted + shed = "
                        f"{counted['admitted'] + counted['shed']}, "
                        f"client sent {sent}")
    in_flight = int(after["requests"].get("in_flight", 0))
    if in_flight:
        problems.append(f"requests.in_flight is {in_flight} after the run")
    return problems


def check_job_accounting(before: dict, after: dict, *, submitted: int,
                         done: int, generations: int) -> List[str]:
    """The jobs counters agree with the jobs the client ran to DONE."""
    names = ("submitted", "started", "done", "failed", "cancelled",
             "generations_completed", "checkpoints")
    counted = delta(before, after, "jobs", names)
    expected = {
        "submitted": submitted, "started": submitted, "done": done,
        "failed": 0, "cancelled": 0,
        "generations_completed": done * generations,
        # checkpoint_every=1 writes one after every generation but the last
        "checkpoints": done * (generations - 1),
    }
    return [f"jobs.{name}: server counted {counted[name]}, expected {value}"
            for name, value in expected.items() if counted[name] != value]

