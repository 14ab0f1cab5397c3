"""High-level facade over the whole library.

Three entry points mirror the three things the paper does:

* :func:`analyze` — one airfoil, one flow condition, full aerodynamic
  report (the inner solver).
* :func:`optimize` — the genetic optimization of an airfoil shape
  (the outer loop).
* :func:`simulate_hybrid` — the hybrid accelerator pipeline for a
  workload on a chosen workstation configuration (the contribution).

The serving wire format also lives here: :class:`AnalyzeRequest`
describes one evaluation, :func:`evaluate_requests` runs a stack of
them through the batched assembly/solve path, and
:func:`serialize_analysis` / :func:`canonical_json` render the result.
The CLI's ``--json`` output and the :mod:`repro.serve` HTTP responses
share all three, so both produce byte-identical records for identical
inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import time
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.errors import ReproError, ServeError
from repro.geometry.airfoil import Airfoil
from repro.geometry.naca import naca
from repro.hardware.host import paper_workstation
from repro.optimize.fitness import FitnessEvaluator
from repro.optimize.ga import GAConfig, GeneticOptimizer
from repro.optimize.genome import GenomeLayout
from repro.optimize.history import OptimizationHistory
# Not called here: perfbench's tracing launcher wraps these names in this module.
from repro.linalg import batched_lu_factor, batched_lu_solve  # noqa: F401
from repro.panel.assembly import assemble
from repro.panel.freestream import Freestream
from repro.panel.solution import PanelSolution
from repro.panel.solver import solve_stack
from repro.pipeline.engine import Timeline, simulate
from repro.pipeline.metrics import HybridMetrics, evaluate
from repro.pipeline.schedules import cpu_only, dual_accelerator, hybrid
from repro.pipeline.workload import Workload
from repro.precision import Precision, PrecisionLike
from repro.viscous.drag import ViscousAnalysis, analyze_viscous

AirfoilLike = Union[Airfoil, str]


def _as_airfoil(airfoil: AirfoilLike, n_panels: int) -> Airfoil:
    if isinstance(airfoil, Airfoil):
        return airfoil
    return naca(str(airfoil).replace("NACA", "").strip(), n_panels)


@dataclasses.dataclass(frozen=True)
class AirfoilAnalysis:
    """Complete aerodynamic characterization of one configuration."""

    solution: PanelSolution
    viscous: Optional[ViscousAnalysis]

    @property
    def cl(self) -> float:
        """Lift coefficient (inviscid, Kutta–Joukowski)."""
        return self.solution.lift_coefficient

    @property
    def cd(self) -> Optional[float]:
        """Profile-drag coefficient (``None`` without a viscous pass)."""
        return self.viscous.drag_coefficient if self.viscous else None

    @property
    def cm(self) -> float:
        """Quarter-chord moment coefficient."""
        return self.solution.moment_coefficient()

    @property
    def lift_to_drag(self) -> Optional[float]:
        """``cl / cd`` (``None`` without a viscous pass)."""
        if self.viscous is None:
            return None
        return self.viscous.lift_to_drag

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        foil = self.solution.airfoil
        lines = [
            f"{foil.name}: alpha = {self.solution.freestream.alpha_degrees:.2f} deg,"
            f" {foil.n_panels} panels",
            f"  cl = {self.cl:+.4f}   cm(c/4) = {self.cm:+.4f}",
        ]
        if self.viscous is not None:
            lines.append(
                f"  cd = {self.cd:.5f}   L/D = {self.lift_to_drag:.1f}"
                f"   Re = {self.viscous.reynolds:.2e}"
                + ("   (separated)" if self.viscous.separated else "")
            )
        return "\n".join(lines)


def analyze(airfoil: AirfoilLike, alpha_degrees: float = 0.0, *,
            reynolds: Optional[float] = 1e6, n_panels: int = 200,
            precision: PrecisionLike = Precision.DOUBLE,
            use_head: bool = True) -> AirfoilAnalysis:
    """Analyze an airfoil (by object or NACA designation string).

    ``reynolds=None`` skips the viscous pass (inviscid only).  This is
    :meth:`AnalyzeRequest.run`, so the library, the CLI and the served
    ``/analyze`` compute the same bits.
    """
    return AnalyzeRequest(airfoil=airfoil, alpha_degrees=alpha_degrees,
                          reynolds=reynolds, n_panels=n_panels,
                          precision=precision, use_head=use_head).run()


def optimize(*, population_size: int = 60, generations: int = 8,
             n_panels: int = 120, reynolds: float = 5e5,
             seed: Optional[int] = None,
             layout: GenomeLayout = None) -> OptimizationHistory:
    """Run the paper's genetic airfoil optimization."""
    layout = layout or GenomeLayout()
    evaluator = FitnessEvaluator(layout=layout, n_panels=n_panels,
                                 reynolds=reynolds)
    config = GAConfig(population_size=population_size, generations=generations)
    optimizer = GeneticOptimizer(evaluator=evaluator, config=config)
    return optimizer.run(np.random.default_rng(seed))


@dataclasses.dataclass(frozen=True)
class HybridExperiment:
    """A simulated hybrid run with its baseline comparison."""

    metrics: HybridMetrics
    baseline: HybridMetrics
    timeline: Timeline

    @property
    def speedup(self) -> float:
        """Speedup over the CPU-only configuration."""
        return self.baseline.wall_time / self.metrics.wall_time


def simulate_hybrid(*, accelerator: str = "k80-half", sockets: int = 2,
                    precision: PrecisionLike = Precision.DOUBLE,
                    n_slices: int = 10, batch: int = 4000, n: int = 200,
                    distribution: float = 0.75) -> HybridExperiment:
    """Simulate one hybrid configuration against its CPU baseline.

    ``accelerator`` is one of ``"phi"``, ``"k80-half"``, ``"k80-dual"``.
    ``distribution`` only applies to the dual-GPU scheme.
    """
    precision = Precision.parse(precision)
    workload = Workload(batch=batch, n=n, precision=precision)
    workstation = paper_workstation(
        sockets=sockets, accelerator=accelerator, precision=precision
    )
    baseline_timeline = simulate(cpu_only(workload, workstation.cpu))
    baseline = evaluate(baseline_timeline)
    if accelerator == "k80-dual":
        schedule = dual_accelerator(workload, workstation, distribution, n_slices)
    else:
        schedule = hybrid(workload, workstation, n_slices)
    timeline = simulate(schedule)
    metrics = evaluate(timeline).with_baseline(baseline.wall_time)
    return HybridExperiment(metrics=metrics, baseline=baseline, timeline=timeline)


# ----------------------------------------------------------------------
# Serving wire format (shared by the CLI and repro.serve)
# ----------------------------------------------------------------------

#: Wire-format field names accepted by :meth:`AnalyzeRequest.from_dict`.
REQUEST_FIELDS = (
    "airfoil", "alpha_degrees", "reynolds", "n_panels", "precision", "use_head",
)

#: Transport-level deadline field accepted alongside a request payload.
#: It is *not* part of :class:`AnalyzeRequest`: the deadline describes
#: how long the caller is willing to wait, never what is computed, so
#: it must not perturb cache keys or response records.
DEADLINE_FIELD = "deadline_ms"


def validate_deadline_ms(value) -> float:
    """Validate a relative deadline budget in milliseconds.

    Returns the budget as a float; raises :class:`ServeError` for
    non-numeric, non-finite, or non-positive values.
    """
    try:
        deadline = float(value)
    except (TypeError, ValueError):
        raise ServeError(f"deadline_ms must be a number, got {value!r}")
    if not math.isfinite(deadline) or deadline <= 0.0:
        raise ServeError(
            f"deadline_ms must be positive and finite, got {value!r}"
        )
    return deadline


def extract_deadline_ms(payload):
    """Split the transport-level deadline out of a wire payload.

    Returns ``(payload, deadline_ms)`` where *payload* no longer
    contains :data:`DEADLINE_FIELD` (the original dict is not mutated)
    and *deadline_ms* is a validated float or ``None``.  Non-dict
    payloads pass through untouched so :meth:`AnalyzeRequest.from_dict`
    can produce its usual error.
    """
    if not isinstance(payload, dict) or DEADLINE_FIELD not in payload:
        return payload, None
    payload = dict(payload)
    raw = payload.pop(DEADLINE_FIELD)
    if raw is None:
        return payload, None
    return payload, validate_deadline_ms(raw)


#: Largest panel count a wire request or job spec may ask for.  Assembly
#: allocates several ``n x n`` arrays per system, so without a cap one
#: request body could ask for gigabytes; the largest n the repository
#: itself uses is 400.  The library :func:`analyze` is not capped.
MAX_WIRE_PANELS = 1000


def validate_n_panels(value) -> int:
    """Validate a panel count received over the wire.

    Accepts an integral number (``200`` or ``200.0``) from 3 to
    :data:`MAX_WIRE_PANELS` and returns it as an ``int``; raises
    :class:`ServeError` otherwise, so a fractional count is rejected
    rather than truncated.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (isinstance(value, numbers.Integral)
                    or float(value).is_integer())):
        raise ServeError(f"n_panels must be an integer, got {value!r}")
    n_panels = int(value)
    if not 3 <= n_panels <= MAX_WIRE_PANELS:
        raise ServeError(
            f"n_panels must be between 3 and {MAX_WIRE_PANELS}, got {value!r}"
        )
    return n_panels


@dataclasses.dataclass(frozen=True)
class AnalyzeRequest:
    """One airfoil-evaluation request (the serving wire format).

    Parameters mirror :func:`analyze`; ``airfoil`` is a NACA
    designation string on the wire (an :class:`Airfoil` object is also
    accepted for in-process use).  ``reynolds=None`` skips the viscous
    pass.

    :meth:`run` evaluates through the *batched* assembly/solve path (a
    stack of one), so an offline CLI evaluation and a served one
    compute bit-identical numbers — LAPACK solves each matrix of the
    stack on its own, making each result independent of what else
    shares its micro-batch.
    """

    airfoil: Union[str, Airfoil]
    alpha_degrees: float = 0.0
    reynolds: Optional[float] = 1e6
    n_panels: int = 200
    precision: Precision = Precision.DOUBLE
    use_head: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.airfoil, str):
            if not self.airfoil.strip():
                raise ServeError("airfoil designation must be a non-empty string")
        elif not isinstance(self.airfoil, Airfoil):
            raise ServeError(
                f"airfoil must be a designation string or Airfoil, "
                f"got {type(self.airfoil).__name__}"
            )
        alpha = float(self.alpha_degrees)
        if not math.isfinite(alpha):
            raise ServeError(f"alpha_degrees must be finite, got {self.alpha_degrees}")
        object.__setattr__(self, "alpha_degrees", alpha)
        if self.reynolds is not None:
            reynolds = float(self.reynolds)
            if not math.isfinite(reynolds) or reynolds <= 0.0:
                raise ServeError(
                    f"reynolds must be positive and finite (or null), got {self.reynolds}"
                )
            object.__setattr__(self, "reynolds", reynolds)
        n_panels = int(self.n_panels)
        if n_panels < 3:
            raise ServeError(f"n_panels must be at least 3, got {self.n_panels}")
        object.__setattr__(self, "n_panels", n_panels)
        try:
            object.__setattr__(self, "precision", Precision.parse(self.precision))
        except (ValueError, TypeError) as error:
            raise ServeError(str(error))
        object.__setattr__(self, "use_head", bool(self.use_head))

    @classmethod
    def from_dict(cls, payload) -> "AnalyzeRequest":
        """Parse a wire-format request, rejecting unknown fields.

        ``alpha`` is accepted as an alias for ``alpha_degrees``, a
        Reynolds number of 0 means "inviscid only" (like the CLI's
        ``--reynolds 0``), and ``n_panels`` must pass
        :func:`validate_n_panels`.
        """
        if not isinstance(payload, dict):
            raise ServeError(
                f"request payload must be a JSON object, got {type(payload).__name__}"
            )
        payload = dict(payload)
        if "alpha" in payload:
            if "alpha_degrees" in payload:
                raise ServeError("give either 'alpha' or 'alpha_degrees', not both")
            payload["alpha_degrees"] = payload.pop("alpha")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise ServeError(f"unknown request fields: {', '.join(unknown)}")
        if "airfoil" not in payload:
            raise ServeError("request is missing the 'airfoil' field")
        if not isinstance(payload["airfoil"], str):
            raise ServeError("'airfoil' must be a designation string")
        if payload.get("reynolds") in (0, 0.0):
            payload["reynolds"] = None
        if "n_panels" in payload:
            payload["n_panels"] = validate_n_panels(payload["n_panels"])
        try:
            return cls(**payload)
        except (TypeError, ValueError) as error:
            raise ServeError(f"invalid request payload: {error}")

    def to_dict(self) -> dict:
        """The wire-format rendering of this request."""
        if not isinstance(self.airfoil, str):
            raise ServeError(
                "only designation-string requests are JSON-serializable; "
                f"got an Airfoil object ({self.airfoil.name!r})"
            )
        return {
            "airfoil": self.airfoil,
            "alpha_degrees": self.alpha_degrees,
            "reynolds": self.reynolds,
            "n_panels": self.n_panels,
            "precision": self.precision.value,
            "use_head": self.use_head,
        }

    def build_airfoil(self) -> Airfoil:
        """The discretized geometry this request evaluates."""
        return _as_airfoil(self.airfoil, self.n_panels)

    def freestream(self) -> Freestream:
        """The onset flow this request evaluates under."""
        return Freestream.from_degrees(self.alpha_degrees)

    def cache_key(self) -> str:
        """Genome-keyed digest: hashed geometry + flow + solver config.

        Hashing the discretized outline (rather than the designation
        string) makes equivalent geometries share cache entries however
        they were spelled, and distinguishes panel counts for free.
        """
        foil = self.build_airfoil()
        digest = hashlib.sha256()
        digest.update(np.ascontiguousarray(foil.points, dtype=np.float64).tobytes())
        digest.update(repr((
            self.alpha_degrees,
            self.reynolds,
            self.precision.value,
            self.use_head,
        )).encode("ascii"))
        return digest.hexdigest()

    def run(self, *, kernel=None) -> "AirfoilAnalysis":
        """Evaluate this request (batched path, stack of one).

        ``kernel`` selects the assembly kernel for this evaluation
        (``None`` defers to ``REPRO_ASSEMBLY_KERNEL``).
        """
        result = evaluate_requests([self], kernel=kernel)[0]
        if isinstance(result, Exception):
            raise result
        return result


def _solve_group(systems: Sequence) -> List:
    """Solve one (size, dtype) group: a solution or error per system.

    A singular member fails the whole stacked solve, so a failed group
    is re-solved one system at a time: only the bad system keeps its
    error, and its batchmates get the bits they would get alone.
    """
    try:
        return solve_stack(np.stack([system.matrix for system in systems]),
                           np.stack([system.rhs for system in systems]),
                           systems)
    except ReproError as error:
        if len(systems) == 1:
            return [error]
        return [_solve_group([system])[0] for system in systems]


def solve_request_systems(requests: Sequence[AnalyzeRequest], *,
                          stage_hook=None, kernel=None) -> List:
    """Assemble and solve many requests (the backend work unit).

    This is the one code path from requests to :class:`PanelSolution`
    objects: :func:`analyze`, :meth:`AnalyzeRequest.run`, serving, and
    both of :class:`~repro.optimize.fitness.FitnessEvaluator`'s scorers
    reach it.  Requests are grouped by system size and dtype; each
    group is assembled into one ``(batch, m, m)`` stack and solved with
    :func:`repro.panel.solver.solve_stack` (LAPACK ``gesv`` through
    numpy, the same kind of vendor LU the paper's CPU solve used).
    This function is the contract an
    :class:`repro.parallel.ExecutionBackend` implements: the inline
    backend calls it directly, and the process backend runs it inside
    worker processes, shard by shard.  LAPACK solves each matrix of the
    stack on its own, which is why shard-wise solving produces
    bit-identical numbers.

    ``stage_hook`` receives ``(stage, start, end, count)`` stamps:
    ``"assembly"`` once for the whole assemble loop and ``"solve"`` per
    group.  ``kernel`` selects the influence-matrix implementation
    (``reference`` / ``fused`` / ``native``; ``None`` defers to
    ``REPRO_ASSEMBLY_KERNEL`` — see ``docs/kernels.md``).

    Returns one entry per request, in order: a :class:`PanelSolution`
    (circulation widened to ``float64``, exactly) on success, or the
    :class:`ReproError` that request raised.  A singular system fails
    only its own request, never its batchmates.
    """
    requests = list(requests)
    results: List = [None] * len(requests)
    groups: dict = {}
    assembly_started = time.monotonic()
    for index, request in enumerate(requests):
        try:
            system = assemble(request.build_airfoil(), request.freestream(),
                              dtype=request.precision.dtype, kernel=kernel)
        except ReproError as error:
            results[index] = error
            continue
        key = (system.n_unknowns, system.matrix.dtype)
        groups.setdefault(key, []).append((index, system))
    if stage_hook is not None:
        stage_hook("assembly", assembly_started, time.monotonic(),
                   len(requests))
    for members in groups.values():
        solve_started = time.monotonic()
        solved = _solve_group([system for _, system in members])
        if stage_hook is not None:
            stage_hook("solve", solve_started, time.monotonic(), len(members))
        for (index, _), entry in zip(members, solved):
            results[index] = entry
    return results


def evaluate_requests(requests: Sequence[AnalyzeRequest], *,
                      stage_hook=None, backend=None, kernel=None) -> List:
    """Evaluate many requests through the batched assembly/solve path.

    The assembly + batched solve runs on an execution backend (see
    :mod:`repro.parallel`): ``backend=None`` uses the process-wide
    default — inline unless ``REPRO_EXEC_BACKEND=process`` — and an
    :class:`~repro.parallel.ExecutionBackend` instance is used as
    given.  Responses are byte-identical across backends: each matrix
    of a stack is solved on its own, so sharding a batch over
    worker processes changes where the arithmetic happens, never its
    result.  The viscous pass and response shaping always run in the
    calling thread.

    ``stage_hook``, when given, is called as ``stage_hook(stage, start,
    end, count)`` with monotonic stamps around each internal stage —
    ``"assembly"`` and ``"solve"`` from the backend (plus per-shard
    ``"assembly_shard"`` / ``"solve_shard"`` spans under the process
    backend), ``"postprocess"`` once for the viscous loop — so
    the serving tracer and ``analyze --trace`` can report the paper's
    W/A/L/O decomposition for live work without this module knowing
    anything about spans.

    Returns one entry per request, in order: an
    :class:`AirfoilAnalysis` on success, or the :class:`ReproError`
    that request raised (so one bad geometry cannot poison its
    batchmates).
    """
    from repro.parallel import resolve_backend

    requests = list(requests)
    solved = resolve_backend(backend).solve(requests, stage_hook=stage_hook,
                                            kernel=kernel)
    results: List = [None] * len(requests)
    post_started = time.monotonic()
    for index, (request, entry) in enumerate(zip(requests, solved)):
        if isinstance(entry, BaseException):
            results[index] = entry
            continue
        try:
            viscous = None
            if request.reynolds is not None:
                viscous = analyze_viscous(entry, request.reynolds,
                                          use_head=request.use_head)
            results[index] = AirfoilAnalysis(solution=entry, viscous=viscous)
        except ReproError as error:
            results[index] = error
    if stage_hook is not None:
        stage_hook("postprocess", post_started, time.monotonic(),
                   len(requests))
    return results


def serialize_analysis(request: AnalyzeRequest, analysis: AirfoilAnalysis) -> dict:
    """The wire-format response record for one evaluated request."""
    solution = analysis.solution
    return {
        "airfoil": solution.airfoil.name,
        "alpha_degrees": float(request.alpha_degrees),
        "n_panels": int(solution.airfoil.n_panels),
        "precision": request.precision.value,
        "reynolds": None if request.reynolds is None else float(request.reynolds),
        "use_head": bool(request.use_head),
        "cl": float(analysis.cl),
        "cm": float(analysis.cm),
        "cd": None if analysis.cd is None else float(analysis.cd),
        "lift_to_drag": (None if analysis.lift_to_drag is None
                         else float(analysis.lift_to_drag)),
        "separated": (None if analysis.viscous is None
                      else bool(analysis.viscous.separated)),
    }


def canonical_json(payload) -> str:
    """Canonical JSON rendering: sorted keys, compact separators.

    Every producer of wire-format records (the CLI's ``--json`` and the
    serve HTTP responses) goes through this one function, which is what
    makes equal payloads byte-identical.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
