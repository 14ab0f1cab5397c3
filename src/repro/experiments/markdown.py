"""Generator for EXPERIMENTS.md: paper vs simulated, every table/figure.

``python -m repro report`` (or :func:`generate_experiments_markdown`)
runs the full evaluation and renders the paper-vs-measured record the
repository commits as ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from typing import List

from repro.experiments import hybrid_tables as ht
from repro.experiments.figure2 import run as run_figure2
from repro.experiments.headline import measured_values
from repro.experiments.paper_data import (
    BASELINES,
    HEADLINE_CLAIMS,
    TABLE3,
    TABLE3_OPTIMAL_SLICES,
    TABLE4,
    TABLE4_OPTIMAL_SLICES,
    TABLE5,
    TABLE5_OPTIMAL_DISTR,
)
from repro.hardware.calibration import PAPER_TABLE2, implied_efficiencies
from repro.hardware.kernels import KernelModel
from repro.hardware.specs import (
    DUAL_E5_2630_V3,
    E5_2630_V3,
    HALF_K80,
    TABLE1_DEVICES,
    XEON_PHI_7120,
)
from repro.precision import Precision

PRECISIONS = (Precision.SINGLE, Precision.DOUBLE)
SOCKETS = (1, 2)


def _deviation(simulated: float, paper: float) -> str:
    return f"{simulated / paper - 1.0:+.0%}"


def _table1_section(lines: List[str]) -> None:
    lines.append("## Table 1 — hardware characteristics\n")
    lines.append("Taken from the paper verbatim; these peaks parameterize the "
                 "device models (the link column is derived, see below).\n")
    lines.append("| device | TFlops dp | TFlops sp | mem GB/s | effective link GB/s |")
    lines.append("|---|---|---|---|---|")
    for spec in TABLE1_DEVICES:
        link = f"{spec.link.effective_bandwidth / 1e9:.2f}" if spec.link else "—"
        lines.append(f"| {spec.name} | {spec.peak_tflops_double:.1f} | "
                     f"{spec.peak_tflops_single:.1f} | "
                     f"{spec.memory_bandwidth_gbs:.0f} | {link} |")
    lines.append("")
    lines.append("The effective PCIe bandwidths (~1 GB/s) are back-solved from "
                 "the paper's own slice-1 overhead rows in Tables 3–4 "
                 "(`O(1 slice) - A = transfer time`); they are far below the "
                 "bus peak, consistent with unpinned host buffers.\n")


def _table2_section(lines: List[str]) -> None:
    lines.append("## Table 2 — per-device assembly and solve seconds\n")
    lines.append("Table 2 anchors the kernel calibration, so the simulated "
                 "values match by construction (the harness verifies the "
                 "round trip); the informative columns are the implied "
                 "efficiencies, which encode the paper's Section 3 story.\n")
    lines.append("| device | prec | assembly sim (paper) | solve sim (paper) "
                 "| eff(assembly) | eff(solve) |")
    lines.append("|---|---|---|---|---|---|")
    devices = (E5_2630_V3, DUAL_E5_2630_V3, XEON_PHI_7120, HALF_K80)
    efficiencies = implied_efficiencies()
    for precision in PRECISIONS:
        for spec in devices:
            model = KernelModel.for_device(spec, precision)
            anchor = PAPER_TABLE2[(spec.name, precision)]
            assembly = model.assembly(4000, 200).seconds
            solve = model.solve(4000, 200).seconds
            eff_a, eff_s = efficiencies[(spec.name, precision.short_name)]
            lines.append(
                f"| {spec.name} | {precision.short_name} "
                f"| {assembly:.2f} ({anchor.assembly_seconds:.2f}) "
                f"| {solve:.2f} ({anchor.solve_seconds:.2f}) "
                f"| {eff_a:.1%} | {eff_s:.1%} |"
            )
    lines.append("")
    lines.append("Shape checks (all enforced by `benchmarks/bench_table2.py`): "
                 "CPU assembly/solve ratio in the paper's 2.5–3.5 band; both "
                 "accelerators assemble faster and solve slower than the two "
                 "CPUs; the batched 200×200 LU achieves only a fraction of a "
                 "percent of peak on the accelerators versus ~2 % on the "
                 "CPU — the premise of the hybrid scheme.\n")


def _sweep_section(lines: List[str], title: str, accelerator: str,
                   paper_table, paper_optima, *, exposed: bool) -> None:
    lines.append(title + "\n")
    lines.append("| prec | CPUs | slices | W sim (paper) | dev | L sim (paper) "
                 "| O sim (paper) | speedup sim (paper) |")
    lines.append("|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for precision in PRECISIONS:
        for sockets in SOCKETS:
            metrics = ht.hybrid_sweep(accelerator, precision, sockets)
            for slices, metric in zip(ht.PAPER_SLICES, metrics):
                paper = paper_table[(precision, sockets)][slices]
                worst = max(worst, abs(metric.wall_time / paper.wall - 1.0))
                lines.append(
                    f"| {precision.short_name} | {sockets} | {slices} "
                    f"| {metric.wall_time:.2f} ({paper.wall:.2f}) "
                    f"| {_deviation(metric.wall_time, paper.wall)} "
                    f"| {metric.solve_busy:.2f} ({paper.solve:.2f}) "
                    f"| {metric.overhead:.2f} ({paper.overhead:.2f}) "
                    f"| {metric.speedup:.2f} ({paper.speedup:.2f}) |"
                )
            best = min(zip(ht.PAPER_SLICES, metrics),
                       key=lambda pair: pair[1].wall_time)[0]
            lines.append(
                f"| {precision.short_name} | {sockets} | *optimum* "
                f"| sim: {best} / paper bold: "
                f"{paper_optima[(precision, sockets)]} | | | | |"
            )
    lines.append("")
    lines.append(f"Worst wall-time deviation across all rows: {worst:.0%}.\n")


def _table5_section(lines: List[str]) -> None:
    lines.append("## Table 5 — both K80 GPUs (Section 6)\n")
    lines.append("| prec | CPUs | distr | W sim (paper) | dev | speedup sim (paper) |")
    lines.append("|---|---|---|---|---|---|")
    for precision in PRECISIONS:
        for sockets in SOCKETS:
            metrics = ht.dual_sweep(precision, sockets)
            for distr, metric in zip(ht.PAPER_DISTRIBUTIONS, metrics):
                paper = TABLE5[(precision, sockets)][distr]
                lines.append(
                    f"| {precision.short_name} | {sockets} | {distr:.2f} "
                    f"| {metric.wall_time:.2f} ({paper.wall:.2f}) "
                    f"| {_deviation(metric.wall_time, paper.wall)} "
                    f"| {metric.speedup:.2f} ({paper.speedup:.2f}) |"
                )
            best = min(zip(ht.PAPER_DISTRIBUTIONS, metrics),
                       key=lambda pair: pair[1].wall_time)[0]
            lines.append(
                f"| {precision.short_name} | {sockets} | *optimum* "
                f"| sim: {best:.2f} / paper bold: "
                f"{TABLE5_OPTIMAL_DISTR[(precision, sockets)]:.2f} | | |"
            )
    lines.append("")


def _baselines_section(lines: List[str]) -> None:
    lines.append("## CPU-only baselines (top rows of Tables 3–5)\n")
    lines.append("| prec | CPUs | W sim (paper) | A sim (paper) | L sim (paper) |")
    lines.append("|---|---|---|---|---|")
    for precision in PRECISIONS:
        for sockets in SOCKETS:
            metric = ht.baseline_metrics(precision, sockets)
            paper = BASELINES[(precision, sockets)]
            lines.append(
                f"| {precision.short_name} | {sockets} "
                f"| {metric.wall_time:.2f} ({paper.wall:.2f}) "
                f"| {metric.assembly_busy:.2f} ({paper.assembly:.2f}) "
                f"| {metric.solve_busy:.2f} ({paper.solve:.2f}) |"
            )
    lines.append("")


def _figures_section(lines: List[str]) -> None:
    lines.append("## Figures\n")
    lines.append(
        "* **Figure 1** (NACA 2412, n = 10): regenerated from the NACA "
        "generator; `python -m repro figure1` renders ASCII art and an SVG "
        "with the exact 200-panel outline overlaid.  Checked: unit chord, "
        "~12 % thickness, 10 control points straddling the chord line.\n"
        "* **Figure 2** (GA progress): a real (scaled-down by default) GA "
        "run; the regenerated figure shows the champions of each "
        "generation.  Checked: champion L/D is non-decreasing across "
        "generations and improves substantially end to end — the paper's "
        "\"successively better airfoils\".\n"
        "* **Figure 3** (GPU interleave): the simulated Gantt trace shows "
        "assembly and copy alternating on the GPU queue, hidden under the "
        "host solves; the residual gaps are the paper's red overhead.\n"
        "* **Figure 4** (Phi interleave): three resources (Phi, link, host) "
        "all overlap; the per-offload host-management slots visible on the "
        "cpu row are what keeps the Phi's O column from vanishing.\n"
    )
    figure2 = run_figure2(seed=2016)
    best = [row["best_fitness"] for row in figure2.rows]
    lines.append(f"Figure 2 regeneration (seed 2016): champion L/D per "
                 f"generation = {', '.join(f'{value:.0f}' for value in best)}.\n")


def _headline_section(lines: List[str]) -> None:
    lines.append("## Section 7 headline claims\n")
    lines.append("| claim | simulated | claimed band | verdict |")
    lines.append("|---|---|---|---|")
    values = measured_values()
    for key, claim in HEADLINE_CLAIMS.items():
        value = values[key]
        verdict = "PASS" if claim.holds(value) else "FAIL"
        lines.append(f"| {claim.description} | {value:.2f} "
                     f"| [{claim.low:.2f}, {claim.high:.2f}] | {verdict} |")
    lines.append("")


def generate_experiments_markdown() -> str:
    """Run everything and render the full EXPERIMENTS.md content."""
    lines: List[str] = [
        "# EXPERIMENTS — paper vs. simulated, every table and figure",
        "",
        "All numbers in *simulated seconds* on the calibrated device models",
        "(see DESIGN.md for the substitution rationale); `(...)` values are",
        "the paper's measurements.  Regenerate this file with",
        "`python -m repro report > EXPERIMENTS.md` or run individual",
        "experiments via `python -m repro table3` etc.  Every claim below is",
        "also enforced programmatically by `tests/test_reproduction_shapes.py`",
        "and the benchmark harness.",
        "",
        "**Calibration inputs:** Table 1 peaks, Table 2 kernel times, and the",
        "slice-1 overhead rows (effective PCIe bandwidth).  **Everything",
        "else** — the slice sweeps, W/A/L/O accounting, optima, and speedups",
        "of Tables 3–5 — is *predicted* by the discrete-event pipeline",
        "simulator.",
        "",
    ]
    _table1_section(lines)
    _table2_section(lines)
    _baselines_section(lines)
    _sweep_section(
        lines, "## Table 3 — GPU+CPU hybrid (slices swept)", "k80-half",
        TABLE3, TABLE3_OPTIMAL_SLICES, exposed=False,
    )
    _sweep_section(
        lines, "## Table 4 — Phi+CPU hybrid (slices swept)", "phi",
        TABLE4, TABLE4_OPTIMAL_SLICES, exposed=True,
    )
    lines.append("Table 4's `A` column in the paper reports the *exposed* "
                 "assembly (pipeline fill), which our simulator reproduces "
                 "for 5–20 slices; the paper's own 1-slice A values are "
                 "anomalous (smaller than its Table 2 totals) and are not "
                 "matched.\n")
    _table5_section(lines)
    _figures_section(lines)
    _headline_section(lines)
    lines.append(
        "## Beyond the paper (ablations and extensions)\n\n"
        "* `bench_ablation_interleave` — hiding on/off: the naive offload "
        "already wins, the interleave adds the rest (paper Section 4 prose).\n"
        "* `bench_ablation_stages` — the Phi *needs* the 3-stage scheme; the "
        "GPU gains nothing from it (Section 5 prose).\n"
        "* `bench_ablation_slices` — U-shaped slice sensitivity, optimum "
        "in the 5–32 band.\n"
        "* `bench_ablation_scaling` — speedup vs matrix dimension; the "
        "O(n^3) host solve erodes the advantage at n = 400.\n"
        "* `bench_ablation_precision` — sp ~1.9x faster everywhere; "
        "mixed-precision refinement recovers dp accuracy in <= 3 sweeps.\n"
        "* `bench_ablation_formulation` — Hess-Smith vs stream-function "
        "agreement at the 1 % level (2 % on cusped Joukowski edges).\n"
        "* `bench_ga_timing` — end-to-end GA speedup is below the flat-batch "
        "Table 3 value because of per-generation sync, recovering with "
        "population size.\n"
        "* `bench_heterogeneous` — Phi + GPU together: useless at the "
        "paper's solve-bound workload (the tuner sends ~100 % to the GPU), "
        "genuinely faster in chain-bound regimes.\n"
        "* `bench_roofline` — both kernels compute-bound; the n=200 LU sits "
        "near the ridge on the dual-socket host, bounding any possible MKL "
        "improvement.\n"
        "* `bench_energy` / `python -m repro energy` — TDP-priced energy to "
        "solution: the K80 wins time *and* energy, the Phi is faster but "
        "burns more joules than the CPUs (high idle draw).\n"
        "* `bench_sensitivity` — all conclusions survive halving/doubling "
        "every fitted parameter; the strict GPU>Phi ordering alone leans on "
        "the PCIe-bandwidth fit (a near-tie at half bandwidth).\n"
        "* `python -m repro convergence` — cl error vs panel count against "
        "the exact Joukowski solution: second order for the paper's "
        "formulation, so n = 200 carries ~0.05 % discretization error.\n"
        "* speedup bounds (`repro.pipeline.bounds`) — Amdahl-style limits: "
        "the tuned GPU run realizes > 85 % of its chain-aware bound; the "
        "Phi's bound is strictly below the paper's solve-time bound because "
        "its assembly chain exceeds the host solve.\n"
        "* closed-form pipeline theory (`repro.pipeline.theory`) — matches "
        "the event engine exactly for uniform slices and predicts the "
        "optimal slice count within +-2 of the exhaustive autotuner.\n"
        "* multi-element solver (`repro.panel.multielement`) — high-lift "
        "main+flap systems, cross-checked against far-field circulation "
        "and the single-element solver.\n"
    )
    return "\n".join(lines) + "\n"
