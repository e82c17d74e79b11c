"""The paper's experiment suite: one table of experiments, and ``repro all``.

:data:`EXPERIMENTS` lists the paper's tables and figures in the order
``repro all`` prints them; ``repro <name>``, ``repro list`` and the
CLI's experiment choices read the same table. Before rendering,
:func:`run_all` submits every simulation any experiment will need at
the requested scale (:func:`enumerate_jobs`) to the execution engine as
one deduplicated batch, so jobs that share a trace share its
generation, and the rendering pass then runs entirely against warm
caches. Stdout is byte-identical whatever the backend or its worker
count (progress and timing go to stderr).
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Tuple

from repro.exec.engine import BatchReport, run_jobs
from repro.exec.jobs import SimulationJob
from repro.experiments import ablations, figure3, figure4, figure5, figure7
from repro.experiments import figure8, figure9, sweep, table1, table3
from repro.experiments.common import DEFAULT_SCALE, ExperimentScale, benchmark_jobs

#: The paper's tables and figures as (name, title, renderer), in the
#: order ``repro all`` prints them. Each renderer looks its module's
#: ``run`` and ``render`` up when called, so a wrapper installed on those
#: module attributes (a profiler, a tracer) sees every call.
EXPERIMENTS: Tuple[Tuple[str, str, Callable[[ExperimentScale], str]], ...] = (
    ("table1", "Table 1", lambda scale: table1.render(table1.run())),
    ("figure3", "Figure 3", lambda scale: figure3.render(figure3.run())),
    ("figure4", "Figure 4", lambda scale: figure4.render(figure4.run())),
    ("figure5", "Figure 5", lambda scale: figure5.render(figure5.run())),
    ("table3", "Table 3", lambda scale: table3.render(table3.run(scale=scale))),
    ("figure7", "Figure 7", lambda scale: figure7.render(figure7.run(scale=scale))),
    ("figure8", "Figure 8", lambda scale: figure8.render(figure8.run(scale=scale))),
    ("figure9", "Figure 9", lambda scale: figure9.render(figure9.run(scale=scale))),
    ("ablations", "Ablations", lambda scale: ablations.render_all(scale=scale)),
)


def enumerate_jobs(scale: ExperimentScale) -> List[SimulationJob]:
    """Every simulation the full experiment suite needs at ``scale``.

    Overlapping batches (Figure 7's 12-cycle-L2 run equals the default
    configuration Figures 8/9 use) are submitted as-is; the engine
    deduplicates them by canonical key.
    """
    jobs: List[SimulationJob] = []
    # Table 3: the (benchmark x FU count) sweep.
    jobs.extend(table3.sweep_jobs(scale=scale))
    # Figures 8/9 and most ablations: the suite at reference FU counts.
    jobs.extend(benchmark_jobs(scale=scale))
    # The predictive-policy ablation replays ordered interval streams, so
    # it needs the reference suite with sequences recorded (a separate
    # cache entry from the histogram-only batch above).
    jobs.extend(benchmark_jobs(scale=scale, record_sequences=True))
    # Figure 7 and the L2-latency ablation: L2 hit-latency variants.
    latencies = set(figure7.L2_LATENCIES) | set(ablations.ABLATION_L2_LATENCIES)
    for latency in sorted(latencies):
        jobs.extend(benchmark_jobs(scale=scale, l2_latency=latency))
    # The FU-count ablation's always-4-FUs counterpoint.
    jobs.extend(
        benchmark_jobs(
            scale=scale, benchmarks=[ablations.FU_COUNT_BENCHMARK], fu_override=4
        )
    )
    # Policy-grid sweeps price the same reference-FU suite, so a prewarmed
    # cache serves ``repro sweep`` too (dedups to nothing extra today).
    jobs.extend(sweep.sweep_jobs(scale=scale))
    return jobs


def run_all(scale: ExperimentScale = DEFAULT_SCALE, stream=None) -> None:
    """Execute every experiment, printing each result as it completes.

    Results go to ``stream`` (stdout by default); progress and timing go
    to stderr so the rendered output is deterministic. Where the
    simulations run and whether results persist across runs follow the
    process-wide backend and store configuration (``--backend``,
    ``--jobs``, ``--no-cache``); the in-process memo always applies.
    """
    out = stream if stream is not None else sys.stdout
    # One batch for the whole suite: the engine then sees every job that
    # shares a trace at once, and the render pass below runs entirely
    # against warm caches.
    start = time.time()
    report = BatchReport()
    run_jobs(enumerate_jobs(scale), report=report)
    print(
        f"[repro] simulations: {report.unique} unique "
        f"({report.cache_hits} cached, {report.executed} run on "
        f"{report.workers_used} worker{'s' if report.workers_used != 1 else ''}) "
        f"in {time.time() - start:.1f}s",
        file=sys.stderr,
    )
    for _, title, render in EXPERIMENTS:
        started = time.time()
        text = render(scale)
        print(f"[repro] {title} rendered in {time.time() - started:.1f}s", file=sys.stderr)
        print(f"\n{'=' * 72}\n{title}\n{'=' * 72}", file=out)
        print(text, file=out)
