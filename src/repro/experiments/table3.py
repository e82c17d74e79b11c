"""Table 3: benchmarks, IPC, and functional-unit selection.

Reproduces the paper's methodology: for each benchmark, simulate with
1-4 integer FUs; the *max IPC* is the 4-FU result, and the chosen FU
count is the smallest reaching at least 95% of it. The rendered table
reports measured values next to the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.cpu.config import MachineConfig
from repro.cpu.workloads import WorkloadProfile, benchmark_names, get_benchmark
from repro.exec.engine import run_jobs
from repro.exec.jobs import SimulationJob
from repro.experiments.common import DEFAULT_SCALE, ExperimentScale
from repro.util.tables import format_table

#: The paper's performance threshold for trimming FUs.
PEAK_FRACTION = 0.95
FU_RANGE = (1, 2, 3, 4)


@dataclass(frozen=True)
class BenchmarkSelection:
    """One benchmark's FU sweep and the resulting selection."""

    profile: WorkloadProfile
    ipc_by_fus: Dict[int, float]
    selected_fus: int

    @property
    def max_ipc(self) -> float:
        return self.ipc_by_fus[max(self.ipc_by_fus)]

    @property
    def selected_ipc(self) -> float:
        return self.ipc_by_fus[self.selected_fus]

    @property
    def matches_paper(self) -> bool:
        return self.selected_fus == self.profile.reference_fus


@dataclass(frozen=True)
class Table3Result:
    selections: List[BenchmarkSelection]

    @property
    def num_matching(self) -> int:
        return sum(1 for s in self.selections if s.matches_paper)


def select_fu_count(ipc_by_fus: Dict[int, float], threshold: float = PEAK_FRACTION) -> int:
    """The paper's rule: fewest FUs with >= threshold of the peak IPC."""
    peak = ipc_by_fus[max(ipc_by_fus)]
    for count in sorted(ipc_by_fus):
        if ipc_by_fus[count] >= threshold * peak:
            return count
    return max(ipc_by_fus)


def sweep_jobs(
    scale: ExperimentScale = DEFAULT_SCALE,
    benchmarks: Sequence[str] = (),
    fu_range: Sequence[int] = FU_RANGE,
) -> List[SimulationJob]:
    """The (benchmark x FU count) simulation batch behind :func:`run`."""
    names = list(benchmarks) if benchmarks else benchmark_names()
    base = MachineConfig()
    # Sequences off: Table 3 only needs IPC, and this keeps the batch
    # deduplicating against the histogram-only figure/sweep jobs.
    return [
        SimulationJob.from_scale(
            get_benchmark(name),
            scale,
            base.with_int_fus(count),
            record_sequences=False,
        )
        for name in names
        for count in fu_range
    ]


def run(
    scale: ExperimentScale = DEFAULT_SCALE,
    benchmarks: Sequence[str] = (),
    fu_range: Sequence[int] = FU_RANGE,
) -> Table3Result:
    """Sweep FU counts for every benchmark and apply the 95% rule.

    The full sweep — the largest batch in the repo, 4 FU counts per
    benchmark — is submitted to the execution engine at once, so it
    deduplicates against other experiments and parallelizes cleanly.
    """
    names = list(benchmarks) if benchmarks else benchmark_names()
    batch = sweep_jobs(scale=scale, benchmarks=names, fu_range=fu_range)
    results = run_jobs(batch)
    ipc_by_job = {
        (job.profile.name, job.config.num_int_fus): result.stats.ipc
        for job, result in zip(batch, results)
    }
    selections = []
    for name in names:
        profile = get_benchmark(name)
        ipc_by_fus = {count: ipc_by_job[(name, count)] for count in fu_range}
        selections.append(
            BenchmarkSelection(
                profile=profile,
                ipc_by_fus=ipc_by_fus,
                selected_fus=select_fu_count(ipc_by_fus),
            )
        )
    return Table3Result(selections=selections)


def render(result: Table3Result) -> str:
    headers = [
        "App", "Suite", "Window (paper)",
        "Max IPC", "IPC", "FUs",
        "Paper Max IPC", "Paper IPC", "Paper FUs",
    ]
    rows = []
    for s in result.selections:
        p = s.profile
        rows.append([
            p.name, p.suite, p.instruction_window,
            round(s.max_ipc, 3), round(s.selected_ipc, 3), s.selected_fus,
            p.reference_max_ipc, p.reference_ipc, p.reference_fus,
        ])
    table = format_table(
        headers, rows, title="Table 3: benchmarks, measured vs paper"
    )
    return (
        table
        + f"\nFU selection matches the paper on {result.num_matching}"
        + f"/{len(result.selections)} benchmarks"
    )
