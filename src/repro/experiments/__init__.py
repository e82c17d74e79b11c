"""Experiment harness: one module per table/figure of the paper.

Every module exposes ``run(...)`` returning a result dataclass and
``render(result)`` producing the text table/series the paper reports;
none is a command of its own. :data:`repro.experiments.runner.EXPERIMENTS`
is the one table of the paper's experiments that ``repro <name>``,
``repro list`` and ``repro all`` read, and the simulations run on the
backend the CLI configures (``--backend``; ``--jobs`` sizes a bare
``pool``).

| Module     | Reproduces                                            |
|------------|-------------------------------------------------------|
| table1     | Table 1 — OR8 gate characteristics                    |
| figure3    | Figure 3 — uncontrolled idle vs sleep mode            |
| figure4    | Figure 4a-d — break-even and policy-energy analysis   |
| figure5    | Figure 5c — GradualSleep transition energy            |
| figure7    | Figure 7 — idle-interval distribution                 |
| figure8    | Figure 8a/b — per-benchmark policy energies           |
| figure9    | Figure 9a/b — technology sweep and leakage fractions  |
| table3     | Table 3 — benchmark IPC and FU selection              |
| ablations  | design-choice studies DESIGN.md calls out             |
| sweep      | policy grids beyond the paper (technology x alpha)    |
| robustness | policy rankings across the sampled scenario space     |
"""

from repro.experiments.common import (
    DEFAULT_SCALE,
    QUICK_SCALE,
    BenchmarkEnergyData,
    ExperimentScale,
    collect_benchmark_data,
)

__all__ = [
    "BenchmarkEnergyData",
    "DEFAULT_SCALE",
    "ExperimentScale",
    "QUICK_SCALE",
    "collect_benchmark_data",
]
