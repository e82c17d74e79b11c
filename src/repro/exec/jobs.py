"""The unit of schedulable work: one fully-specified simulation.

A :class:`SimulationJob` pins down everything that determines a
simulation's outcome — workload profile, window sizing, seed, and machine
configuration — and derives the canonical cache key that addresses both
of the engine's result tiers (the in-process memo and the persistent
store). Jobs are frozen dataclasses, so they are hashable, comparable,
and picklable (the scheduler ships them to worker processes as-is).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Union

from repro.cpu import kernel as kernel_mod
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import SimulationResult, Simulator
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.workloads import WorkloadProfile
from repro.exec.hashing import simulation_key

if TYPE_CHECKING:  # typing only: exec must stay import-light under cpu
    from repro.scenarios.phased import PhasedProfile

#: ``simulation_key`` once per distinct outcome. Experiments rebuild equal
#: jobs as new objects, so this matches on the outcome fields' equality.
_outcome_key = functools.lru_cache(maxsize=1024)(simulation_key)


@dataclass(frozen=True)
class SimulationJob:
    """One (profile, window, seed, machine) simulation request.

    ``profile`` is any frozen trace-producing workload: a registered or
    sampled :class:`~repro.cpu.workloads.WorkloadProfile` (including
    :class:`~repro.scenarios.space.ScenarioWorkload`) or a
    :class:`~repro.scenarios.phased.PhasedProfile` composite. All of
    them canonicalize — class tag plus every field — so distinct
    workload kinds can never collide in either cache layer.
    """

    profile: Union[WorkloadProfile, "PhasedProfile"]
    num_instructions: int
    warmup_instructions: int = 0
    seed: int = 1
    config: MachineConfig = field(default_factory=MachineConfig)
    #: Closed-loop sleep runtime; None requests a sleep-oblivious run.
    sleep: Optional[SleepRuntimeSpec] = None
    #: Ordered per-unit interval lists are the dominant memory cost on
    #: long runs; jobs that only need histograms should leave this off.
    record_sequences: bool = True
    #: Simulation engine: "walk" (per-instruction reference), "batch"
    #: (array-batched C kernel), or None for the process-wide
    #: ``--kernel`` default (stamped in when the engine ships the job to
    #: a worker). Deliberately EXCLUDED from :meth:`cache_key`: the
    #: kernel-equivalence gate proves the engines produce identical
    #: results, so they must share cache entries.
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_instructions < 1:
            raise ValueError(
                f"num_instructions must be >= 1, got {self.num_instructions}"
            )
        if self.warmup_instructions < 0:
            raise ValueError(
                f"warmup_instructions must be >= 0, got {self.warmup_instructions}"
            )

    @classmethod
    def from_scale(
        cls,
        profile: Union[WorkloadProfile, "PhasedProfile"],
        scale,
        config: MachineConfig,
        sleep: Optional[SleepRuntimeSpec] = None,
        record_sequences: bool = True,
    ) -> "SimulationJob":
        """Build a job from an :class:`~repro.experiments.common.ExperimentScale`."""
        return cls(
            profile=profile,
            num_instructions=scale.window_instructions,
            warmup_instructions=scale.warmup_instructions,
            seed=scale.seed,
            config=config,
            sleep=sleep,
            record_sequences=record_sequences,
        )

    def cache_key(self) -> str:
        """Canonical versioned key; identical jobs always collide here.

        Hashed once per distinct outcome in this process, however many
        equal jobs ask. ``kernel`` stays out on purpose: it selects an
        execution mechanism, not an outcome, so a batch-kernel job must
        hit the cache entry a walk wrote and vice versa.
        """
        return _outcome_key(
            self.profile,
            self.num_instructions,
            self.warmup_instructions,
            self.seed,
            self.config,
            self.sleep,
            self.record_sequences,
        )

    def with_stamped_defaults(self) -> "SimulationJob":
        """Materialize an explicit process-wide ``--kernel`` into the job.

        Worker processes — spawned pool workers and remote SSH workers
        alike — do not share this process's
        :func:`repro.cpu.kernel.set_default_kernel` state, so the choice
        must travel inside the job. The automatic default stays
        unstamped (``None``): each worker chooses its own kernel (batch
        when it builds there, else the walk). ``kernel`` is not part of
        the cache key, so the stamped copy addresses the same cache
        entries as the original.
        """
        kernel = self.kernel or kernel_mod.get_default_kernel()
        return self if kernel == self.kernel else replace(self, kernel=kernel)

    def run(self) -> SimulationResult:
        """Execute the simulation directly, bypassing every cache layer."""
        return Simulator(
            self.profile,
            config=self.config,
            seed=self.seed,
            sleep=self.sleep,
            kernel=self.kernel,
        ).run(
            self.num_instructions,
            warmup_instructions=self.warmup_instructions,
            record_sequences=self.record_sequences,
        )
