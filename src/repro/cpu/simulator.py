"""Simulator façade: workload in, statistics out.

:class:`Simulator` streams a workload's trace into a pipeline kernel,
always simulating. :func:`simulate_workload` is the cached
convenience entry for one run: it submits a one-job batch to
:func:`repro.exec.engine.run_jobs`, which owns every result cache, so
e.g. Figure 7 and Figure 8 share the same simulations within one run,
as they do in the paper, and repeated invocations reuse the persistent
store. :mod:`repro.cpu` never imports :mod:`repro.exec` at import time:
the engine loads on the first :func:`simulate_workload` call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.cpu.config import MachineConfig
from repro.cpu.kernel import (
    KERNEL_BATCH,
    BatchPipeline,
    batch_kernel_unavailable_reason,
    count_run,
    resolve_kernel,
)
from repro.cpu.pipeline import Pipeline
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stats import SimulationStats
from repro.cpu.stream import TraceChunk
from repro.cpu.workloads import WorkloadProfile, iter_trace
from repro.obs import metrics

#: Registry counter of traces generated for simulations: one per run
#: that draws its own, one per trace a group of runs shares (see
#: :func:`repro.exec.worker.run_group_observed`). Pool and SSH workers
#: relay it with the rest of their metrics.
TRACES = "sim.traces"


@dataclass(frozen=True)
class SimulationResult:
    """A completed run: the workload, the machine, and what was measured."""

    workload_name: str
    num_instructions: int
    warmup_instructions: int
    seed: int
    config: MachineConfig
    stats: SimulationStats
    #: Closed-loop sleep runtime of the run; None for sleep-oblivious.
    sleep: Optional[SleepRuntimeSpec] = None
    #: Whether per-unit ordered interval sequences were recorded.
    record_sequences: bool = True

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class Simulator:
    """Streams traces through a pipeline kernel for one workload profile.

    ``kernel`` selects the simulation engine: ``"walk"`` is the
    per-instruction reference pipeline, ``"batch"`` the array-batched C
    kernel of :mod:`repro.cpu.kernel`, and ``None`` defers to the
    process default, which chooses the batch kernel whenever it builds
    (see :func:`repro.cpu.kernel.resolve_kernel`). The kernels are
    float-for-float identical (the kernel-equivalence CI gate), so the
    knob affects speed only, never results or cache keys. Both read the
    trace chunk by chunk, so neither ever holds it whole.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        config: Optional[MachineConfig] = None,
        seed: int = 1,
        sleep: Optional[SleepRuntimeSpec] = None,
        kernel: Optional[str] = None,
    ):
        self.profile = profile
        self.config = config if config is not None else MachineConfig()
        self.seed = seed
        self.sleep = sleep
        self.kernel = kernel

    def run(
        self,
        num_instructions: int,
        warmup_instructions: int = 0,
        record_sequences: bool = True,
        chunks: Optional[Iterable[TraceChunk]] = None,
    ) -> SimulationResult:
        """Stream the trace through the kernel to completion.

        The trace covers warmup plus the measured window; statistics are
        collected only after ``warmup_instructions`` commit. Generation
        is interleaved with simulation: the kernel pulls chunks on
        demand, so at most two are alive at once (for bounded *total*
        memory on long runs, also pass ``record_sequences=False`` —
        ordered per-unit interval lists grow with the run).

        ``chunks`` is the whole trace, already drawn from
        :func:`~repro.cpu.workloads.iter_trace` with this workload's
        seed and length, so several runs can share one generation;
        either kernel reads it as its chunk stream.
        """
        total = num_instructions + warmup_instructions
        kernel = resolve_kernel(self.kernel)
        engine = Pipeline
        if kernel == KERNEL_BATCH:
            reason = batch_kernel_unavailable_reason()
            if reason is not None:
                raise RuntimeError(
                    f"kernel 'batch' requested but unavailable: {reason}; "
                    f"use kernel='walk' (the reference path)"
                )
            engine = BatchPipeline
        drawn = chunks is None
        if drawn:
            chunks = iter_trace(self.profile, total, seed=self.seed)
        # Lazy generation does its work inside next(), which the timed
        # iterator charges to "generate"; the batch kernel times its C
        # cycle loop as "kernel" itself, and the walk's share is the
        # rest of its run.
        pipeline = engine(
            metrics.timed_iterator("generate", chunks),
            total,
            config=self.config,
            record_sequences=record_sequences,
            sleep_spec=self.sleep,
        )
        if kernel == KERNEL_BATCH:
            stats = pipeline.run(warmup_instructions=warmup_instructions)
        else:
            with metrics.scope() as nested:
                run_start = time.perf_counter()
                stats = pipeline.run(warmup_instructions=warmup_instructions)
                elapsed = time.perf_counter() - run_start
            generated = sum(metrics.stage_seconds(nested.snapshot()).values())
            metrics.registry().counter(metrics.STAGE_PREFIX + "kernel").add(
                max(0.0, elapsed - generated)
            )
        count_run(kernel)
        if drawn:
            metrics.registry().counter(TRACES).inc()
        return SimulationResult(
            workload_name=self.profile.name,
            num_instructions=num_instructions,
            warmup_instructions=warmup_instructions,
            seed=self.seed,
            config=self.config,
            stats=stats,
            sleep=self.sleep,
            record_sequences=record_sequences,
        )


def simulate_workload(
    profile: WorkloadProfile,
    num_instructions: int,
    config: Optional[MachineConfig] = None,
    seed: int = 1,
    warmup_instructions: int = 0,
    use_cache: bool = True,
    sleep: Optional[SleepRuntimeSpec] = None,
    record_sequences: bool = True,
    kernel: Optional[str] = None,
) -> SimulationResult:
    """Run (or reuse) a simulation of ``profile`` on ``config``.

    The cache key covers everything that determines the outcome: the
    profile, window, warmup, seed, the machine configuration, and — for
    closed-loop runs — the sleep runtime spec
    (:meth:`repro.exec.jobs.SimulationJob.cache_key`). ``kernel`` is
    deliberately *not* part of it: the batch kernel reproduces the walk
    float-for-float (the kernel-equivalence gate), so a result computed
    by the batch kernel satisfies a walk request and vice versa.
    ``use_cache=False`` bypasses both the memo and the persistent store.
    The job always runs in this process (the serial backend), never on
    a configured pool or SSH fleet.
    """
    # Imported here: the engine imports this module.
    from repro.exec.engine import run_jobs
    from repro.exec.jobs import SimulationJob

    job = SimulationJob(
        profile=profile,
        num_instructions=num_instructions,
        warmup_instructions=warmup_instructions,
        seed=seed,
        config=config if config is not None else MachineConfig(),
        sleep=sleep,
        record_sequences=record_sequences,
        kernel=kernel,
    )
    return run_jobs([job], use_cache=use_cache, backend="serial")[0]
