"""Simulator façade: workload in, statistics out.

:class:`Simulator` generates a workload's trace and runs it through the
pipeline, always simulating. :func:`simulate_workload` is the cached
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
from typing import Optional, Sequence

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
from repro.cpu.stream import (
    StreamingTrace,
    TraceChunk,
    resolve_chunk_size,
    resolve_streaming,
)
from repro.cpu.workloads import WorkloadProfile, generate_trace, iter_trace
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
    """Builds traces and runs the pipeline for one workload profile.

    ``streaming`` selects how the walk receives its trace: ``True``
    streams it chunk by chunk through a bounded-memory
    :class:`~repro.cpu.stream.StreamingTrace`, ``False`` materializes
    the full list, and ``None`` (default) streams at or above
    :data:`~repro.cpu.stream.STREAMING_THRESHOLD` total instructions.
    The two modes are float-for-float identical (enforced by the
    streaming-equivalence CI gate), so the choice affects peak memory
    only — results, statistics, and cache keys are untouched. Only
    direct callers force it: the equivalence gate and the peak-RSS
    bench. ``chunk_size`` sets the instructions per streamed chunk
    (default :data:`~repro.cpu.stream.DEFAULT_CHUNK_SIZE`).

    ``kernel`` selects the simulation engine: ``"walk"`` is the
    per-instruction reference pipeline, ``"batch"`` the array-batched C
    kernel of :mod:`repro.cpu.kernel`, and ``None`` defers to the
    process default, which chooses the batch kernel whenever it builds
    (see :func:`repro.cpu.kernel.resolve_kernel`). The
    kernels are float-for-float identical (the kernel-equivalence CI
    gate), so — exactly like ``streaming`` — the knob affects speed
    only, never results or cache keys. The batch kernel always consumes
    the trace chunk by chunk, so it is bounded-memory regardless of the
    ``streaming`` setting, which only the walk reads.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        config: Optional[MachineConfig] = None,
        seed: int = 1,
        sleep: Optional[SleepRuntimeSpec] = None,
        streaming: Optional[bool] = None,
        chunk_size: Optional[int] = None,
        kernel: Optional[str] = None,
    ):
        self.profile = profile
        self.config = config if config is not None else MachineConfig()
        self.seed = seed
        self.sleep = sleep
        self.streaming = streaming
        self.chunk_size = chunk_size
        self.kernel = kernel

    def run(
        self,
        num_instructions: int,
        warmup_instructions: int = 0,
        record_sequences: bool = True,
        chunks: Optional[Sequence[TraceChunk]] = None,
    ) -> SimulationResult:
        """Generate the trace and simulate it to completion.

        The trace covers warmup plus the measured window; statistics are
        collected only after ``warmup_instructions`` commit. In
        streaming mode generation is interleaved with consumption: the
        pipeline pulls chunks on demand and at most a few chunks are
        resident at once (for bounded *total* memory on long runs, also
        pass ``record_sequences=False`` — ordered per-unit interval
        lists grow with the run).

        ``chunks`` is the whole trace, already drawn from
        :func:`~repro.cpu.workloads.iter_trace` with this workload's
        seed and length, so several runs can share one generation. The
        batch kernel reads it as its chunk stream; the walk flattens it
        into its materialized trace, whatever ``streaming`` says.
        """
        total = num_instructions + warmup_instructions
        kernel = resolve_kernel(self.kernel)
        if kernel == KERNEL_BATCH:
            reason = batch_kernel_unavailable_reason()
            if reason is not None:
                raise RuntimeError(
                    f"kernel 'batch' requested but unavailable: {reason}; "
                    f"use kernel='walk' (the reference path)"
                )
            stats = BatchPipeline(
                chunks if chunks is not None else self._iter_trace(total),
                total,
                config=self.config,
                record_sequences=record_sequences,
                sleep_spec=self.sleep,
            ).run(warmup_instructions=warmup_instructions)
        else:
            stats = self._run_walk(total, warmup_instructions, record_sequences, chunks)
        count_run(kernel)
        if chunks is None:
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

    def _iter_trace(self, total: int):
        return iter_trace(
            self.profile,
            total,
            seed=self.seed,
            chunk_size=resolve_chunk_size(self.chunk_size),
        )

    def _run_walk(
        self,
        total: int,
        warmup_instructions: int,
        record_sequences: bool,
        chunks: Optional[Sequence[TraceChunk]],
    ) -> SimulationStats:
        """The per-instruction reference walk, streamed or materialized."""
        if chunks is not None:
            with metrics.timed("generate"):
                trace = [instruction for chunk in chunks for instruction in chunk.instructions]
        elif resolve_streaming(self.streaming, total):
            # Generation happens lazily inside the pipeline's pulls; the
            # timed iterator attributes it, and the walk's own time is
            # the remainder (subtracted below).
            trace = StreamingTrace(
                metrics.timed_iterator("generate", self._iter_trace(total)), total
            )
        else:
            with metrics.timed("generate"):
                trace = generate_trace(self.profile, total, seed=self.seed)
        pipeline = Pipeline(
            trace,
            config=self.config,
            record_sequences=record_sequences,
            sleep_spec=self.sleep,
        )
        with metrics.scope() as nested:
            run_start = time.perf_counter()
            stats = pipeline.run(warmup_instructions=warmup_instructions)
            elapsed = time.perf_counter() - run_start
        generated = sum(metrics.stage_seconds(nested.snapshot()).values())
        metrics.registry().counter(metrics.STAGE_PREFIX + "kernel").add(
            max(0.0, elapsed - generated)
        )
        return stats


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
