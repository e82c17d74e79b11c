"""Simulator façade: workload in, statistics out, with result caching.

The experiments drive many (workload, FU-count, L2-latency) combinations;
:func:`simulate_workload` looks results up through two cache layers before
simulating:

1. an in-process memo, so e.g. Figure 7 and Figure 8 share the same
   simulations within one run, as they do in the paper;
2. the persistent on-disk cache of :mod:`repro.exec.cache`, so repeated
   invocations (CLI runs, the bench suite, CI) stop re-simulating
   entirely. Persistent keys fold in a fingerprint of the simulator
   sources (:func:`repro.exec.hashing.model_fingerprint`), so entries
   written by an older model are never returned.

Batch submission across cores is handled by :mod:`repro.exec.engine`,
which shares these cache layers through :func:`cached_result` and
:func:`store_result`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

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
    resolve_chunk_size,
    resolve_streaming,
)
from repro.cpu.workloads import WorkloadProfile, generate_trace, iter_trace
from repro.exec import cache as result_cache
from repro.exec.hashing import simulation_key
from repro.util import stagetime


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

    ``streaming`` selects how the trace is delivered to the pipeline:
    ``True`` streams it chunk by chunk through a bounded-memory
    :class:`~repro.cpu.stream.StreamingTrace`, ``False`` materializes
    the full list, and ``None`` (default) decides automatically from
    the total trace length. The two modes are float-for-float identical
    (enforced by the streaming-equivalence CI gate), so the choice
    affects peak memory only — results, statistics, and cache keys are
    untouched.

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
    ) -> SimulationResult:
        """Generate the trace and simulate it to completion.

        The trace covers warmup plus the measured window; statistics are
        collected only after ``warmup_instructions`` commit. In
        streaming mode generation is interleaved with consumption: the
        pipeline pulls chunks on demand and at most a few chunks are
        resident at once (for bounded *total* memory on long runs, also
        pass ``record_sequences=False`` — ordered per-unit interval
        lists grow with the run).
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
                iter_trace(
                    self.profile,
                    total,
                    seed=self.seed,
                    chunk_size=resolve_chunk_size(self.chunk_size),
                ),
                total,
                config=self.config,
                record_sequences=record_sequences,
                sleep_spec=self.sleep,
            ).run(warmup_instructions=warmup_instructions)
        else:
            stats = self._run_walk(total, warmup_instructions, record_sequences)
        count_run(kernel)
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

    def _run_walk(
        self, total: int, warmup_instructions: int, record_sequences: bool
    ) -> SimulationStats:
        """The per-instruction reference walk, streamed or materialized."""
        if resolve_streaming(self.streaming, total):
            # Generation happens lazily inside the pipeline's pulls; the
            # timed iterator attributes it, and the walk's own time is
            # the remainder (subtracted below).
            trace = StreamingTrace(
                stagetime.timed_iterator(
                    "generate",
                    iter_trace(
                        self.profile,
                        total,
                        seed=self.seed,
                        chunk_size=resolve_chunk_size(self.chunk_size),
                    ),
                ),
                total,
            )
        else:
            with stagetime.timed("generate"):
                trace = generate_trace(self.profile, total, seed=self.seed)
        pipeline = Pipeline(
            trace,
            config=self.config,
            record_sequences=record_sequences,
            sleep_spec=self.sleep,
        )
        before_run = stagetime.snapshot()
        run_start = time.perf_counter()
        stats = pipeline.run(warmup_instructions=warmup_instructions)
        elapsed = time.perf_counter() - run_start
        nested = sum(stagetime.delta_since(before_run).values())
        stagetime.add("kernel", max(0.0, elapsed - nested))
        return stats


_MEMO: Dict[Tuple, SimulationResult] = {}


def _memo_key(
    profile: WorkloadProfile,
    num_instructions: int,
    warmup_instructions: int,
    seed: int,
    config: MachineConfig,
    sleep: Optional[SleepRuntimeSpec],
    record_sequences: bool,
) -> Tuple:
    # The full (frozen, hashable) profile, not just its name, so two
    # distinct custom profiles sharing a name cannot collide. The sleep
    # spec keeps closed-loop results apart from sleep-oblivious ones.
    return (
        profile,
        num_instructions,
        warmup_instructions,
        seed,
        config,
        sleep,
        record_sequences,
    )


def cached_result(
    profile: WorkloadProfile,
    num_instructions: int,
    config: Optional[MachineConfig] = None,
    seed: int = 1,
    warmup_instructions: int = 0,
    sleep: Optional[SleepRuntimeSpec] = None,
    record_sequences: bool = True,
) -> Optional[SimulationResult]:
    """Look a simulation up through both cache layers without running it.

    A persistent-cache hit is promoted into the in-process memo so later
    lookups in the same process skip the disk.
    """
    if config is None:
        config = MachineConfig()
    key = _memo_key(
        profile,
        num_instructions,
        warmup_instructions,
        seed,
        config,
        sleep,
        record_sequences,
    )
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    persistent = result_cache.active()
    if persistent is None:
        return None
    stored = persistent.get(
        simulation_key(
            profile,
            num_instructions,
            warmup_instructions,
            seed,
            config,
            sleep=sleep,
            record_sequences=record_sequences,
        )
    )
    if isinstance(stored, SimulationResult):
        _MEMO[key] = stored
        return stored
    return None


def store_result(
    profile: WorkloadProfile, result: SimulationResult, persist: bool = True
) -> None:
    """Record a completed simulation in the memo and the persistent cache."""
    key = _memo_key(
        profile,
        result.num_instructions,
        result.warmup_instructions,
        result.seed,
        result.config,
        result.sleep,
        result.record_sequences,
    )
    _MEMO[key] = result
    if not persist:
        return
    persistent = result_cache.active()
    if persistent is None:
        return
    try:
        persistent.put(
            simulation_key(
                profile,
                result.num_instructions,
                result.warmup_instructions,
                result.seed,
                result.config,
                sleep=result.sleep,
                record_sequences=result.record_sequences,
            ),
            result,
        )
    except OSError as error:
        # A misconfigured or read-only cache directory must not discard a
        # completed simulation: warn once and fall back to memo-only.
        import sys

        print(
            f"[repro] warning: cannot write result cache "
            f"({persistent.directory}): {error}; persistent caching disabled",
            file=sys.stderr,
        )
        result_cache.configure(enabled=False)


def simulate_workload(
    profile: WorkloadProfile,
    num_instructions: int,
    config: Optional[MachineConfig] = None,
    seed: int = 1,
    warmup_instructions: int = 0,
    use_cache: bool = True,
    sleep: Optional[SleepRuntimeSpec] = None,
    record_sequences: bool = True,
    streaming: Optional[bool] = None,
    chunk_size: Optional[int] = None,
    kernel: Optional[str] = None,
) -> SimulationResult:
    """Run (or reuse) a simulation of ``profile`` on ``config``.

    The cache key covers everything that determines the outcome: the
    profile, window, warmup, seed, the machine configuration, and — for
    closed-loop runs — the sleep runtime spec. ``streaming``,
    ``chunk_size``, and ``kernel`` are deliberately *not* part of either
    cache layer's key: each alternative path reproduces the reference
    float-for-float (the streaming- and kernel-equivalence gates), so
    the modes are interchangeable cache-wise — a result computed by the
    batch kernel satisfies a walk request and vice versa.
    ``use_cache=False`` bypasses both the memo and the persistent layer.
    """
    if config is None:
        config = MachineConfig()
    if use_cache:
        hit = cached_result(
            profile,
            num_instructions,
            config=config,
            seed=seed,
            warmup_instructions=warmup_instructions,
            sleep=sleep,
            record_sequences=record_sequences,
        )
        if hit is not None:
            return hit
    result = Simulator(
        profile,
        config=config,
        seed=seed,
        sleep=sleep,
        streaming=streaming,
        chunk_size=chunk_size,
        kernel=kernel,
    ).run(
        num_instructions,
        warmup_instructions=warmup_instructions,
        record_sequences=record_sequences,
    )
    if use_cache:
        store_result(profile, result)
    return result


def clear_simulation_cache() -> None:
    """Drop all memoized simulation results (mainly for tests).

    Only the in-process memo is cleared; use
    :meth:`repro.exec.cache.ResultCache.clear` for the persistent layer.
    """
    _MEMO.clear()
