"""The array-batched pipeline kernel: chunk-fed C engine, walk-exact.

This is the ``batch`` side of the ``--kernel walk|batch`` knob, and the
default whenever it builds. The
per-instruction walk in :mod:`repro.cpu.pipeline` stays the reference
implementation; this module replaces its hot loop with a compiled C
engine (built lazily by :mod:`repro.cpu._kernel_build`) that consumes
the trace as structure-of-arrays :class:`~repro.cpu.stream.TraceChunk`
blocks: the compiled trace walker emits column-backed chunks, so per
chunk the feed is zero-copy — the chunk's own typed arrays go straight
to the engine (which copies them into its ring), and the engine runs
the cycle loop — issue-slot assignment, fetch/mispredict/memory stall
attribution, FU busy/idle-interval updates, and closed-loop wakeup-stall
accounting — until it needs the next chunk. Object-backed chunks (the
reference walk's, where the walker cannot run) work too:
:meth:`TraceChunk.columns` projects them into arrays on first access,
which is the only per-instruction Python cost on that path.

Exactness contract
    The kernel reproduces the walk float-for-float: every integer
    statistic is computed with the same integer arithmetic inside the
    engine, and every float statistic (the closed-loop outcome tallies)
    is accumulated by the *same Python code in the same order* — the
    sorted-histogram pricing walk for stateless policies, the in-time-
    order interval-close callback for stateful ones. The equivalence
    gate in ``tests/test_kernel_equivalence.py`` asserts ``==`` on all
    nine benchmarks plus sampled scenarios, open- and closed-loop,
    across chunk sizes; that gate is what licenses the kernel knob's
    exclusion from memo and persistent cache keys.

Chunk-size invariance
    The engine pauses *between* cycles whenever the next fetch would
    read beyond the delivered window. Pausing is state-neutral (only
    the high-water mark of delivered instructions changes), so where
    the chunk boundaries fall can never affect results — asserted
    directly by the chunk-boundary edge-case tests.

All engine accumulators are 64-bit (``int64_t`` in C, Python ints out),
so 10M+-instruction traces whose cycle counts pass 2^31 stay exact; the
regression test at that boundary drives a trace past 2^31 cycles via a
large memory latency.

The CLIs' ``--kernel`` sets a process-wide default
(:func:`set_default_kernel`), which the execution engine stamps into
jobs shipped to workers; ``None`` means "use the process default, else
choose automatically": the batch kernel when it builds and loads, the
walk otherwise. The automatic choice is made on the first simulation,
so a run that simulates nothing never compiles or loads the kernel.
Every simulation counts itself per kernel in the metrics registry
(:func:`count_run`), which is where the ``-v`` kernel line and run
manifests read which kernel actually ran.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Iterable, List, Optional

import numpy as np

from repro.core.sleep_control import PolicyController, RuntimeTally, build_controllers
from repro.cpu._kernel_build import (
    CLOSE_CALLBACK,
    EXPORT_LEN,
    ST_DEADLOCK,
    ST_DONE,
    ST_NEED_DATA,
    THRESH_NEVER,
    batch_kernel_available,
    batch_kernel_unavailable_reason,
    kernel_library,
    pack_config,
)
from repro.cpu.config import MachineConfig
from repro.cpu.pipeline import DeadlockError
from repro.cpu.sleep import SleepRuntimeSpec, price_stateless_outcomes
from repro.cpu.stats import FunctionalUnitUsage, SimulationStats
from repro.cpu.stream import TraceChunk, checked_chunks
from repro.obs import metrics
from repro.util.intervals import IntervalHistogram

__all__ = [
    "KERNEL_WALK",
    "KERNEL_BATCH",
    "KERNELS",
    "RUNS_PREFIX",
    "BatchPipeline",
    "batch_kernel_available",
    "batch_kernel_unavailable_reason",
    "check_kernel",
    "count_run",
    "get_default_kernel",
    "resolve_kernel",
    "set_default_kernel",
    "telemetry_line",
]

#: The per-instruction reference implementation (repro.cpu.pipeline).
KERNEL_WALK = "walk"
#: The chunk-batched C engine in this module.
KERNEL_BATCH = "batch"
#: Every selectable kernel, in documentation order.
KERNELS = (KERNEL_WALK, KERNEL_BATCH)


def check_kernel(kernel: str) -> str:
    """Validate a kernel name, returning it for chaining."""
    if kernel not in KERNELS:
        known = ", ".join(KERNELS)
        raise ValueError(f"unknown kernel {kernel!r}; known: {known}")
    return kernel


# -- process-wide kernel default ------------------------------------------------

_default_kernel: Optional[str] = None


def set_default_kernel(kernel: Optional[str]) -> None:
    """Set the process-wide kernel used when callers pass None.

    ``None`` restores the built-in default: the automatic choice (batch
    when it builds and loads, else the walk). Set by the CLIs'
    ``--kernel`` flag; the execution engine stamps an explicit value
    into jobs it ships to worker processes, which do not share this
    state (under the automatic default each worker chooses for itself).
    """
    global _default_kernel
    if kernel is not None:
        check_kernel(kernel)
    _default_kernel = kernel


def get_default_kernel() -> Optional[str]:
    """The process-wide kernel override (None = choose automatically)."""
    return _default_kernel


def resolve_kernel(kernel: Optional[str]) -> str:
    """Decide which kernel a run should use: always ``walk`` or ``batch``.

    Explicit requests win; ``None`` consults the process default, then
    chooses automatically: the batch kernel when it builds and loads,
    the walk otherwise. The first automatic call compiles (or loads the
    cached build of) the kernel, and the outcome is cached for the life
    of the process. Because the two kernels are float-for-float
    identical (the equivalence gate), this choice affects speed only —
    never results, and never cache keys.
    """
    if kernel is not None:
        return check_kernel(kernel)
    if _default_kernel is not None:
        return _default_kernel
    return KERNEL_BATCH if batch_kernel_available() else KERNEL_WALK


# -- which kernel ran -----------------------------------------------------------

#: Registry counters of simulations per kernel: ``sim.kernel_batch`` and
#: ``sim.kernel_walk``. Pool and SSH workers relay theirs with the
#: generic metrics delta, so the coordinator's registry (and every run
#: manifest) counts the whole run.
RUNS_PREFIX = "sim.kernel_"


def count_run(kernel: str) -> None:
    """Record that one simulation ran on ``kernel`` (a resolved name)."""
    metrics.registry().counter(RUNS_PREFIX + kernel).inc()


def telemetry_line() -> Optional[str]:
    """The ``-v`` kernel line, or None when nothing was simulated.

    ``[repro] kernel: batch=N walk=M``. When the automatic choice ran
    the walk because the batch kernel is unavailable here, the line
    ends with the reason.
    """
    counters = metrics.registry().snapshot()["counters"]
    batch = int(counters.get(RUNS_PREFIX + KERNEL_BATCH, 0))
    walk = int(counters.get(RUNS_PREFIX + KERNEL_WALK, 0))
    if not batch and not walk:
        return None
    line = f"[repro] kernel: batch={batch} walk={walk}"
    if walk and _default_kernel is None:
        reason = batch_kernel_unavailable_reason()
        if reason is not None:
            line += f" (automatic choice fell back to the walk: {reason})"
    return line


# -- array.array -> ctypes pointer casts ----------------------------------------

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)


def _i64_ptr(column: array) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_I64)


def _u8_ptr(column: array) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_U8)


# -- the batched pipeline -------------------------------------------------------


class BatchPipeline:
    """One batched simulation instance; construct, then :meth:`run` once.

    The drop-in counterpart of :class:`repro.cpu.pipeline.Pipeline`,
    with the same constructor: ``chunks`` is any iterable of contiguous
    :class:`~repro.cpu.stream.TraceChunk` blocks starting at index 0
    and covering exactly ``total_instructions``, read through the same
    :func:`~repro.cpu.stream.checked_chunks`. Validation mirrors the
    walk (empty traces, chunk stream, warmup range, RAS sizing, single
    use) so both kernels reject the same inputs with the same messages.
    """

    def __init__(
        self,
        chunks: Iterable[TraceChunk],
        total_instructions: int,
        config: Optional[MachineConfig] = None,
        record_sequences: bool = True,
        sleep_spec: Optional[SleepRuntimeSpec] = None,
    ):
        self._chunks = checked_chunks(chunks, total_instructions)
        self.config = config if config is not None else MachineConfig()
        ras_entries = self.config.branch_predictor.ras_entries
        if ras_entries < 1:
            # The walk raises in ReturnAddressStack.__init__; same text.
            raise ValueError(f"RAS needs >= 1 entry, got {ras_entries}")
        self.total_instructions = total_instructions
        self.record_sequences = record_sequences
        self.sleep_spec = sleep_spec
        self._controllers: Optional[List[PolicyController]] = None
        self._tallies: Optional[List[RuntimeTally]] = None
        self._stateless = True
        if sleep_spec is not None:
            self._controllers = build_controllers(
                sleep_spec.policy,
                sleep_spec.technology(),
                sleep_spec.alpha,
                self.config.num_int_fus,
            )
            self._tallies = [
                RuntimeTally() for _ in range(self.config.num_int_fus)
            ]
            self._stateless = self._controllers[0].policy.stateless
        self._ran = False

    # -- closed-loop plumbing ------------------------------------------------

    def _threshold(self, unit: int) -> int:
        threshold = self._controllers[unit].policy.online_sleep_threshold()
        return THRESH_NEVER if threshold is None else threshold

    def _make_close_callback(self) -> CLOSE_CALLBACK:
        """The engine's interval-close hook for stateful policies.

        Called synchronously, in simulation-time order, once per closed
        idle interval — the exact accumulation order of the walked
        pool's ``_close_interval`` — and once per unit with length -1 at
        the warmup boundary (controller + tally reset). Returns the
        unit's new sleep threshold so the engine's acquire path tracks
        the evolving policy state.
        """
        controllers = self._controllers
        tallies = self._tallies

        def on_close(unit: int, length: int) -> int:
            if length < 0:
                controllers[unit].reset()
                tallies[unit] = RuntimeTally()
            else:
                tallies[unit].add_outcome(
                    length, controllers[unit].close_interval(length)
                )
            return self._threshold(unit)

        return CLOSE_CALLBACK(on_close)

    # -- main loop -----------------------------------------------------------

    def run(
        self,
        max_cycles: Optional[int] = None,
        warmup_instructions: int = 0,
    ) -> SimulationStats:
        """Feed every chunk through the engine and assemble statistics."""
        if self._ran:
            raise RuntimeError("pipeline instances are single-use")
        self._ran = True
        total = self.total_instructions
        if warmup_instructions < 0 or warmup_instructions >= total:
            raise ValueError(
                f"warmup must be in [0, {total}), got {warmup_instructions}"
            )
        if max_cycles is None:
            # Generous: even fully serialized memory-bound traces finish
            # within ~memory-latency cycles per instruction (the walk's
            # default, duplicated so both kernels deadlock identically).
            max_cycles = 400 * total + 10_000
        lib = kernel_library()

        cfg = array(
            "q", pack_config(self.config, total, warmup_instructions, max_cycles)
        )
        sim = lib.repro_create(_i64_ptr(cfg))
        if not sim:
            raise MemoryError("batch kernel allocation failed")
        try:
            return self._drive(lib, sim)
        finally:
            lib.repro_destroy(sim)

    def _drive(self, lib, sim) -> SimulationStats:
        spec = self.sleep_spec
        callback = CLOSE_CALLBACK()
        if spec is not None:
            if not self._stateless:
                callback = self._make_close_callback()
            thresholds = array(
                "q",
                [self._threshold(u) for u in range(self.config.num_int_fus)],
            )
            lib.repro_set_sleep(
                sim,
                spec.wakeup_latency,
                1 if self._controllers[0].wakeup_free else 0,
                0 if self._stateless else 1,
                _i64_ptr(thresholds),
                callback,
            )

        for chunk in self._chunks:
            op, pc, dep1, dep2, addr, taken, target = chunk.columns
            with metrics.timed("kernel"):
                status = lib.repro_feed(
                    sim,
                    _u8_ptr(op),
                    _i64_ptr(pc),
                    _i64_ptr(dep1),
                    _i64_ptr(dep2),
                    _i64_ptr(addr),
                    _u8_ptr(taken),
                    _i64_ptr(target),
                    len(chunk),
                )
            if status == ST_DEADLOCK:
                self._raise_deadlock(lib, sim)
            if status not in (ST_NEED_DATA, ST_DONE):
                raise RuntimeError(f"batch kernel failed (status {status})")
            if status == ST_DONE:
                break
        if lib.repro_finalize(sim) != ST_DONE:
            raise RuntimeError("batch kernel finalize failed")
        with metrics.timed("pricing"):
            return self._build_stats(lib, sim)

    def _raise_deadlock(self, lib, sim) -> None:
        out = (ctypes.c_int64 * EXPORT_LEN)()
        lib.repro_export(sim, out)
        raise DeadlockError(
            f"no forward progress by cycle {out[0]} "
            f"({out[2]}/{self.total_instructions} committed)"
        )

    # -- statistics assembly -------------------------------------------------

    def _unit_intervals(self, lib, sim, unit: int) -> np.ndarray:
        n = lib.repro_intervals_len(sim, unit)
        buffer = (ctypes.c_int64 * n)()
        if n:
            lib.repro_intervals_copy(sim, unit, buffer)
        return np.frombuffer(buffer, dtype=np.int64)

    def _build_stats(self, lib, sim) -> SimulationStats:
        out = (ctypes.c_int64 * EXPORT_LEN)()
        lib.repro_export(sim, out)
        usage = []
        for unit in range(self.config.num_int_fus):
            intervals = self._unit_intervals(lib, sim, unit)
            lengths, counts = np.unique(intervals, return_counts=True)
            histogram = IntervalHistogram(
                counts=dict(zip(lengths.tolist(), counts.tolist()))
            )
            busy = lib.repro_unit_stat(sim, unit, 0)
            tally = None
            if self.sleep_spec is not None:
                tally = self._tallies[unit]
                if self._stateless:
                    # Same pricing walk (and float order) as the walked
                    # pool's finalize: sorted histogram, fresh policy.
                    price_stateless_outcomes(
                        self._controllers[unit].policy, histogram, tally
                    )
                    tally.controlled_idle = histogram.total_idle_cycles
                tally.active = busy
                tally.waking = lib.repro_unit_stat(sim, unit, 2)
                tally.awake_wait = lib.repro_unit_stat(sim, unit, 3)
                tally.wake_events = lib.repro_unit_stat(sim, unit, 4)
            usage.append(
                FunctionalUnitUsage(
                    unit_id=unit,
                    busy_cycles=busy,
                    operations=lib.repro_unit_stat(sim, unit, 1),
                    idle_histogram=histogram,
                    idle_intervals=(
                        intervals.tolist() if self.record_sequences else []
                    ),
                    sleep_tally=tally,
                )
            )
        return SimulationStats(
            total_cycles=out[0] - out[1],
            committed_instructions=out[2] - out[3],
            fu_usage=usage,
            branch_lookups=out[6] - out[19],
            branch_mispredicts=out[7] + out[8] - out[20],
            fetch_stall_cycles=out[4],
            wakeup_stall_cycles=out[5],
            cache_accesses={
                "L1I": out[9] - out[21],
                "L1D": out[11] - out[23],
                "L2": out[13] - out[25],
                "ITLB": out[15] - out[27],
                "DTLB": out[17] - out[29],
            },
            cache_misses={
                "L1I": out[10] - out[22],
                "L1D": out[12] - out[24],
                "L2": out[14] - out[26],
                "ITLB": out[16] - out[28],
                "DTLB": out[18] - out[30],
            },
        )
