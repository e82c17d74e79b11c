"""Bench: the batch path's throughput floors over the walked reference.

The array-batched C kernel exists for exactly one reason: speed. Two
floors are wired into CI here:

* ``test_bench_batch_kernel_speedup`` times both engines on the same
  materialized 1M-instruction trace — the kernel's advantage with
  generation factored out.
* ``test_bench_cold_batch_end_to_end`` times the full cold path —
  trace generation *and* simulation — the way ``--kernel batch`` runs
  it: the columnar generator streams column-backed chunks straight into
  the kernel, zero-copy.

Equality of the results is asserted too (cheaply, on top of the
dedicated equivalence gates): a fast wrong kernel must never pass its
own bench.

Timing notes: the walk is timed once (it dominates the bench's budget);
the batch paths take the best of three runs, since they are fast enough
for scheduling noise to matter. The walk is entirely Python-bound. The
batch path is *kernel-bound*: production chunks arrive column-backed,
so there is no per-instruction decode anywhere on the cold path — the
kernel-speedup bench below re-chunks a materialized object trace and so
still pays one attribute-projection pass per chunk, which is the legacy
worst case, not the production regime. Both ratios compare Python
against compiled C on the same machine, so they are stable across
machine speeds.
"""

import time

import pytest

from repro.cpu.kernel import (
    BatchPipeline,
    batch_kernel_available,
    batch_kernel_unavailable_reason,
)
from repro.cpu.pipeline import Pipeline
from repro.cpu.stream import chunk_instructions
from repro.cpu.workloads import generate_trace, get_benchmark, iter_trace

#: Instructions in the timed trace — long enough that per-run constant
#: costs (kernel load, allocation) are noise.
TRACE_LENGTH = 1_000_000

#: Instructions per delivered chunk (the simulator's streaming default
#: regime; the ratio is flat across reasonable chunk sizes).
CHUNK_SIZE = 65_536

#: The CI throughput floor: batch must beat the walk by at least this.
#: Measured ~16x on a developer container (object-backed chunks, so the
#: batch side pays the projection pass); 10x leaves headroom for slower
#: runners without tolerating a real regression.
MIN_SPEEDUP = 10.0

#: The cold end-to-end floor: columnar generation + batch kernel vs
#: object generation + walked pipeline. Measured ~31x on a developer
#: container (the C trace walker generates ~20x faster and the kernel
#: consumes its chunks zero-copy); 12x is deliberately above the
#: kernel-only floor — losing the columnar generation win would drop
#: the cold path below it even with the kernel speedup intact.
MIN_COLD_SPEEDUP = 12.0


@pytest.mark.skipif(
    not batch_kernel_available(),
    reason=f"no batch kernel: {batch_kernel_unavailable_reason()}",
)
def test_bench_batch_kernel_speedup(bench_record):
    trace = list(generate_trace(get_benchmark("gcc"), TRACE_LENGTH, seed=11))

    start = time.perf_counter()
    walk_stats = Pipeline(chunk_instructions(trace, CHUNK_SIZE), TRACE_LENGTH).run()
    walk_seconds = time.perf_counter() - start

    batch_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        batch_stats = BatchPipeline(
            chunk_instructions(trace, CHUNK_SIZE), TRACE_LENGTH
        ).run()
        batch_seconds = min(batch_seconds, time.perf_counter() - start)

    assert batch_stats == walk_stats
    speedup = walk_seconds / batch_seconds
    bench_record(
        "batch_kernel",
        ops_per_sec=TRACE_LENGTH / batch_seconds,
        speedup=speedup,
        trace_length=TRACE_LENGTH,
        floor=MIN_SPEEDUP,
    )
    print(
        f"\nwalk {walk_seconds:.2f}s, batch {batch_seconds:.2f}s "
        f"({speedup:.1f}x, floor {MIN_SPEEDUP:.0f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batch kernel speedup {speedup:.1f}x fell below the "
        f"{MIN_SPEEDUP:.0f}x floor (walk {walk_seconds:.2f}s, "
        f"batch {batch_seconds:.2f}s)"
    )


@pytest.mark.skipif(
    not batch_kernel_available(),
    reason=f"no batch kernel: {batch_kernel_unavailable_reason()}",
)
def test_bench_cold_batch_end_to_end(bench_record):
    profile = get_benchmark("gcc")

    start = time.perf_counter()
    trace = generate_trace(profile, TRACE_LENGTH, seed=11)
    walk_stats = Pipeline(chunk_instructions(trace, CHUNK_SIZE), TRACE_LENGTH).run()
    walk_seconds = time.perf_counter() - start
    del trace

    cold_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        cold_stats = BatchPipeline(
            iter_trace(profile, TRACE_LENGTH, seed=11, chunk_size=CHUNK_SIZE),
            TRACE_LENGTH,
        ).run()
        cold_seconds = min(cold_seconds, time.perf_counter() - start)

    assert cold_stats == walk_stats
    speedup = walk_seconds / cold_seconds
    bench_record(
        "cold_batch_end_to_end",
        ops_per_sec=TRACE_LENGTH / cold_seconds,
        speedup=speedup,
        trace_length=TRACE_LENGTH,
        floor=MIN_COLD_SPEEDUP,
    )
    print(
        f"\ncold walk {walk_seconds:.2f}s, cold batch {cold_seconds:.2f}s "
        f"({speedup:.1f}x, floor {MIN_COLD_SPEEDUP:.0f}x)"
    )
    assert speedup >= MIN_COLD_SPEEDUP, (
        f"cold end-to-end speedup {speedup:.1f}x fell below the "
        f"{MIN_COLD_SPEEDUP:.0f}x floor (walk {walk_seconds:.2f}s, "
        f"batch {cold_seconds:.2f}s)"
    )
