"""Bench: the columnar trace generator's throughput floor over the walk.

Trace generation used to be the batch path's cold-run bottleneck: the
per-instruction reference walk (:func:`repro.cpu.workloads._walk_trace`)
builds one ``TraceInstruction`` object per committed instruction, which
caps it well below the C pipeline kernel's consumption rate. The
compiled trace walker replays the same walk straight into typed arrays,
and this bench pins its advantage: at least ``MIN_SPEEDUP`` times the
object walk on a 1M-instruction trace, wired into CI as a floor.

The bench requires the C trace walker (same skip discipline as the
batch-kernel bench): without it ``iter_trace`` chunks the object walk
itself, so there is no speedup to measure. CI independently asserts the
walker built, so the skip can never silently stand in for a regression.

Digest identity between the two generators is the job of the dedicated
equivalence gate (``tests/test_columnar.py``); here we only assert the
chunks really are column-backed — a fast bench that fell back to object
chunks must fail, not win.
"""

import time

import pytest

from repro.cpu._trace_build import (
    trace_kernel_available,
    trace_kernel_unavailable_reason,
)
from repro.cpu.stream import DEFAULT_CHUNK_SIZE
from repro.cpu.workloads import _walk_trace, get_benchmark, iter_trace

#: Instructions in the timed trace — long enough that per-run constant
#: costs (walker build, block-table packing) are noise.
TRACE_LENGTH = 1_000_000

#: The CI floor: columnar generation must beat the object walk by at
#: least this. Measured ~20x with the C walker on a developer
#: container; 3x leaves wide headroom for slower runners while still
#: catching any fallback to object-rate generation.
MIN_SPEEDUP = 3.0


@pytest.mark.skipif(
    not trace_kernel_available(),
    reason=f"no trace kernel: {trace_kernel_unavailable_reason()}",
)
def test_bench_columnar_generation_speedup(bench_record):
    profile = get_benchmark("gcc")

    start = time.perf_counter()
    walked = 0
    for _ in _walk_trace(profile, TRACE_LENGTH, 11):
        walked += 1
    walk_seconds = time.perf_counter() - start
    assert walked == TRACE_LENGTH

    columnar_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        generated = 0
        for chunk in iter_trace(
            profile, TRACE_LENGTH, seed=11, chunk_size=DEFAULT_CHUNK_SIZE
        ):
            assert chunk.is_columnar, "generator fell back to object chunks"
            generated += len(chunk)
        columnar_seconds = min(
            columnar_seconds, time.perf_counter() - start
        )
        assert generated == TRACE_LENGTH

    speedup = walk_seconds / columnar_seconds
    ops_per_sec = TRACE_LENGTH / columnar_seconds
    bench_record(
        "trace_generation_columnar",
        ops_per_sec=ops_per_sec,
        speedup=speedup,
        trace_length=TRACE_LENGTH,
        floor=MIN_SPEEDUP,
    )
    print(
        f"\nwalk {walk_seconds:.2f}s, columnar {columnar_seconds:.2f}s "
        f"({speedup:.1f}x, {ops_per_sec / 1e6:.1f} M instr/s, "
        f"floor {MIN_SPEEDUP:.0f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar generation speedup {speedup:.1f}x fell below the "
        f"{MIN_SPEEDUP:.0f}x floor (walk {walk_seconds:.2f}s, "
        f"columnar {columnar_seconds:.2f}s)"
    )
