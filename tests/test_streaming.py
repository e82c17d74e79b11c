"""The streaming-equivalence gate (CI) plus streaming-machinery units.

The keystone contract of the streaming trace engine: a streamed run
reproduces a materialized run *float-for-float* (``==``, not approx) —
same idle histograms, same sleep-controller tallies, same stall counts —
for every seed benchmark and for sampled scenarios, open- and
closed-loop. This is what licenses streaming's absence from the
simulation cache keys: the two modes must be observationally identical,
so they may share cache entries.

The unit half covers the machinery itself: chunk contiguity, the
sliding window's eviction contract, bounded buffering, and the
mode-resolution rules.
"""

import dataclasses

import pytest

from repro.cpu import stream
from repro.cpu.kernel import KERNEL_WALK
from repro.cpu.pipeline import Pipeline
from repro.cpu.simulator import Simulator, cached_result, simulate_workload
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stream import (
    MIN_CHUNK_SIZE,
    RETAIN_CHUNKS,
    STREAMING_THRESHOLD,
    StreamingTrace,
    TraceChunk,
    chunk_instructions,
    resolve_chunk_size,
    resolve_streaming,
)
from repro.cpu.trace import trace_digest
from repro.cpu.workloads import benchmark_names, generate_trace, get_benchmark, iter_trace
from repro.exec.jobs import SimulationJob
from repro.obs import metrics
from repro.scenarios import sample_scenarios

#: Small enough to exercise many chunk boundaries in short test windows.
TINY_CHUNK = MIN_CHUNK_SIZE

#: Closed-loop runtime used by the equivalence matrix: a nonzero wakeup
#: latency so sleep decisions really feed back into timing.
CLOSED_LOOP = SleepRuntimeSpec(policy="MaxSleep", wakeup_latency=2)


@pytest.fixture(autouse=True)
def _reset_streaming_default():
    """Tests may set the process-wide mode; always restore auto."""
    yield
    stream.set_default_streaming(None)


def _run(profile, streaming, sleep=None, window=2_500, warmup=500):
    """One uncached walk simulation in the requested trace-delivery mode.

    Pinned to the walk: the batch kernel always consumes chunks and
    ignores ``streaming``, so on it this gate would compare batch with
    batch and test nothing.
    """
    return Simulator(
        profile,
        sleep=sleep,
        streaming=streaming,
        chunk_size=TINY_CHUNK if streaming else None,
        kernel=KERNEL_WALK,
    ).run(window, warmup_instructions=warmup)


# -- the equivalence gate ------------------------------------------------------


class TestStreamingEquivalence:
    """Streamed == materialized, float for float (the CI gate)."""

    @pytest.mark.parametrize("name", benchmark_names())
    def test_open_loop_benchmarks(self, name):
        materialized = _run(get_benchmark(name), streaming=False)
        streamed = _run(get_benchmark(name), streaming=True)
        # Dataclass equality covers every field: cycle and stall counts,
        # per-unit busy cycles, idle histograms (exact per-length
        # counts), and ordered interval sequences.
        assert streamed.stats == materialized.stats

    @pytest.mark.parametrize("name", benchmark_names())
    def test_closed_loop_benchmarks(self, name):
        materialized = _run(get_benchmark(name), streaming=False, sleep=CLOSED_LOOP)
        streamed = _run(get_benchmark(name), streaming=True, sleep=CLOSED_LOOP)
        assert streamed.stats == materialized.stats
        # The closed-loop extras, called out explicitly: wakeup stalls
        # and per-unit energy-state tallies.
        assert (
            streamed.stats.wakeup_stall_cycles
            == materialized.stats.wakeup_stall_cycles
        )
        for mine, theirs in zip(
            streamed.stats.fu_usage, materialized.stats.fu_usage
        ):
            assert mine.sleep_tally == theirs.sleep_tally
            assert mine.idle_histogram == theirs.idle_histogram

    @pytest.mark.parametrize(
        "scenario",
        sample_scenarios(4, seed=7, families=["memory_bound", "phased"]),
        ids=lambda s: s.scenario_id,
    )
    def test_sampled_scenarios_open_and_closed(self, scenario):
        for sleep in (None, CLOSED_LOOP):
            materialized = _run(
                scenario.profile, streaming=False, sleep=sleep, window=2_000
            )
            streamed = _run(
                scenario.profile, streaming=True, sleep=sleep, window=2_000
            )
            assert streamed.stats == materialized.stats

    def test_chunk_size_never_changes_results(self):
        profile = get_benchmark("vpr")
        reference = _run(profile, streaming=False)
        for chunk_size in (MIN_CHUNK_SIZE, 257, 1024):
            streamed = Simulator(
                profile, streaming=True, chunk_size=chunk_size, kernel=KERNEL_WALK
            ).run(2_500, warmup_instructions=500)
            assert streamed.stats == reference.stats

    def test_gate_runs_the_walk(self):
        with metrics.scope() as scoped:
            _run(get_benchmark("gzip"), streaming=True, window=600, warmup=100)
        ran = scoped.snapshot()["counters"]
        assert ran.get("sim.kernel_walk") == 1
        assert "sim.kernel_batch" not in ran


# -- trace-level invariants ----------------------------------------------------


class TestIterTrace:
    @pytest.mark.parametrize("name", ["gzip", "mcf", "gcc"])
    def test_chunks_flatten_to_generate_trace(self, name):
        profile = get_benchmark(name)
        reference = generate_trace(profile, 3_001, seed=5)
        chunks = list(iter_trace(profile, 3_001, seed=5, chunk_size=TINY_CHUNK))
        flat = [instr for chunk in chunks for instr in chunk.instructions]
        assert flat == reference
        assert [chunk.start for chunk in chunks] == list(
            range(0, 3_001, TINY_CHUNK)
        )
        assert chunks[-1].end == 3_001

    def test_phased_hook_streams_members(self):
        scenario = next(
            s
            for s in sample_scenarios(2, seed=7, families=["phased"])
            if s.family == "phased"
        )
        reference = scenario.profile.build_trace(4_000, seed=2)
        chunks = list(
            iter_trace(scenario.profile, 4_000, seed=2, chunk_size=MIN_CHUNK_SIZE)
        )
        assert trace_digest(
            instr for chunk in chunks for instr in chunk.instructions
        ) == trace_digest(reference)

    def test_rejects_bad_sizes(self):
        profile = get_benchmark("gzip")
        with pytest.raises(ValueError, match="num_instructions"):
            list(iter_trace(profile, 0))
        with pytest.raises(ValueError, match="chunk_size"):
            list(iter_trace(profile, 100, chunk_size=MIN_CHUNK_SIZE - 1))


class TestTraceChunk:
    def test_validates_shape(self):
        with pytest.raises(ValueError, match="empty"):
            TraceChunk(0, [])
        with pytest.raises(ValueError, match="start"):
            TraceChunk(-1, generate_trace(get_benchmark("gzip"), 1))

    def test_end_is_exclusive(self):
        chunk = TraceChunk(10, generate_trace(get_benchmark("gzip"), 5))
        assert len(chunk) == 5
        assert chunk.end == 15


class TestStreamingTrace:
    def _trace(self, length=1_000, chunk_size=100, retain=RETAIN_CHUNKS):
        profile = get_benchmark("gzip")
        return (
            generate_trace(profile, length, seed=9),
            StreamingTrace(
                chunk_instructions(
                    generate_trace(profile, length, seed=9), chunk_size
                ),
                length,
                retain_chunks=retain,
            ),
        )

    def test_sequential_iteration_matches_list(self):
        reference, streaming = self._trace()
        assert len(streaming) == len(reference)
        assert list(streaming) == reference

    def test_window_supports_bounded_backward_access(self):
        _, streaming = self._trace()
        assert streaming[250] == streaming[250]  # newest chunk revisit
        streaming[399]
        # One chunk behind the newest is the dispatch cursor's pattern.
        assert streaming[300] is not None

    def test_access_behind_window_raises(self):
        _, streaming = self._trace()
        streaming[999]  # stream to the end; early chunks evicted
        with pytest.raises(RuntimeError, match="evicted"):
            streaming[0]

    def test_buffering_is_bounded(self):
        _, streaming = self._trace(length=1_000, chunk_size=100)
        for index in range(1_000):
            streaming[index]
        assert streaming.chunks_loaded == 10
        assert streaming.peak_buffered <= RETAIN_CHUNKS * 100

    def test_negative_index_and_bounds(self):
        reference, streaming = self._trace(length=350, chunk_size=100)
        for index in range(350):
            streaming[index]
        assert streaming[-1] == reference[-1]
        with pytest.raises(IndexError):
            streaming[350]
        with pytest.raises(TypeError, match="slicing"):
            streaming[1:3]

    def test_short_stream_detected(self):
        profile = get_benchmark("gzip")
        streaming = StreamingTrace(
            chunk_instructions(generate_trace(profile, 100, seed=1), 100),
            length=200,
        )
        with pytest.raises(RuntimeError, match="ended"):
            streaming[150]

    def test_non_contiguous_chunks_detected(self):
        instrs = generate_trace(get_benchmark("gzip"), 100, seed=1)
        gapped = [TraceChunk(0, instrs[:50]), TraceChunk(60, instrs[50:])]
        streaming = StreamingTrace(iter(gapped), 100)
        with pytest.raises(ValueError, match="non-contiguous"):
            streaming[99]

    def test_overrun_chunks_detected(self):
        instrs = generate_trace(get_benchmark("gzip"), 100, seed=1)
        streaming = StreamingTrace(iter([TraceChunk(0, instrs)]), 50)
        with pytest.raises(ValueError, match="overruns"):
            streaming[40]

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="length"):
            StreamingTrace(iter(()), 0)
        with pytest.raises(ValueError, match="retain_chunks"):
            StreamingTrace(iter(()), 10, retain_chunks=1)

    def test_pipeline_runs_from_streaming_trace(self):
        """Direct Pipeline use (not via Simulator) works unchanged."""
        profile = get_benchmark("mst")
        reference = Pipeline(generate_trace(profile, 2_000, seed=4)).run()
        streaming_trace = StreamingTrace(
            iter_trace(profile, 2_000, seed=4, chunk_size=TINY_CHUNK), 2_000
        )
        streamed = Pipeline(streaming_trace).run()
        assert streamed == reference
        assert streaming_trace.peak_buffered <= RETAIN_CHUNKS * TINY_CHUNK


# -- mode resolution and cache interaction -------------------------------------


class TestModeResolution:
    def test_explicit_beats_everything(self):
        stream.set_default_streaming(False)
        assert resolve_streaming(True, 10) is True
        assert resolve_streaming(False, 10**9) is False

    def test_process_default_beats_threshold(self):
        stream.set_default_streaming(True)
        assert resolve_streaming(None, 10) is True
        stream.set_default_streaming(False)
        assert resolve_streaming(None, 10**9) is False

    def test_auto_uses_threshold(self):
        stream.set_default_streaming(None)
        assert resolve_streaming(None, STREAMING_THRESHOLD - 1) is False
        assert resolve_streaming(None, STREAMING_THRESHOLD) is True

    def test_chunk_size_resolution(self):
        assert resolve_chunk_size(None) == stream.get_default_chunk_size()
        assert resolve_chunk_size(4_096) == 4_096
        with pytest.raises(ValueError, match="chunk_size"):
            resolve_chunk_size(1)
        with pytest.raises(ValueError, match="chunk_size"):
            stream.set_default_streaming(True, chunk_size=1)

    def test_engine_stamps_default_into_jobs(self):
        job = SimulationJob(profile=get_benchmark("gzip"), num_instructions=1_000)
        assert job.with_stamped_defaults() is job  # auto resolves anywhere
        stream.set_default_streaming(True, chunk_size=8_192)
        stamped = job.with_stamped_defaults()
        assert stamped.streaming is True
        assert stamped.chunk_size == 8_192
        explicit = dataclasses.replace(job, streaming=False)
        assert explicit.with_stamped_defaults().streaming is False

    def test_engine_stamps_chunk_size_even_under_auto_mode(self):
        """A user --chunk-size must reach auto-streamed worker jobs."""
        job = SimulationJob(profile=get_benchmark("gzip"), num_instructions=1_000)
        stream.set_default_streaming(None, chunk_size=1_024)
        stamped = job.with_stamped_defaults()
        assert stamped.streaming is None  # mode stays auto
        assert stamped.chunk_size == 1_024

    def test_set_default_resets_and_validates_atomically(self):
        stream.set_default_streaming(True, chunk_size=8_192)
        stream.set_default_streaming(None)  # full reset, chunk size too
        assert stream.get_default_streaming() is None
        assert stream.get_default_chunk_size() == stream.DEFAULT_CHUNK_SIZE
        with pytest.raises(ValueError, match="chunk_size"):
            stream.set_default_streaming(True, chunk_size=1)
        # The failed call changed nothing.
        assert stream.get_default_streaming() is None
        assert stream.get_default_chunk_size() == stream.DEFAULT_CHUNK_SIZE


class TestCacheNeutrality:
    def test_streaming_is_not_part_of_the_cache_key(self):
        base = SimulationJob(profile=get_benchmark("gzip"), num_instructions=1_000)
        streamed = dataclasses.replace(
            base, streaming=True, chunk_size=MIN_CHUNK_SIZE
        )
        assert streamed.cache_key() == base.cache_key()

    def test_streamed_result_serves_materialized_lookups(self):
        """The memo is shared across modes — safe exactly because of the
        equivalence gate above."""
        profile = get_benchmark("health")
        streamed = simulate_workload(
            profile,
            1_500,
            seed=23,
            streaming=True,
            chunk_size=TINY_CHUNK,
        )
        hit = cached_result(profile, 1_500, seed=23)
        assert hit is streamed
