"""Unit and integration tests for the out-of-order pipeline."""

import pytest

from repro.cpu.config import MachineConfig
from repro.cpu.isa import OpClass
from repro.cpu.pipeline import DeadlockError, Pipeline
from repro.cpu.stream import TraceChunk
from repro.cpu.trace import TraceInstruction
from repro.cpu.workloads import generate_trace, get_benchmark


def alu(pc, dep1=0, dep2=0):
    return TraceInstruction(OpClass.INT_ALU, pc, dep1=dep1, dep2=dep2)


def walk(trace, engine=Pipeline, **kwargs):
    """A pipeline over ``trace``, delivered as one chunk."""
    return engine([TraceChunk(0, trace)], len(trace), **kwargs)


def straightline(n):
    """Independent ALU ops whose PCs loop over four I-cache lines, so
    instruction fetch warms immediately and the back end is the limiter."""
    return [alu(0x1000 + 4 * (i % 64)) for i in range(n)]


class TestBasicExecution:
    def test_commits_everything(self):
        stats = walk(straightline(100)).run()
        assert stats.committed_instructions == 100

    def test_independent_alus_reach_high_ipc(self):
        """Independent single-cycle ops on a 4-wide machine: IPC
        approaches the width once compulsory I-cache misses are excluded
        by the warmup window."""
        stats = walk(straightline(2000)).run(warmup_instructions=400)
        assert stats.ipc > 3.0

    def test_serial_chain_is_one_ipc_at_best(self):
        trace = [alu(0x1000 + 4 * i, dep1=1 if i else 0) for i in range(200)]
        stats = walk(trace).run()
        assert stats.ipc <= 1.01

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            Pipeline(iter(()), 0)

    def test_single_use(self):
        pipeline = walk(straightline(10))
        pipeline.run()
        with pytest.raises(RuntimeError):
            pipeline.run()

    def test_cycle_counts_are_consistent(self):
        stats = walk(straightline(64)).run()
        stats.validate()  # busy + idle == total per FU


class TestFunctionalUnitContention:
    def test_single_fu_serializes(self):
        config = MachineConfig().with_int_fus(1)
        stats = walk(straightline(200), config=config).run()
        assert stats.ipc <= 1.01

    def test_more_fus_help_parallel_code(self):
        one = walk(
            straightline(2000), config=MachineConfig().with_int_fus(1)
        ).run(warmup_instructions=400)
        four = walk(
            straightline(2000), config=MachineConfig().with_int_fus(4)
        ).run(warmup_instructions=400)
        assert four.ipc > 2.5 * one.ipc

    def test_multiply_occupies_fu_three_cycles(self):
        trace = [
            TraceInstruction(OpClass.INT_MULT, 0x1000 + 4 * i)
            for i in range(90)
        ]
        config = MachineConfig().with_int_fus(1)
        stats = walk(trace, config=config).run()
        # 90 non-pipelined 3-cycle multiplies on one unit: >= 270 cycles.
        assert stats.total_cycles >= 270

    def test_round_robin_spreads_work(self):
        stats = walk(straightline(400)).run()
        ops = [u.operations for u in stats.fu_usage]
        assert min(ops) > 0.5 * max(ops)


class TestMemoryBehavior:
    def test_load_latency_stalls_dependents(self):
        # load; 50 dependent adds each depending on the load result chain.
        trace = [TraceInstruction(OpClass.LOAD, 0x1000, address=0x9000_0000)]
        trace += [alu(0x1004 + 4 * i, dep1=1) for i in range(50)]
        stats = walk(trace).run()
        # The cold load costs TLB(30) + L2(12) + memory(80); the chain
        # then serializes.
        assert stats.total_cycles > 120 + 50

    def test_store_to_load_forwarding(self):
        # store to X; load from X immediately after: the load waits for
        # the store, then forwards from it without a memory trip. The
        # control: the same shape with disjoint addresses pays the
        # load's full cold miss.
        forwarding = [
            TraceInstruction(OpClass.STORE, 0x1000, address=0x9000_0000),
            TraceInstruction(OpClass.LOAD, 0x1004, address=0x9000_0000, dep1=0),
        ] + [alu(0x1008, dep1=1)] * 2
        disjoint = [
            TraceInstruction(OpClass.STORE, 0x1000, address=0x9000_0000),
            TraceInstruction(OpClass.LOAD, 0x1004, address=0xA000_0000, dep1=0),
        ] + [alu(0x1008, dep1=1)] * 2
        forwarded = walk(forwarding).run()
        missed = walk(disjoint).run()
        # Both pay the same cold I-fetch; only the disjoint load pays a
        # cold data miss (DTLB 30 + L2 12 + memory 80).
        assert missed.total_cycles > forwarded.total_cycles + 80

    def test_independent_loads_overlap(self):
        """Non-blocking misses: independent cold loads must overlap."""
        serial = [TraceInstruction(OpClass.LOAD, 0x1000, address=0xA000_0000)]
        serial += [
            TraceInstruction(
                OpClass.LOAD, 0x1004 + 4 * i, address=0xA000_0000 + 0x100000 * (i + 1),
                dep1=1,
            )
            for i in range(6)
        ]
        parallel = [
            TraceInstruction(
                OpClass.LOAD, 0x1000 + 4 * i, address=0xB000_0000 + 0x100000 * i
            )
            for i in range(7)
        ]
        serial_stats = walk(serial).run()
        parallel_stats = walk(parallel).run()
        assert parallel_stats.total_cycles < 0.5 * serial_stats.total_cycles


class TestBranchBehavior:
    def test_mispredicts_cost_cycles(self):
        # One loop branch, identical PC stream in both variants (so the
        # I-cache behavior is identical); only the outcome pattern
        # differs: always-taken is learnable, a hash-parity sequence is
        # effectively random.
        def branchy(outcomes):
            trace = []
            for taken in outcomes:
                trace.append(alu(0x1000))
                trace.append(
                    TraceInstruction(
                        OpClass.BRANCH, 0x1004, taken=taken, target=0x1000
                    )
                )
            return trace

        random_ish = [bool(bin(i * 2654435761 % 2**32).count("1") & 1)
                      for i in range(300)]
        predictable = walk(branchy([True] * 300)).run()
        noisy = walk(branchy(random_ish)).run()
        assert noisy.total_cycles > predictable.total_cycles
        assert noisy.branch_mispredict_rate > predictable.branch_mispredict_rate


class _WalkingPipeline(Pipeline):
    """Event-skipping disabled: every stall cycle is walked one by one.

    Semantically identical to the skipping pipeline — the skip is purely
    an optimization — so every statistic must match the base class.
    """

    def _next_event_cycle(self):
        return self.cycle + 1


class TestFetchStallAccounting:
    """fetch_stall_cycles must not depend on event-skipping.

    Regression test: cycles skipped while waiting on a mispredicted
    branch (or a fetch redirect) used to be dropped from the stat, while
    the same cycles walked one-by-one were counted.
    """

    @pytest.mark.parametrize("name", ["mcf", "gcc", "health"])
    def test_invariant_to_event_skipping(self, name):
        trace = generate_trace(get_benchmark(name), 2500)
        config = MachineConfig().with_int_fus(2)
        skipping = walk(trace, config=config).run()
        walking = walk(trace, _WalkingPipeline, config=config).run()
        assert skipping.total_cycles == walking.total_cycles
        assert skipping.fetch_stall_cycles == walking.fetch_stall_cycles
        assert skipping.fetch_stall_cycles > 0

    def test_invariant_with_warmup(self):
        """The warmup-boundary reset must agree between the two paths."""
        trace = generate_trace(get_benchmark("mcf"), 3000)
        skipping = walk(trace).run(warmup_instructions=1500)
        walking = walk(trace, _WalkingPipeline).run(warmup_instructions=1500)
        assert skipping.fetch_stall_cycles == walking.fetch_stall_cycles
        assert skipping.total_cycles == walking.total_cycles

    def test_mispredict_wait_counted_as_fetch_stall(self):
        """A long-latency load feeding a mispredicted branch: the skip
        over the resolution wait must show up in fetch_stall_cycles."""
        trace = []
        # Pointer-chase loads at distinct addresses (cold misses), each
        # feeding a branch that alternates unpredictably.
        for i in range(64):
            trace.append(
                TraceInstruction(
                    OpClass.LOAD, 0x1000 + 4 * (2 * i), address=0x900000 + 4096 * i
                )
            )
            taken = bool(bin(i * 2654435761 % 2**32).count("1") & 1)
            trace.append(
                TraceInstruction(
                    OpClass.BRANCH,
                    0x1000 + 4 * (2 * i + 1),
                    taken=taken,
                    target=0x1000,
                    dep1=1,
                )
            )
        skipping = walk(trace).run()
        walking = walk(trace, _WalkingPipeline).run()
        assert skipping.fetch_stall_cycles == walking.fetch_stall_cycles
        # Misses + mispredicts dominate this trace: most cycles are
        # fetch stalls, and they must survive the event skip.
        assert skipping.fetch_stall_cycles > 0.3 * skipping.total_cycles


class TestWarmup:
    def test_warmup_shrinks_measured_window(self):
        trace = generate_trace(get_benchmark("gzip"), 4000)
        full = walk(trace).run()
        trace2 = generate_trace(get_benchmark("gzip"), 4000)
        warmed = walk(trace2).run(warmup_instructions=2000)
        # The boundary lands within one commit group of the request.
        assert 1996 <= warmed.committed_instructions <= 2000
        assert warmed.total_cycles < full.total_cycles
        warmed.validate()

    def test_warmup_bounds(self):
        trace = straightline(100)
        with pytest.raises(ValueError):
            walk(trace).run(warmup_instructions=100)
        with pytest.raises(ValueError):
            walk(straightline(100)).run(warmup_instructions=-1)


class TestRobustness:
    def test_deadlock_guard(self):
        with pytest.raises(DeadlockError):
            walk(straightline(1000)).run(max_cycles=10)

    def test_all_benchmarks_run_small_windows(self):
        for name in ("health", "gcc", "vortex"):
            trace = generate_trace(get_benchmark(name), 1500)
            stats = walk(trace).run()
            assert stats.committed_instructions == 1500
            stats.validate()
            assert 0.05 < stats.ipc < 4.0
