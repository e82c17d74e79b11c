"""PhasedProfile: composite traces with resumed member streams."""

import pytest

from repro.cpu.config import MachineConfig
from repro.cpu.simulator import Simulator, simulate_workload
from repro.cpu.trace import validate_trace
from repro.cpu.workloads import generate_trace, get_benchmark
from repro.exec.engine import run_jobs
from repro.exec.jobs import SimulationJob
from repro.scenarios.phased import MEMBER_PC_STRIDE, PhasedProfile


@pytest.fixture(scope="module")
def two_member_profile():
    return PhasedProfile(
        name="gzip-then-mcf",
        members=(get_benchmark("gzip"), get_benchmark("mcf")),
        phase_lengths=(600, 400),
    )


class TestValidation:
    def test_needs_two_members(self):
        with pytest.raises(ValueError, match=">= 2 members"):
            PhasedProfile(
                name="solo", members=(get_benchmark("gzip"),),
                phase_lengths=(100,),
            )

    def test_phase_lengths_must_match_members(self):
        with pytest.raises(ValueError, match="phase lengths"):
            PhasedProfile(
                name="bad",
                members=(get_benchmark("gzip"), get_benchmark("mcf")),
                phase_lengths=(100,),
            )

    def test_phase_lengths_must_be_positive(self):
        with pytest.raises(ValueError, match=">= 1"):
            PhasedProfile(
                name="bad",
                members=(get_benchmark("gzip"), get_benchmark("mcf")),
                phase_lengths=(100, 0),
            )

    def test_member_names_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            PhasedProfile(
                name="dup",
                members=(get_benchmark("gzip"), get_benchmark("gzip")),
                phase_lengths=(100, 100),
            )

    def test_member_cap(self):
        members = tuple(
            get_benchmark(name)
            for name in ("health", "mst", "gcc", "gzip", "mcf",
                         "parser", "twolf", "vortex", "vpr")
        )
        with pytest.raises(ValueError, match="at most"):
            PhasedProfile(
                name="nine", members=members, phase_lengths=(100,) * 9
            )

    def test_reference_fus_is_widest_member(self, two_member_profile):
        assert two_member_profile.reference_fus == max(
            get_benchmark("gzip").reference_fus,
            get_benchmark("mcf").reference_fus,
        )


class TestSchedule:
    def test_cycles_and_truncates(self, two_member_profile):
        schedule = two_member_profile.phase_schedule(2_300)
        assert schedule == [(0, 600), (1, 400), (0, 600), (1, 400), (0, 300)]
        assert sum(length for _, length in schedule) == 2_300

    def test_rejects_empty_window(self, two_member_profile):
        with pytest.raises(ValueError, match=">= 1"):
            two_member_profile.phase_schedule(0)


class TestTrace:
    def test_exact_length_and_validity(self, two_member_profile):
        trace = two_member_profile.build_trace(2_300, seed=1)
        assert len(trace) == 2_300
        validate_trace(trace)

    def test_deterministic(self, two_member_profile):
        assert two_member_profile.build_trace(2_000, seed=5) == (
            two_member_profile.build_trace(2_000, seed=5)
        )

    def test_generate_trace_matches_build_trace(self, two_member_profile):
        assert (
            generate_trace(two_member_profile, 1_500, seed=2)
            == two_member_profile.build_trace(1_500, seed=2)
        )

    def test_member_streams_resume_across_phases(self, two_member_profile):
        """A member's later phases continue its stream: phase 3 of member
        0 is instructions [600:1200) of member 0's own trace."""
        trace = two_member_profile.build_trace(2_300, seed=1)
        member0 = generate_trace(get_benchmark("gzip"), 1_500, seed=1)
        assert trace[:600] == member0[:600]  # member 0 has zero PC offset
        assert trace[1_000:1_600] == member0[600:1_200]

    def test_second_member_gets_pc_offset(self, two_member_profile):
        trace = two_member_profile.build_trace(1_000, seed=1)
        member1 = generate_trace(get_benchmark("mcf"), 400, seed=1)
        phase = trace[600:1_000]
        assert [i.pc for i in phase] == [
            i.pc + MEMBER_PC_STRIDE for i in member1
        ]
        # Ops, deps, and addresses are untouched by the relocation.
        assert [i.op for i in phase] == [i.op for i in member1]
        assert [i.address for i in phase] == [i.address for i in member1]
        for relocated, original in zip(phase, member1):
            if original.target:
                assert relocated.target == original.target + MEMBER_PC_STRIDE
            else:
                assert relocated.target == 0

    def test_phase_boundary_switches_instruction_mix(self):
        """An fp-free member followed by an fp-dense one must show the
        switch in the trace itself."""
        from repro.scenarios import sample_scenarios

        fp = sample_scenarios(1, seed=3, families=["fp_dense"])[0].profile
        profile = PhasedProfile(
            name="int-then-fp",
            members=(get_benchmark("gzip"), fp),
            phase_lengths=(500, 500),
        )
        trace = profile.build_trace(1_000, seed=1)
        from repro.cpu.isa import FP_FU_OPS

        first = sum(1 for i in trace[:500] if i.op in FP_FU_OPS)
        second = sum(1 for i in trace[500:] if i.op in FP_FU_OPS)
        assert first == 0
        # The dynamic FP share depends on which loop bodies run hot (the
        # deck fixes the static mix, not the walk's), so assert the
        # switch, not a tight share.
        assert second > 10


class TestSimulation:
    def test_runs_through_simulator_facade(self, two_member_profile):
        result = simulate_workload(
            two_member_profile,
            2_000,
            config=MachineConfig().with_int_fus(2),
            warmup_instructions=500,
            use_cache=False,
        )
        assert result.workload_name == "gzip-then-mcf"
        assert result.stats.total_cycles > 0

    def test_runs_through_execution_engine(self, two_member_profile):
        """Jobs, canonical keys, and the engine all accept a composite
        profile; identical jobs dedup to one simulation."""
        job = SimulationJob(
            profile=two_member_profile,
            num_instructions=1_500,
            warmup_instructions=500,
            record_sequences=False,
        )
        first, second = run_jobs([job, job])
        assert first is second  # deduplicated by canonical key

    def test_cache_key_distinct_from_members(self, two_member_profile):
        composite = SimulationJob(
            profile=two_member_profile, num_instructions=1_500
        )
        member = SimulationJob(
            profile=get_benchmark("gzip"), num_instructions=1_500
        )
        assert composite.cache_key() != member.cache_key()

    def test_engine_result_matches_direct_simulation(self, two_member_profile):
        job = SimulationJob(
            profile=two_member_profile,
            num_instructions=1_200,
            warmup_instructions=300,
            record_sequences=False,
        )
        (engine_result,) = run_jobs([job], use_cache=False)
        direct = Simulator(two_member_profile, config=job.config).run(
            1_200, warmup_instructions=300, record_sequences=False
        )
        assert engine_result.stats.total_cycles == direct.stats.total_cycles
        assert engine_result.stats.ipc == direct.stats.ipc
