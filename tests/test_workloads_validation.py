"""WorkloadProfile validation rejection paths and lookup ergonomics."""

import dataclasses

import pytest

from repro.cpu.isa import FP_FU_OPS
from repro.cpu.workloads import (
    BENCHMARKS,
    benchmark_names,
    generate_trace,
    get_benchmark,
)


def _variant(**overrides):
    """A gzip variant with selected fields replaced (triggers validation)."""
    return dataclasses.replace(get_benchmark("gzip"), name="variant", **overrides)


class TestFractionValidation:
    @pytest.mark.parametrize("field", [
        "frac_int_mult", "frac_load", "frac_store", "frac_fp",
        "call_fraction", "loop_branch_fraction", "fixed_trip_fraction",
        "indirect_branch_fraction", "stack_prob", "stream_prob",
        "first_source_prob", "second_source_prob", "load_chain_prob",
        "random_branch_fraction", "heap_hot_prob", "biased_taken_prob",
    ])
    def test_each_fraction_field_rejects_out_of_range(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a fraction"):
            _variant(**{field: 1.2})
        with pytest.raises(ValueError, match=f"{field} must be a fraction"):
            _variant(**{field: -0.1})

    def test_error_message_names_the_profile_and_value(self):
        with pytest.raises(ValueError, match=r"variant: frac_load .* got 2\.0"):
            _variant(frac_load=2.0)

    def test_body_fractions_must_leave_room_for_int_alu(self):
        with pytest.raises(ValueError, match="body op fractions"):
            _variant(
                frac_int_mult=0.3, frac_load=0.3, frac_store=0.3, frac_fp=0.3
            )

    def test_exact_sum_of_one_rejected(self):
        """A body sum of exactly 1.0 must be rejected: per-class deck
        rounding could overflow the deck and silently skew the mix."""
        with pytest.raises(ValueError, match="INT_ALU"):
            _variant(
                frac_int_mult=63.5 / 512, frac_load=129.5 / 512,
                frac_store=129.5 / 512, frac_fp=189.5 / 512,
            )

    def test_locality_probabilities_must_not_exceed_one(self):
        with pytest.raises(ValueError, match="locality probabilities"):
            _variant(stack_prob=0.6, stream_prob=0.6)

    def test_structure_bounds_still_enforced(self):
        with pytest.raises(ValueError, match="blocks must average"):
            _variant(mean_block_size=1.0)
        with pytest.raises(ValueError, match="dependency distance"):
            _variant(mean_dep_distance=0.5)
        with pytest.raises(ValueError, match="degenerate code structure"):
            _variant(num_blocks=2)
        with pytest.raises(ValueError, match="FU count"):
            _variant(reference_fus=5)
        # Python's % floors and C's truncates, so a negative stride would
        # walk a different stream with and without the compiled walker.
        for stride in (-8, 0):
            with pytest.raises(ValueError, match="stream_stride must be >= 1"):
                _variant(stream_stride=stride)

    def test_boundary_values_accepted(self):
        profile = _variant(frac_fp=0.0, random_branch_fraction=1.0)
        assert profile.frac_fp == 0.0


class TestBenchmarkLookup:
    def test_typo_gets_close_match_suggestions(self):
        with pytest.raises(KeyError, match="did you mean gzip"):
            get_benchmark("gzp")

    def test_suggestions_do_not_dump_full_list(self):
        with pytest.raises(KeyError) as info:
            get_benchmark("parser2k")
        message = str(info.value)
        assert "did you mean" in message
        # A suggestion message, not the whole registry.
        listed = [name for name in benchmark_names() if name in message]
        assert len(listed) < len(benchmark_names())

    def test_hopeless_name_lists_known_benchmarks(self):
        with pytest.raises(KeyError, match="known:"):
            get_benchmark("qqqqqq")


class TestFpFraction:
    def test_seed_benchmarks_have_no_fp_ops(self):
        """The nine integer benchmarks stay fp-free (frac_fp defaults 0),
        so their traces — and cached results — are what they always were."""
        for name in BENCHMARKS:
            profile = get_benchmark(name)
            assert profile.frac_fp == 0.0
            trace = generate_trace(profile, 1_500, seed=1)
            assert not any(instr.op in FP_FU_OPS for instr in trace)

    def test_fp_fraction_materializes_in_the_trace(self):
        profile = _variant(frac_fp=0.3)
        trace = generate_trace(profile, 2_000, seed=1)
        fp_ops = sum(1 for instr in trace if instr.op in FP_FU_OPS)
        assert 0.15 * len(trace) < fp_ops < 0.45 * len(trace)

    def test_frac_int_alu_accounts_for_fp(self):
        profile = _variant(frac_fp=0.2)
        expected = 1.0 - (
            profile.frac_int_mult + profile.frac_load
            + profile.frac_store + 0.2
        )
        assert abs(profile.frac_int_alu - expected) < 1e-12
