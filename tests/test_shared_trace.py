"""The shared-trace gate (CI): one generated trace feeds many simulations.

Jobs that share a trace identity (profile, seed, warmup + window) run as
one group: :func:`repro.exec.worker.run_group_observed` draws the trace
once and hands the same chunk list to every job. The contract is that a
grouped run is ``==`` to running each job alone -- open and closed loop,
with interval sequences on and off, on both kernels, on compiled and
reference-walk traces -- so sharing changes how often traces are
generated and nothing else. The rest pins where sharing applies: the
engine hands a batch's groups to the backend together, every backend
renders byte-identical results, a cold quick suite generates its 9
traces once each, and single jobs and streaming-length traces still
generate per job.
"""

import dataclasses
import io
import pickle

import pytest

from repro.cpu import _trace_build
from repro.cpu.config import MachineConfig
from repro.cpu.kernel import KERNEL_BATCH, KERNEL_WALK, batch_kernel_available
from repro.cpu.simulator import TRACES
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.workloads import benchmark_names, get_benchmark
from repro.exec import cache, worker
from repro.exec.backends import set_default_backend
from repro.exec.engine import BatchReport, clear_memo, run_jobs
from repro.exec.jobs import SimulationJob
from repro.experiments import runner
from repro.experiments.common import QUICK_SCALE
from repro.obs import metrics
from repro.scenarios import PHASED_FAMILY, sample_scenarios

KERNELS = [
    KERNEL_WALK,
    pytest.param(
        KERNEL_BATCH,
        marks=pytest.mark.skipif(
            not batch_kernel_available(),
            reason="no C compiler: the batch kernel cannot be built",
        ),
    ),
]


@pytest.fixture
def fresh_cache(tmp_path, preserve_cache_config):
    """An empty persistent cache and memo; restores the previous config."""
    cache.configure(cache_dir=tmp_path / "shared-trace-cache")
    clear_memo()
    yield
    clear_memo()


def _group(profile, kernel=None, window=1_600, warmup=400, seed=3):
    """Jobs over one trace: three machines, open and closed loop (a
    stateless and a stateful policy), sequences on and off."""
    base = MachineConfig()
    configs = [base, base.with_int_fus(1), base.with_l2_latency(32)]
    sleeps = [
        SleepRuntimeSpec(policy="MaxSleep", wakeup_latency=2),
        SleepRuntimeSpec(policy="PredictiveSleep", wakeup_latency=1),
    ]
    jobs = [
        SimulationJob(profile, window, warmup, seed, config, record_sequences=record)
        for config in configs
        for record in (True, False)
    ]
    jobs += [
        SimulationJob(profile, window, warmup, seed, base, sleep=sleep, record_sequences=record)
        for sleep in sleeps
        for record in (True, False)
    ]
    return [dataclasses.replace(job, kernel=kernel) for job in jobs]


def _assert_grouped_equals_alone(jobs):
    with metrics.scope() as scoped:
        grouped = list(worker.run_group_observed(jobs))
    assert scoped.snapshot()["counters"][TRACES] == 1
    alone = [job.run() for job in jobs]
    assert grouped == alone


def _traces(snapshot):
    return snapshot["counters"].get(TRACES, 0)


class TestGroupedEqualsAlone:
    """The gate: ``==`` against each job run on its own trace."""

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("name", benchmark_names())
    def test_every_benchmark(self, name, kernel):
        _assert_grouped_equals_alone(_group(get_benchmark(name), kernel))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_sampled_scenarios_and_a_phased_composite(self, kernel):
        scenarios = sample_scenarios(2, seed=17)
        scenarios += sample_scenarios(1, seed=5, families=[PHASED_FAMILY])
        assert type(scenarios[-1].profile).__name__ == "PhasedProfile"
        for scenario in scenarios:
            _assert_grouped_equals_alone(_group(scenario.profile, kernel))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_without_the_trace_walker(self, kernel, monkeypatch):
        """The no-compiler fallback: object-backed reference-walk chunks."""
        monkeypatch.setattr(_trace_build, "trace_kernel_available", lambda: False)
        _assert_grouped_equals_alone(_group(get_benchmark("gcc"), kernel))


class TestWhereSharingApplies:
    def test_a_group_draws_its_trace_once(self, monkeypatch):
        drawn = []
        original = worker.iter_trace

        def counted(*args, **kwargs):
            drawn.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(worker, "iter_trace", counted)
        jobs = _group(get_benchmark("mcf"))
        with metrics.scope() as scoped:
            list(worker.run_group_observed(jobs))
        snapshot = scoped.snapshot()
        assert len(drawn) == 1
        assert _traces(snapshot) == 1
        assert snapshot["histograms"][metrics.JOB_SECONDS]["count"] == len(jobs)

    def test_a_single_job_generates_its_own(self):
        with metrics.scope() as scoped:
            list(worker.run_group_observed(_group(get_benchmark("gzip"))[:1]))
        assert _traces(scoped.snapshot()) == 1

    def test_streaming_length_groups_generate_per_job(self, monkeypatch):
        """At or above the streaming threshold nothing is shared, so the
        trace never has to be resident whole."""
        jobs = _group(get_benchmark("gzip"))[:3]
        total = jobs[0].num_instructions + jobs[0].warmup_instructions
        monkeypatch.setattr(worker, "STREAMING_THRESHOLD", total)
        with metrics.scope() as scoped:
            list(worker.run_group_observed(jobs))
        assert _traces(scoped.snapshot()) == 3
        monkeypatch.setattr(worker, "STREAMING_THRESHOLD", total + 1)
        with metrics.scope() as scoped:
            list(worker.run_group_observed(jobs))
        assert _traces(scoped.snapshot()) == 1

    def test_engine_hands_over_groups_together(self, fresh_cache):
        """Pending jobs sharing a trace reach the backend next to each
        other; results still come back in submission order."""
        seen = []

        class Recording:
            name = "recording"

            def submit_batch(self, jobs):
                seen.extend(job.profile.name for job in jobs)
                for index, job in enumerate(jobs):
                    yield index, job.run()

            def workers_for(self, pending):
                return 1

        gzip, mcf = _group(get_benchmark("gzip"))[:2], _group(get_benchmark("mcf"))[:2]
        batch = [gzip[0], mcf[0], gzip[1], mcf[1]]
        results = run_jobs(batch, backend=Recording())
        assert seen == ["gzip", "gzip", "mcf", "mcf"]
        assert [result.config for result in results] == [job.config for job in batch]
        assert results == [job.run() for job in batch]


class TestBackends:
    def _batch(self):
        return _group(get_benchmark("gzip"))[:3] + _group(get_benchmark("mst"))[:3]

    def test_serial_pool_ssh_localhost_byte_identical(self, fresh_cache):
        jobs = self._batch()
        rendered, traces = [], []
        for backend in ("serial", "pool:2", "ssh:localhost"):
            with metrics.scope() as scoped:
                results = run_jobs(jobs, backend=backend, use_cache=False)
            rendered.append([pickle.dumps(result) for result in results])
            traces.append(_traces(scoped.snapshot()))
        assert rendered[0] == rendered[1] == rendered[2]
        # serial and the pool share each group's trace; SSH runs per job.
        assert traces == [2, 2, 6]

    @pytest.mark.parametrize("workers, traces", [(2, 2), (3, 3)])
    def test_pool_deals_a_group_across_its_workers(self, workers, traces, fresh_cache):
        """One 4-job group is dealt into one slice per worker, none over
        ⌈4/workers⌉ jobs: two slices of 2 (a trace each), or slices of
        2, 1 and 1 (a trace each) so the third worker is not left idle."""
        report = BatchReport()
        with metrics.scope() as scoped:
            results = run_jobs(
                _group(get_benchmark("vpr"))[:4],
                backend=f"pool:{workers}",
                use_cache=False,
                report=report,
            )
        assert report.workers_used == workers
        assert _traces(scoped.snapshot()) == traces
        assert results == [job.run() for job in _group(get_benchmark("vpr"))[:4]]


def test_cold_quick_suite_generates_each_trace_once(fresh_cache, restore_backend_default):
    """``repro all --quick`` prewarms its whole plan as one batch: 81
    simulations over 9 distinct traces generate 9 traces."""
    plan = runner.enumerate_jobs(QUICK_SCALE)
    identities = {job.trace_identity for job in plan}
    set_default_backend("pool:1")
    with metrics.scope() as scoped:
        runner.run_all(QUICK_SCALE, stream=io.StringIO())
    counters = scoped.snapshot()["counters"]
    simulated = sum(
        value for name, value in counters.items() if name.startswith("sim.kernel_")
    )
    assert len(identities) == 9
    assert simulated == len({job.cache_key() for job in plan}) == 81
    assert counters[TRACES] == 9
