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

The pool backend runs a batch-kernel batch's groups on in-process
threads, one per group up to one per CPU, because the C kernel and the
trace walker release the GIL. The concurrency gates hold that path
``==`` serial on every workload shape, exact in its counts, off threads
whenever the walk runs, and clean when a batch fails or is abandoned:
later groups never start and no thread outlives the batch.
"""

import dataclasses
import io
import pickle
import sys
import threading
import time

import pytest

from repro import cli
from repro.cpu import _trace_build
from repro.cpu import kernel as kernel_mod
from repro.cpu import simulator as simulator_mod
from repro.cpu.config import MachineConfig
from repro.cpu.kernel import KERNEL_BATCH, KERNEL_WALK, batch_kernel_available
from repro.cpu.simulator import TRACES
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.workloads import benchmark_names, get_benchmark
from repro.exec import backends, cache, engine, worker
from repro.exec.backends import ProcessPoolBackend, set_default_backend
from repro.exec.engine import BatchReport, clear_memo, run_jobs
from repro.exec.jobs import SimulationJob
from repro.experiments import runner
from repro.experiments.common import QUICK_SCALE
from repro.obs import metrics, tracer
from repro.scenarios import PHASED_FAMILY, sample_scenarios
from repro.serve import service

NEEDS_BATCH = pytest.mark.skipif(
    not batch_kernel_available(),
    reason="no C compiler: the batch kernel cannot be built",
)

KERNELS = [KERNEL_WALK, pytest.param(KERNEL_BATCH, marks=NEEDS_BATCH)]

#: The CPUs the default backend believes it has in the threaded tests:
#: more threads than this machine may have cores, which shakes out races.
CPUS = 4


@pytest.fixture
def fresh_cache(tmp_path, preserve_cache_config):
    """An empty persistent cache and memo; restores the previous config."""
    cache.configure(cache_dir=tmp_path / "shared-trace-cache")
    clear_memo()
    yield
    clear_memo()


@pytest.fixture
def threaded(monkeypatch, restore_backend_default):
    """The default backend, with no worker count set, on :data:`CPUS`."""
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    monkeypatch.setattr(backends, "available_cpus", lambda: CPUS)
    set_default_backend(None)


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
        """The walk's worker processes: one 4-job group is dealt into one
        slice per worker, none over
        ⌈4/workers⌉ jobs: two slices of 2 (a trace each), or slices of
        2, 1 and 1 (a trace each) so the third worker is not left idle."""
        jobs = _group(get_benchmark("vpr"), KERNEL_WALK)[:4]
        report = BatchReport()
        with metrics.scope() as scoped:
            results = run_jobs(jobs, backend=f"pool:{workers}", use_cache=False, report=report)
        assert report.workers_used == workers
        assert _traces(scoped.snapshot()) == traces
        assert results == [job.run() for job in jobs]


@pytest.mark.parametrize("spec", ["pool:1", None], ids=["one-worker", "default"])
def test_cold_quick_suite_generates_each_trace_once(spec, fresh_cache, threaded, capsys):
    """``repro all --quick`` prewarms its whole plan as one batch: 81
    simulations over 9 distinct traces generate 9 traces, on one worker,
    on the default's threads (one per trace group, up to one per CPU)
    and, without a compiler, on its walk processes (one per job, up to
    one per CPU)."""
    plan = runner.enumerate_jobs(QUICK_SCALE)
    identities = {job.trace_identity for job in plan}
    set_default_backend(spec)
    with metrics.scope() as scoped:
        runner.run_all(QUICK_SCALE, stream=io.StringIO())
    counters = scoped.snapshot()["counters"]
    simulated = sum(
        value for name, value in counters.items() if name.startswith("sim.kernel_")
    )
    assert len(identities) == 9
    assert simulated == len({job.cache_key() for job in plan}) == 81
    assert counters[TRACES] == 9
    batch = batch_kernel_available()
    assert counters.get("sim.kernel_batch", 0) == (81 if batch else 0)
    workers = 1 if spec is not None else min(CPUS, 9 if batch else 81)
    noun = "workers" if workers > 1 else "worker"
    assert f"(0 cached, 81 run on {workers} {noun})" in capsys.readouterr().err


def _seeded(count):
    """``count`` one-job groups (one trace each), on the batch kernel by
    name, so the default runs them on threads with or without cc."""
    job = _group(get_benchmark("gzip"), KERNEL_BATCH)[0]
    return [dataclasses.replace(job, seed=seed) for seed in range(1, count + 1)]


class TestThreadedDefault:
    """The concurrency gates of the default backend's threads."""

    @NEEDS_BATCH
    def test_every_workload_equals_serial(self, threaded, fresh_cache):
        """All nine benchmarks and sampled and phased scenarios, each a
        group of open- and closed-loop jobs (MaxSleep, and PredictiveSleep,
        whose close callback calls back into Python from C), sequences on
        and off: threaded ``==`` serial, with exact counts."""
        profiles = [get_benchmark(name) for name in benchmark_names()]
        scenarios = sample_scenarios(2, seed=17)
        scenarios += sample_scenarios(1, seed=5, families=[PHASED_FAMILY])
        profiles += [scenario.profile for scenario in scenarios]
        jobs = [job for profile in profiles for job in _group(profile)]
        report = BatchReport()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with metrics.scope() as scoped:
                threaded_results = run_jobs(jobs, use_cache=False, report=report)
        finally:
            sys.setswitchinterval(interval)
        assert threaded_results == run_jobs(jobs, backend="serial", use_cache=False)
        assert (report.backend, report.workers_used) == ("pool", CPUS)
        snapshot = scoped.snapshot()
        assert snapshot["counters"][TRACES] == len(profiles)
        assert snapshot["counters"]["sim.kernel_batch"] == len(jobs)
        assert snapshot["histograms"][metrics.JOB_SECONDS]["count"] == len(jobs)

    @NEEDS_BATCH
    def test_spans_nest_under_the_submit(self, threaded, fresh_cache):
        tracer.reset()
        tracer.enable(True)
        try:
            run_jobs(_group(get_benchmark("gzip"))[:2] + _group(get_benchmark("mst"))[:2])
            events = tracer.drain()
        finally:
            tracer.enable(False)
        (submit,) = [e for e in events if e["name"] == "backend.submit"]
        jobs = [e for e in events if e["name"] == "worker.job"]
        assert submit["args"]["workers"] == 2
        assert len(jobs) == 4
        assert {e["args"]["parent_id"] for e in jobs} == {submit["args"]["span_id"]}

    @NEEDS_BATCH
    def test_verbose_and_serve_report_the_thread_count(
        self, threaded, fresh_cache, capsys
    ):
        engine.reset_telemetry()
        try:
            assert cli.main(["table3", "--quick", "--no-cache", "-v"]) == 0
        finally:
            tracer.configure(None)
        (line,) = [
            line
            for line in capsys.readouterr().err.splitlines()
            if line.startswith("[repro] backend pool:")
        ]
        assert line.endswith(f"failed=0 workers={CPUS}")
        clear_memo()
        requests = [_group(get_benchmark("vpr"))[:2], _group(get_benchmark("mcf"))[:2]]
        report, claims = service._run_fold(requests)
        assert claims == [2, 2]
        assert service._report_summary(report, 4)["workers_used"] == 2

    @pytest.mark.parametrize("how", ["kernel-walk", "no-batch-kernel"])
    def test_the_walk_runs_on_worker_processes(self, how, threaded, fresh_cache, monkeypatch):
        """The walk holds the GIL, so a batch it runs never shares the
        submitting process: it forks one worker per job, up to one per
        CPU, and each runs its jobs on one thread."""
        if how == "kernel-walk":
            monkeypatch.setattr(kernel_mod, "_default_kernel", KERNEL_WALK)
        else:
            monkeypatch.setattr(kernel_mod, "batch_kernel_available", lambda: False)

        def not_here(*args):
            raise AssertionError("the walk ran in the submitting process")

        monkeypatch.setattr(backends, "_run_threaded", not_here)
        monkeypatch.setattr(backends, "_run_inline", not_here)
        jobs = _group(get_benchmark("gzip"))[:2] + _group(get_benchmark("mst"))[:2]
        report = BatchReport()
        with metrics.scope() as scoped:
            results = run_jobs(jobs, use_cache=False, report=report)
        assert report.workers_used == min(CPUS, len(jobs))
        assert scoped.snapshot()["counters"]["sim.kernel_walk"] == len(jobs)
        assert results == [dataclasses.replace(job, kernel=KERNEL_WALK).run() for job in jobs]

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_failed_group_stops_the_batch(self, error, threaded, monkeypatch):
        """The first group fails while the second, of three jobs, runs
        on the other thread: the batch raises the group's own error, the
        running group stops after its current job, later groups never
        start, and no thread is left."""
        monkeypatch.setattr(backends, "available_cpus", lambda: 2)
        started, failing = [], []
        second, failed = threading.Event(), threading.Event()

        def run(job, chunks=None):
            started.append(job.seed)
            if job.seed == 1:
                assert second.wait(timeout=60)
                failing.append(threading.current_thread())
                failed.set()
                raise error("injected group failure")
            second.set()
            # Return only once the failing thread has returned, so the
            # batch has seen the failure before this group could go on.
            assert failed.wait(timeout=60)
            failing[0].join(timeout=60)
            return job.seed

        monkeypatch.setattr(SimulationJob, "run", run)
        group = _group(get_benchmark("gzip"), KERNEL_BATCH)[:3]
        shared = [dataclasses.replace(job, seed=2) for job in group]
        jobs = _seeded(1) + shared + _seeded(6)[2:]
        before = threading.active_count()
        with pytest.raises(error, match="injected group failure"):
            run_jobs(jobs, use_cache=False)
        assert threading.active_count() == before
        assert sorted(started) == [1, 2]

    @NEEDS_BATCH
    def test_a_failure_stops_a_running_simulation_at_its_next_chunk(
        self, threaded, monkeypatch
    ):
        """A long simulation on one thread stops within a chunk or two of
        a failure on the other instead of running to the end of its
        trace, and the batch raises the failure, not the stop."""
        monkeypatch.setattr(backends, "available_cpus", lambda: 2)
        pulled = []
        drawing = threading.Event()
        original = simulator_mod.iter_trace

        def counted(*args, **kwargs):
            for chunk in original(*args, **kwargs):
                pulled.append(chunk.end)
                if len(pulled) == 2:
                    drawing.set()
                yield chunk

        monkeypatch.setattr(simulator_mod, "iter_trace", counted)
        real_run = SimulationJob.run

        def run(job, chunks=None):
            if job.seed == 2:
                assert drawing.wait(timeout=60)
                raise RuntimeError("injected failure")
            return real_run(job, chunks)

        monkeypatch.setattr(SimulationJob, "run", run)
        long = SimulationJob(get_benchmark("gzip"), 2_000_000, 300, 1, kernel=KERNEL_BATCH)
        short = dataclasses.replace(long, seed=2, num_instructions=1_000)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="injected failure"):
            run_jobs([long, short], use_cache=False)
        assert threading.active_count() == before
        assert 2 <= len(pulled) < 10  # of 245 chunks

    def test_abandoning_the_batch_leaves_no_thread(self, threaded, monkeypatch):
        monkeypatch.setattr(backends, "available_cpus", lambda: 2)
        ran = []

        def run(job, chunks=None):
            ran.append(job.seed)
            if job.seed > 1:
                time.sleep(0.05)
            return job.seed

        monkeypatch.setattr(SimulationJob, "run", run)
        jobs = _seeded(20)
        before = threading.active_count()
        batch = ProcessPoolBackend().submit_batch(jobs)
        index, seed = next(batch)
        assert seed == jobs[index].seed
        batch.close()
        assert threading.active_count() == before
        assert len(ran) < len(jobs)
