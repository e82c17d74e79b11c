"""Tests for the batch execution engine and its cache layering."""

import errno
import pickle
import sys
import threading

import pytest

from repro.cpu.config import MachineConfig
from repro.cpu.simulator import simulate_workload
from repro.cpu.workloads import get_benchmark
from repro.exec import cache, engine, hashing
from repro.exec import jobs as jobs_mod
from repro.exec.engine import (
    BatchReport,
    clear_memo,
    lookup,
    resolve_workers,
    run_jobs,
    set_default_workers,
)
from repro.exec.jobs import SimulationJob
from repro.experiments.common import QUICK_SCALE, collect_benchmark_data
from repro.obs import metrics as obs_metrics


@pytest.fixture
def fresh_cache(tmp_path, preserve_cache_config):
    """An empty persistent cache and memo; restores the previous config."""
    store = cache.configure(cache_dir=tmp_path / "exec-cache")
    clear_memo()
    yield store
    clear_memo()


def _job(name="gzip", instructions=1500, warmup=500, seed=1, config=None):
    return SimulationJob(
        profile=get_benchmark(name),
        num_instructions=instructions,
        warmup_instructions=warmup,
        seed=seed,
        config=config or MachineConfig(),
    )


class TestSimulationJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            _job(instructions=0)
        with pytest.raises(ValueError):
            _job(warmup=-1)

    def test_from_scale(self):
        job = SimulationJob.from_scale(
            get_benchmark("mcf"), QUICK_SCALE, MachineConfig().with_int_fus(2)
        )
        assert job.num_instructions == QUICK_SCALE.window_instructions
        assert job.warmup_instructions == QUICK_SCALE.warmup_instructions
        assert job.seed == QUICK_SCALE.seed
        assert job.config.num_int_fus == 2

    def test_identical_jobs_share_a_key(self):
        assert _job().cache_key() == _job().cache_key()
        assert _job().cache_key() != _job(seed=2).cache_key()

    def test_run_matches_simulate_workload(self, fresh_cache):
        job = _job()
        direct = job.run()
        cached = simulate_workload(
            job.profile,
            job.num_instructions,
            config=job.config,
            seed=job.seed,
            warmup_instructions=job.warmup_instructions,
        )
        assert direct.stats.total_cycles == cached.stats.total_cycles
        assert direct.stats.ipc == cached.stats.ipc


class TestRunJobs:
    def test_deduplicates_and_orders(self, fresh_cache):
        a, b = _job("gzip"), _job("mst")
        report = BatchReport()
        results = run_jobs([a, b, a], report=report)
        assert report.submitted == 3
        assert report.unique == 2
        assert report.executed == 2
        assert results[0] is results[2]
        assert results[0].workload_name == "gzip"
        assert results[1].workload_name == "mst"

    def test_second_batch_hits_the_memo(self, fresh_cache):
        job = _job()
        run_jobs([job])
        report = BatchReport()
        run_jobs([job], report=report)
        assert report.cache_hits == 1
        assert report.executed == 0

    def test_warm_persistent_cache_survives_memo_clear(self, fresh_cache):
        job = _job()
        first = run_jobs([job])[0]
        clear_memo()
        report = BatchReport()
        second = run_jobs([job], report=report)[0]
        assert report.cache_hits == 1 and report.executed == 0
        assert second is not first
        assert pickle.dumps(second) == pickle.dumps(first)

    def test_use_cache_false_resimulates(self, fresh_cache):
        job = _job()
        first = run_jobs([job])[0]
        report = BatchReport()
        second = run_jobs([job], use_cache=False, report=report)[0]
        assert report.executed == 1
        assert second is not first

    def test_parallel_equals_serial(self, fresh_cache):
        jobs = [_job(name) for name in ("gzip", "mcf", "mst")]
        parallel = run_jobs(jobs, workers=3)
        serial = [job.run() for job in jobs]
        for par, ser in zip(parallel, serial):
            assert pickle.dumps(par) == pickle.dumps(ser)

    def test_results_land_in_both_cache_layers(self, fresh_cache):
        job = _job()
        run_jobs([job], workers=2)
        assert lookup(job.cache_key()) is not None
        assert len(fresh_cache) == 1


class TestWorkerResolution:
    def test_explicit_and_default(self):
        assert resolve_workers(3) == 3
        set_default_workers(2)
        try:
            assert resolve_workers(None) == 2
        finally:
            set_default_workers(None)
        assert resolve_workers(None) == 1

    def test_zero_means_all_cores(self):
        assert resolve_workers(0) >= 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_workers(None) == 5

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_workers(None) == resolve_workers(0) >= 1

    def test_env_malformed_falls_back_to_serial(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "-2")
        assert resolve_workers(None) == 1
        assert "REPRO_JOBS='-2'" in capsys.readouterr().err

    def test_env_with_whitespace_parses(self, monkeypatch, capsys):
        """Regression: REPRO_JOBS=' 8' must mean 8 workers, not a silent
        fall back to serial."""
        monkeypatch.setenv("REPRO_JOBS", " 8")
        assert resolve_workers(None) == 8
        assert capsys.readouterr().err == ""

    def test_env_malformed_warns_once_per_resolution(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "eight")
        assert resolve_workers(None) == 1
        err = capsys.readouterr().err
        assert "expected a non-negative integer" in err
        assert "running serial" in err

    def test_env_empty_stays_silent(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "   ")
        assert resolve_workers(None) == 1
        assert capsys.readouterr().err == ""

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


class TestCollectBenchmarkDataParallel:
    def test_full_batch_parallel_equals_serial(self, fresh_cache):
        """The acceptance bar: a full collect_benchmark_data batch is
        bit-for-bit identical whether run serially or fanned out."""
        serial = collect_benchmark_data(scale=QUICK_SCALE, use_cache=False)
        fresh_cache.clear()
        clear_memo()
        parallel = collect_benchmark_data(scale=QUICK_SCALE, jobs=4)
        assert len(serial) == len(parallel) == 9
        for ser, par in zip(serial, parallel):
            assert ser.name == par.name
            assert ser.num_fus == par.num_fus
            assert pickle.dumps(ser.result) == pickle.dumps(par.result)

    def test_table3_ipc_identical_across_workers(self, fresh_cache):
        from repro.experiments import table3

        subset = ("gzip", "mcf")
        serial = table3.run(scale=QUICK_SCALE, benchmarks=subset, jobs=1)
        fresh_cache.clear()
        clear_memo()
        parallel = table3.run(scale=QUICK_SCALE, benchmarks=subset, jobs=2)
        for ser, par in zip(serial.selections, parallel.selections):
            assert ser.ipc_by_fus == par.ipc_by_fus
            assert ser.selected_fus == par.selected_fus


class TestSimulatorCacheLayering:
    def test_persistent_layer_under_the_memo(self, fresh_cache):
        profile = get_benchmark("gzip")
        first = simulate_workload(profile, 1500, warmup_instructions=400)
        assert simulate_workload(profile, 1500, warmup_instructions=400) is first
        clear_memo()
        reloaded = simulate_workload(profile, 1500, warmup_instructions=400)
        assert reloaded is not first
        assert pickle.dumps(reloaded) == pickle.dumps(first)
        # ... and the disk hit is promoted back into the memo.
        assert simulate_workload(profile, 1500, warmup_instructions=400) is reloaded

    def test_use_cache_false_bypasses_both_layers(self, fresh_cache):
        profile = get_benchmark("gzip")
        a = simulate_workload(profile, 1500, use_cache=False)
        assert len(fresh_cache) == 0
        b = simulate_workload(profile, 1500, use_cache=False)
        assert a is not b

    def test_disabled_cache_still_memoizes(self, fresh_cache):
        cache.configure(enabled=False)
        clear_memo()
        profile = get_benchmark("gzip")
        a = simulate_workload(profile, 1500)
        assert simulate_workload(profile, 1500) is a


def _memo_evictions() -> float:
    return obs_metrics.registry().snapshot()["counters"].get("cache.memo_evictions", 0.0)


class TestOneKeyPerJob:
    def test_each_distinct_job_is_hashed_once(self, fresh_cache, monkeypatch):
        """Lookups and publishes reuse the batch's key, and equal jobs
        rebuilt as new objects (as each experiment does) hit the key
        cache: three distinct jobs cost three hashes, twice submitted."""
        jobs_mod._outcome_key.cache_clear()
        hashed = []
        real = hashing.canonical_key

        def counting(payload, **kwargs):
            hashed.append(payload)
            return real(payload, **kwargs)

        monkeypatch.setattr(hashing, "canonical_key", counting)
        names = ("gzip", "mcf", "mst")
        run_jobs([_job(name) for name in names], backend="serial")
        report = BatchReport()
        run_jobs([_job(name) for name in names], backend="serial", report=report)
        assert report.cache_hits == 3 and report.executed == 0
        assert len(hashed) == 3


class TestBoundedMemo:
    def test_lru_evicts_and_the_store_refills(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(engine, "MEMO_ENTRIES", 2)
        before = _memo_evictions()
        jobs = [_job(seed=seed) for seed in range(1, 6)]
        for job in jobs:
            run_jobs([job], backend="serial")
        assert _memo_evictions() - before == 3
        report = BatchReport()
        run_jobs([jobs[0]], backend="serial", report=report)
        assert report.cache_hits == 1 and report.executed == 0
        assert len(fresh_cache) == 5

    def test_evicted_job_reexecutes_without_a_store(self, fresh_cache, monkeypatch):
        cache.configure(enabled=False)
        monkeypatch.setattr(engine, "MEMO_ENTRIES", 2)
        jobs = [_job(seed=seed) for seed in range(1, 6)]
        for job in jobs:
            run_jobs([job], backend="serial")
        evicted = BatchReport()
        run_jobs([jobs[0]], backend="serial", report=evicted)
        assert evicted.executed == 1
        # The most recently used result is still memoized.
        recent = BatchReport()
        run_jobs([jobs[-1]], backend="serial", report=recent)
        assert recent.cache_hits == 1 and recent.executed == 0


class _FullDiskStore:
    """A store whose every write fails, as on a full or read-only disk."""

    name = "full"

    def get(self, key):
        return None

    def put(self, key, value):
        raise OSError(errno.ENOSPC, "No space left on device")

    def describe(self):
        return "full:/nowhere"


class TestStoreWriteFailure:
    def test_results_survive_and_the_memo_answers(self, fresh_cache, capsys):
        cache.configure(store=_FullDiskStore())
        jobs = [_job("gzip"), _job("mst")]
        report = BatchReport()
        results = run_jobs(jobs, backend="serial", report=report)
        assert report.executed == 2
        assert [r.workload_name for r in results] == ["gzip", "mst"]
        assert capsys.readouterr().err.count("cannot write result cache (full:/nowhere)") == 1
        assert cache.active() is None  # fell back to memo-only
        again = BatchReport()
        memoized = run_jobs(jobs, backend="serial", report=again)
        assert all(hit is first for hit, first in zip(memoized, results))
        assert again.cache_hits == 2 and again.executed == 0


class TestMemoUnderThreads:
    def test_racing_publishes_and_lookups_keep_the_bound(self, fresh_cache, monkeypatch):
        """Serve probes the memo from worker threads while batches publish
        on others: a lookup's move_to_end racing another thread's
        eviction must never raise, and the cap must hold."""
        cache.configure(enabled=False)
        monkeypatch.setattr(engine, "MEMO_ENTRIES", 8)
        result = object()
        errors = []

        def hammer(thread):
            try:
                keys = [f"{thread:02x}{index:062x}" for index in range(300)]
                for index, key in enumerate(keys):
                    engine._publish(key, result)
                    for recent in keys[max(0, index - 10) : index + 1]:
                        engine.lookup(recent)
            except Exception as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(engine._MEMO) == 8
