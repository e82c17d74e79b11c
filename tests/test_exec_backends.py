"""Tests for the pluggable execution backends and the worker protocol.

The keystone contract: identical job batches produce byte-identical
ordered results across SerialBackend, ProcessPoolBackend, and
SSHBackend(localhost) — which is what licenses ``--backend`` being a
pure deployment knob (and the CI backend-equivalence gate).
"""

import io
import pickle
import queue
import threading

import pytest

from repro.cpu.simulator import clear_simulation_cache
from repro.cpu.workloads import get_benchmark
from repro.exec import cache
from repro.exec import worker as worker_mod
from repro.exec.backends import (
    BackendError,
    ProcessPoolBackend,
    RemoteJobError,
    SerialBackend,
    SSHBackend,
    parse_backend_spec,
    resolve_backend,
    set_default_backend,
    validate_ready,
)
from repro.exec.engine import (
    BatchReport,
    backend_metrics,
    backend_tallies,
    reset_telemetry,
    run_jobs,
    telemetry_lines,
)
from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
from repro.exec.jobs import SimulationJob
from repro.exec.worker import (
    ProtocolError,
    decode_payload,
    encode_payload,
    read_frame,
    run_job_observed,
    serve,
    write_frame,
)
from repro.obs import metrics


@pytest.fixture
def fresh_cache(tmp_path, preserve_cache_config):
    """An empty persistent cache and memo; restores the previous config."""
    store = cache.configure(cache_dir=tmp_path / "exec-cache")
    clear_simulation_cache()
    yield store
    clear_simulation_cache()


@pytest.fixture
def restore_backend_default():
    yield
    set_default_backend(None)


def _job(name="gzip", instructions=1200, warmup=300, seed=1, **kwargs):
    return SimulationJob(
        profile=get_benchmark(name),
        num_instructions=instructions,
        warmup_instructions=warmup,
        seed=seed,
        **kwargs,
    )


def _jobs():
    return [_job(name) for name in ("gzip", "mcf", "mst")]


class TestWireProtocol:
    def test_frame_roundtrip(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "job", "id": 3})
        write_frame(buffer, {"kind": "shutdown"})
        buffer.seek(0)
        assert read_frame(buffer) == {"kind": "job", "id": 3}
        assert read_frame(buffer) == {"kind": "shutdown"}
        assert read_frame(buffer) is None

    def test_payload_roundtrip(self):
        job = _job()
        assert decode_payload(encode_payload(job)) == job

    def test_torn_length_prefix_raises(self):
        buffer = io.BytesIO(b"\x00\x00")
        with pytest.raises(ProtocolError):
            read_frame(buffer)

    def test_torn_body_raises(self):
        buffer = io.BytesIO()
        write_frame(buffer, {"kind": "job", "id": 1})
        data = buffer.getvalue()
        with pytest.raises(ProtocolError):
            read_frame(io.BytesIO(data[:-3]))

    def test_non_json_body_raises(self):
        buffer = io.BytesIO(b"\x00\x00\x00\x04\xff\xfe\xfd\xfc")
        with pytest.raises(ProtocolError):
            read_frame(buffer)

    def test_non_object_body_raises(self):
        buffer = io.BytesIO(b"\x00\x00\x00\x02[]")
        with pytest.raises(ProtocolError):
            read_frame(buffer)

    def test_oversized_length_rejected(self):
        buffer = io.BytesIO(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError):
            read_frame(buffer)


def _drive_worker(*frames):
    """Feed ``frames`` to an in-process worker; return its response frames."""
    inp = io.BytesIO()
    for frame in frames:
        write_frame(inp, frame)
    inp.seek(0)
    out = io.BytesIO()
    code = serve(stdin=inp, stdout=out)
    out.seek(0)
    responses = []
    while True:
        frame = read_frame(out)
        if frame is None:
            return code, responses
        responses.append(frame)


class TestWorkerServe:
    def test_handshake_then_job_then_bye(self):
        job = _job(instructions=600, warmup=100)
        code, frames = _drive_worker(
            {"kind": "job", "id": 7, "job": encode_payload(job)},
            {"kind": "shutdown"},
        )
        assert code == 0
        ready, result, bye = frames
        assert ready["kind"] == "ready"
        assert ready["fingerprint"] == model_fingerprint()
        assert ready["schema"] == CACHE_SCHEMA_VERSION
        assert result["kind"] == "result" and result["id"] == 7
        assert pickle.dumps(decode_payload(result["result"])) == pickle.dumps(job.run())
        assert bye == {"kind": "bye", "executed": 1}

    def test_failing_job_yields_error_frame_and_worker_survives(self):
        bad = _job(instructions=200, warmup=0, kernel="bogus")
        good = _job(instructions=600, warmup=100)
        code, frames = _drive_worker(
            {"kind": "job", "id": 0, "job": encode_payload(bad)},
            {"kind": "job", "id": 1, "job": encode_payload(good)},
            {"kind": "shutdown"},
        )
        assert code == 0
        _, error, result, bye = frames
        assert error["kind"] == "error" and error["id"] == 0
        assert "bogus" in error["error"]
        assert "Traceback" in error["traceback"]
        assert result["kind"] == "result" and result["id"] == 1
        assert bye["executed"] == 1

    def test_unknown_frame_kind_yields_error_frame(self):
        code, frames = _drive_worker({"kind": "mystery"}, {"kind": "shutdown"})
        assert code == 0
        _, error, bye = frames
        assert error["kind"] == "error" and error["id"] is None
        assert "mystery" in error["error"]
        assert bye["executed"] == 0

    def test_engine_vanishing_exits_cleanly(self):
        code, frames = _drive_worker()  # EOF right after the handshake
        assert code == 0
        assert [frame["kind"] for frame in frames] == ["ready"]


class TestValidateReady:
    def test_matching_handshake_passes(self):
        validate_ready(worker_mod.ready_frame(), "hostA")

    def test_missing_or_wrong_kind_rejected(self):
        with pytest.raises(BackendError, match="no ready frame"):
            validate_ready(None, "hostA")
        with pytest.raises(BackendError, match="no ready frame"):
            validate_ready({"kind": "result"}, "hostA")

    def test_schema_skew_rejected(self):
        frame = dict(worker_mod.ready_frame(), schema=CACHE_SCHEMA_VERSION + 1)
        with pytest.raises(BackendError, match="cache schema"):
            validate_ready(frame, "hostA")

    def test_model_skew_rejected(self):
        frame = dict(worker_mod.ready_frame(), fingerprint="stale-checkout")
        with pytest.raises(BackendError, match="different model"):
            validate_ready(frame, "hostA")


class TestBackendSpecs:
    def test_parse_known_specs(self):
        assert isinstance(parse_backend_spec("serial"), SerialBackend)
        pool = parse_backend_spec("pool")
        assert isinstance(pool, ProcessPoolBackend) and pool.workers is None
        assert parse_backend_spec("pool:4").workers == 4
        ssh = parse_backend_spec("ssh:alpha, beta")
        assert isinstance(ssh, SSHBackend) and ssh.hosts == ("alpha", "beta")

    def test_malformed_specs_rejected(self):
        for spec in ("", "bogus", "pool:x", "pool:-1", "ssh:", "serial:2"):
            with pytest.raises(ValueError):
                parse_backend_spec(spec)

    def test_resolve_default_is_pool(self):
        assert isinstance(resolve_backend(None), ProcessPoolBackend)

    def test_resolve_env_default(self, monkeypatch, restore_backend_default):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert isinstance(resolve_backend(None), SerialBackend)

    def test_set_default_backend_wins_over_env(self, monkeypatch, restore_backend_default):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        set_default_backend("ssh:somewhere")
        assert isinstance(resolve_backend(None), SSHBackend)

    def test_set_default_backend_validates_eagerly(self, restore_backend_default):
        with pytest.raises(ValueError):
            set_default_backend("nope")

    def test_workers_param_overrides_pool(self):
        assert resolve_backend("pool", workers=6).workers == 6
        assert resolve_backend("pool:2", workers=6).workers == 6

    def test_workers_param_ignored_by_other_backends(self):
        assert isinstance(resolve_backend("serial", workers=6), SerialBackend)
        ssh = resolve_backend("ssh:h1", workers=6)
        assert isinstance(ssh, SSHBackend)

    def test_backend_instances_pass_through(self):
        backend = SerialBackend()
        assert resolve_backend(backend) is backend

    def test_ssh_needs_hosts(self):
        with pytest.raises(ValueError):
            SSHBackend(())


class TestWorkersFor:
    def test_serial_always_one(self):
        assert SerialBackend().workers_for(10) == 1

    def test_pool_caps_at_pending(self):
        assert ProcessPoolBackend(workers=8).workers_for(3) == 3
        assert ProcessPoolBackend(workers=1).workers_for(3) == 1

    def test_ssh_caps_at_hosts(self):
        backend = SSHBackend(("a", "b", "c"))
        assert backend.workers_for(2) == 2
        assert backend.workers_for(9) == 3


class TestBackendEquivalence:
    """The keystone: every backend produces byte-identical results."""

    def test_serial_pool_ssh_localhost_identical(self, fresh_cache):
        jobs = _jobs()
        serial = run_jobs(jobs, backend="serial", use_cache=False)
        pool = run_jobs(jobs, backend="pool:2", use_cache=False)
        ssh = run_jobs(jobs, backend="ssh:localhost", use_cache=False)
        assert [r.workload_name for r in serial] == ["gzip", "mcf", "mst"]
        for ser, par, remote in zip(serial, pool, ssh):
            assert pickle.dumps(ser) == pickle.dumps(par) == pickle.dumps(remote)

    def test_multi_host_loopback_sharding(self, fresh_cache):
        jobs = _jobs()
        serial = run_jobs(jobs, backend="serial", use_cache=False)
        sharded = run_jobs(jobs, backend="ssh:localhost,localhost", use_cache=False)
        for ser, remote in zip(serial, sharded):
            assert pickle.dumps(ser) == pickle.dumps(remote)

    def test_ssh_results_land_in_the_cache(self, fresh_cache):
        job = _job()
        run_jobs([job], backend="ssh:localhost")
        report = BatchReport()
        run_jobs([job], backend="serial", report=report)
        assert report.cache_hits == 1 and report.executed == 0


class TestFailurePropagation:
    def test_serial_raises_the_original_exception(self, fresh_cache):
        with pytest.raises(ValueError, match="bogus"):
            run_jobs([_job(kernel="bogus")], backend="serial", use_cache=False)

    def test_ssh_raises_remote_job_error_with_traceback(self, fresh_cache):
        with pytest.raises(RemoteJobError, match="bogus") as excinfo:
            run_jobs([_job(kernel="bogus")], backend="ssh:localhost", use_cache=False)
        assert excinfo.value.host == "localhost"
        assert "Traceback" in excinfo.value.remote_traceback

    def test_failed_batch_counts_in_telemetry(self, fresh_cache):
        reset_telemetry()
        with pytest.raises(ValueError):
            run_jobs([_job(kernel="bogus")], backend="serial", use_cache=False)
        tally = backend_tallies()["serial"]
        assert tally["failed"] == 1
        assert tally["executed"] == 0

    def test_unreachable_worker_command_raises_backend_error(self, fresh_cache):
        backend = SSHBackend(("localhost",))
        backend._spawn = lambda host: (_ for _ in ()).throw(OSError("no such binary"))
        with pytest.raises(OSError, match="no such binary"):
            run_jobs([_job()], backend=backend, use_cache=False)


class TestShardAbortAndReaping:
    """A failed or abandoned SSH batch must stop work and reap workers."""

    def test_preset_abort_feeds_no_jobs(self):
        """Deterministic core of the early-stop fix: a shard whose abort
        event is already set hands its worker zero jobs and shuts it
        down cleanly -- no result, no error, just done."""
        backend = SSHBackend(("localhost",))
        out_queue: "queue.Queue" = queue.Queue()
        abort = threading.Event()
        abort.set()
        procs = {}
        backend._serve_shard(
            "localhost", [(0, _job().with_stamped_defaults())], out_queue, abort, procs
        )
        kinds = []
        while not out_queue.empty():
            kinds.append(out_queue.get()[0])
        assert kinds == ["done"]
        # The worker was spawned, registered, and has already exited.
        assert procs["localhost"].poll() is not None

    def test_two_host_batch_stops_early_on_first_failure(
        self, fresh_cache, monkeypatch
    ):
        """Regression for the shard-failure hang: when one host's job
        fails instantly, the healthy host must not burn through its
        whole shard before the batch raises."""
        from repro.exec import backends as backends_mod

        sent = []
        real_write = backends_mod.write_frame

        def counting_write(stream, frame):
            if frame.get("kind") == "job":
                sent.append(frame["id"])
            real_write(stream, frame)

        monkeypatch.setattr(backends_mod, "write_frame", counting_write)
        # Index 0 (first host's shard) fails at kernel resolution --
        # effectively instantly; the odd indices (second host's shard)
        # are slow enough that the abort lands before the shard drains.
        jobs = [_job(kernel="bogus")] + [
            _job(instructions=40_000, warmup=0, seed=seed) for seed in range(1, 9)
        ]
        with pytest.raises(RemoteJobError, match="bogus"):
            run_jobs(jobs, backend="ssh:localhost,localhost", use_cache=False)
        assert 0 in sent
        assert len(sent) < len(jobs)

    def test_abandoned_batch_reaps_worker_processes(self, fresh_cache):
        """Regression for the worker leak: a consumer that stops
        iterating mid-batch must leave no live worker subprocesses."""
        backend = SSHBackend(("localhost", "localhost"))
        spawned = []
        real_spawn = backend._spawn

        def tracking_spawn(host):
            proc = real_spawn(host)
            spawned.append(proc)
            return proc

        backend._spawn = tracking_spawn
        jobs = [
            _job(instructions=1_000, warmup=0, seed=seed).with_stamped_defaults()
            for seed in range(6)
        ]
        generator = backend.submit_batch(jobs)
        next(generator)  # take one result, then walk away
        generator.close()
        assert spawned
        assert all(proc.poll() is not None for proc in spawned)


class TestTelemetry:
    def test_warm_and_executed_batches_tally_separately(self, fresh_cache):
        reset_telemetry()
        jobs = _jobs()
        run_jobs(jobs, backend="serial")
        run_jobs(jobs, backend="serial")
        tallies = backend_tallies()
        assert tallies["serial"]["executed"] == 3
        assert tallies["serial"]["cache_misses"] == 3
        assert tallies["(warm)"]["cache_hits"] == 3
        assert tallies["(warm)"]["executed"] == 0

    def test_lines_are_grep_friendly(self, fresh_cache):
        reset_telemetry()
        run_jobs([_job()], backend="serial")
        lines = telemetry_lines()
        assert any("backend serial:" in line and "executed=1" in line for line in lines)

    def test_report_mirrors_the_batch(self, fresh_cache):
        report = BatchReport()
        run_jobs(_jobs() + [_job()], backend="serial", report=report)
        assert report.submitted == 4
        assert report.unique == 3
        assert report.cache_misses == 3
        assert report.executed == 3
        assert report.failed == 0
        assert report.backend == "serial"
        warm = BatchReport()
        run_jobs([_job()], backend="serial", report=warm)
        assert warm.backend == ""  # no backend consulted
        assert warm.cache_hits == 1


class _InlineBackend:
    """Runs jobs in the submitting thread, reporting a chosen worker count."""

    name = "inline"

    def __init__(self, workers=1, barrier=None):
        self.workers = workers
        self.barrier = barrier

    def submit_batch(self, jobs):
        for index, job in enumerate(jobs):
            if self.barrier is not None:
                self.barrier.wait()
            result = run_job_observed(job)
            if self.barrier is not None:
                self.barrier.wait()
            yield index, result

    def workers_for(self, pending):
        return self.workers


class TestConcurrentBatches:
    def test_overlapping_batches_report_only_their_own_metrics(self, fresh_cache):
        """Two batches on two threads, held in lockstep by a barrier so
        each is open for the whole of the other's job -- what repro
        serve does when a batch window flushes while the previous batch
        still runs. Each batch must report its own time only."""
        reset_telemetry()
        backend = _InlineBackend(barrier=threading.Barrier(2, timeout=60))
        reports = [BatchReport(), BatchReport()]
        errors = []

        def run(report, seed):
            try:
                run_jobs([_job(seed=seed)], backend=backend, use_cache=False, report=report)
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        def process_stage_total():
            return sum(metrics.stage_seconds(metrics.registry().snapshot()).values())

        before = process_stage_total()
        threads = [
            threading.Thread(target=run, args=(report, seed))
            for report, seed in zip(reports, (11, 12))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        per_batch = sum(sum(report.stage_seconds.values()) for report in reports)
        assert per_batch > 0.0
        assert per_batch == pytest.approx(process_stage_total() - before, rel=1e-9)
        executed = sum(report.executed for report in reports)
        assert executed == 2
        timed = backend_metrics()["inline"]["histograms"][metrics.JOB_SECONDS]
        assert timed["count"] == executed
        assert backend_tallies()["inline"]["executed"] == executed

    def test_workers_used_is_the_max_over_batches(self, fresh_cache):
        reset_telemetry()
        for workers, seed in ((3, 1), (1, 2)):
            run_jobs([_job(seed=seed)], backend=_InlineBackend(workers), use_cache=False)
        tally = backend_tallies()["inline"]
        assert tally["workers_used"] == 3
        assert tally["executed"] == 2
        assert telemetry_lines()[0].endswith("executed=2 failed=0 workers=3")


class TestWorkerStamping:
    def test_ssh_jobs_carry_the_kernel_default(self, fresh_cache, monkeypatch):
        """Jobs left on the default kernel must ship the resolved value
        to remote workers (their processes don't share our state)."""
        from repro.cpu import kernel as kernel_mod

        monkeypatch.setattr(kernel_mod, "get_default_kernel", lambda: "walk")
        stamped = _job().with_stamped_defaults()
        assert stamped.kernel == "walk"
        # And the stamp does not change the cache identity.
        assert stamped.cache_key() == _job().cache_key()


class TestProtocolNegotiation:
    """Wire protocol v2: the hello/metrics relay and version skew."""

    def test_ready_frame_advertises_proto(self):
        assert worker_mod.ready_frame()["proto"] == worker_mod.PROTOCOL_VERSION

    def test_env_pins_legacy_proto(self, monkeypatch):
        monkeypatch.setenv(worker_mod.ENV_WORKER_PROTO, "1")
        assert "proto" not in worker_mod.ready_frame()
        assert worker_mod.protocol_version() == 1

    def test_env_garbage_ignored(self, monkeypatch):
        monkeypatch.setenv(worker_mod.ENV_WORKER_PROTO, "banana")
        assert worker_mod.protocol_version() == worker_mod.PROTOCOL_VERSION

    def test_validate_ready_returns_advertised_proto(self):
        frame = worker_mod.ready_frame()
        assert validate_ready(frame, "h") == worker_mod.PROTOCOL_VERSION
        del frame["proto"]
        assert validate_ready(frame, "h") == 1
        frame["proto"] = "weird"
        assert validate_ready(frame, "h") == 1

    def test_hello_negotiates_metrics_frames(self):
        from repro.obs import tracer

        job = _job(instructions=600, warmup=100)
        try:
            code, frames = _drive_worker(
                {"kind": "hello", "proto": 2, "metrics": True, "trace": True},
                {"kind": "job", "id": 4, "job": encode_payload(job)},
                {"kind": "shutdown"},
            )
        finally:
            # serve() enabled tracing in-process per the hello.
            tracer.configure(None)
            tracer.reset()
        assert code == 0
        kinds = [f["kind"] for f in frames]
        assert kinds == ["ready", "result", "metrics", "bye"]
        relay = frames[2]
        assert relay["id"] == 4
        # The delta carries the worker's per-job latency histogram and
        # stage counters -- the payload that closes the SSH telemetry gap.
        assert relay["metrics"]["histograms"]["job_seconds"]["count"] == 1
        assert any(
            name.startswith("stage_seconds.")
            for name in relay["metrics"]["counters"]
        )
        assert any(s.get("name") == "worker.job" for s in relay["spans"])

    def test_hello_without_trace_relays_no_spans(self):
        job = _job(instructions=600, warmup=100)
        code, frames = _drive_worker(
            {"kind": "hello", "proto": 2, "metrics": True, "trace": False},
            {"kind": "job", "id": 0, "job": encode_payload(job)},
            {"kind": "shutdown"},
        )
        relay = [f for f in frames if f["kind"] == "metrics"][0]
        assert relay["spans"] == []

    def test_no_hello_means_no_metrics_frames(self):
        job = _job(instructions=600, warmup=100)
        code, frames = _drive_worker(
            {"kind": "job", "id": 0, "job": encode_payload(job)},
            {"kind": "shutdown"},
        )
        assert [f["kind"] for f in frames] == ["ready", "result", "bye"]

    def test_legacy_worker_treats_hello_as_unknown_frame(self, monkeypatch):
        monkeypatch.setenv(worker_mod.ENV_WORKER_PROTO, "1")
        code, frames = _drive_worker(
            {"kind": "hello", "proto": 2, "metrics": True},
            {"kind": "shutdown"},
        )
        # Exactly why the engine never sends hello to a v1 worker: the
        # reply would be an error frame in place of a result.
        assert [f["kind"] for f in frames] == ["ready", "error", "bye"]

    def test_legacy_worker_batch_degrades_gracefully(
        self, fresh_cache, monkeypatch
    ):
        """Version skew end-to-end: an old-proto worker still executes
        the batch correctly; the coordinator just gets no telemetry."""
        monkeypatch.setenv(worker_mod.ENV_WORKER_PROTO, "1")
        reset_telemetry()
        report = BatchReport()
        results = run_jobs(
            _jobs(), backend="ssh:localhost", use_cache=False, report=report
        )
        assert [r.workload_name for r in results] == ["gzip", "mcf", "mst"]
        assert report.executed == 3
        assert report.stage_seconds == {}  # nothing relayed
        assert report.latency_quantiles == {}


class TestObservabilityRelay:
    """v2 workers relay stage seconds, latency, and spans end-to-end."""

    def test_ssh_stage_report_matches_serial_shape(self, fresh_cache):
        """The closed SSH telemetry gap: --verbose stage seconds after an
        ssh:localhost run have the same shape as after a serial run."""
        reset_telemetry()
        serial_report = BatchReport()
        run_jobs(_jobs(), backend="serial", use_cache=False, report=serial_report)
        serial_stages = set(serial_report.stage_seconds)
        assert serial_stages  # serial measures inline

        ssh_report = BatchReport()
        run_jobs(_jobs(), backend="ssh:localhost", use_cache=False, report=ssh_report)
        assert set(ssh_report.stage_seconds) == serial_stages
        assert all(v > 0 for v in ssh_report.stage_seconds.values())
        # And the --verbose lines render both the same way.
        lines = telemetry_lines()
        assert any(line.startswith("[repro] stages serial:") for line in lines)
        assert any(line.startswith("[repro] stages ssh:") for line in lines)

    def test_ssh_batch_reports_latency_quantiles(self, fresh_cache):
        report = BatchReport()
        run_jobs(_jobs(), backend="ssh:localhost", use_cache=False, report=report)
        assert set(report.latency_quantiles) == {"p50", "p90", "p99"}
        assert 0 < report.latency_quantiles["p50"] <= report.latency_quantiles["p99"]

    def test_serial_batch_reports_latency_quantiles(self, fresh_cache):
        report = BatchReport()
        run_jobs(_jobs(), backend="serial", use_cache=False, report=report)
        assert report.latency_quantiles["p50"] > 0

    def test_pool_workers_relay_metrics(self, fresh_cache):
        report = BatchReport()
        run_jobs(_jobs(), backend="pool:2", use_cache=False, report=report)
        assert report.stage_seconds  # relayed from pool workers
        assert report.latency_quantiles["p50"] > 0

    def test_warm_batch_has_no_latency(self, fresh_cache):
        run_jobs([_job()], backend="serial")
        report = BatchReport()
        run_jobs([_job()], backend="serial", report=report)
        assert report.cache_hits == 1
        assert report.latency_quantiles == {}

    def test_ssh_relays_worker_spans_when_tracing(self, fresh_cache):
        import os

        from repro.obs import tracer

        tracer.reset()
        tracer.enable(True)
        try:
            run_jobs(_jobs(), backend="ssh:localhost", use_cache=False)
            events = tracer.events()
        finally:
            tracer.configure(None)
            tracer.reset()
        worker_spans = [e for e in events if e["name"] == "worker.job"]
        assert len(worker_spans) == 3
        # The spans really came from the worker process.
        assert all(e["pid"] != os.getpid() for e in worker_spans)
        # Coordinator-side spans share the same merged buffer.
        assert any(e["name"] == "engine.run_jobs" for e in events)
        assert any(e["name"] == "backend.submit" for e in events)

    def test_no_span_collection_when_disabled(self, fresh_cache):
        from repro.obs import tracer

        tracer.reset()
        run_jobs(_jobs(), backend="ssh:localhost", use_cache=False)
        assert tracer.events() == []
