"""The evaluation service: schema, coalescing, batching, and the client.

The acceptance bars: serve responses are byte-identical to the direct
CLI; N concurrent identical requests execute each unique simulation
exactly once (the coalescer); requests overlapping a running fold run
no simulation twice (the batcher); a repeat of a completed request
answers from the kept text with ``executed=0`` and no render (the
leader map), and a new request over cached simulations renders from
the caches with ``executed=0`` (the warm path).
"""

import asyncio
import io
import contextlib
import json
import socket
import threading
import time
import urllib.parse

import pytest

from repro import cli
from repro.cpu import kernel
from repro.cpu.config import MachineConfig
from repro.exec import cache, worker
from repro.exec.backends import set_default_backend
from repro.exec.engine import clear_memo
from repro.serve import client as serve_client
from repro.serve import service as service_mod
from repro.serve.schema import (
    RequestError,
    ServeRequest,
    build_request,
    payload_from_args,
)
from repro.serve.service import EvaluationService


@pytest.fixture
def fresh_cache(tmp_path, preserve_cache_config):
    """An empty persistent cache and memo; restores the previous config."""
    store = cache.configure(cache_dir=tmp_path / "serve-cache")
    clear_memo()
    yield store
    clear_memo()


class _LiveService:
    """An :class:`EvaluationService` running on its own event-loop thread."""

    def __init__(self):
        self.service = EvaluationService(port=0)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)
        self._thread.start()
        self._on_loop(self.service.start())
        self.url = f"http://127.0.0.1:{self.service.port}"

    def _on_loop(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout=30)

    def leaders(self):
        """``(kept, running)``: the finished leaders' texts by request key,
        and the keys whose leaders still run, read on the loop."""

        async def read():
            tasks = self.service._leaders.items()
            kept = {key: task.result()[1]["text"] for key, task in tasks if task.done()}
            return kept, {key for key, task in tasks if not task.done()}

        return self._on_loop(read())

    def close(self):
        self._on_loop(self.service.aclose())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()


@pytest.fixture
def live_service(fresh_cache):
    """A live service on a fresh cache."""
    live = _LiveService()
    yield live
    live.close()


@pytest.fixture
def serve_url(live_service):
    """The base URL of a live service on a fresh cache."""
    return live_service.url


class _Gate:
    """Stands in for ``repro.exec.worker.run_job_observed``, through which
    every in-process trace group runs its jobs: counts the simulations
    run, holds the :attr:`hold_call`-th (the first, unless set) until
    :attr:`release` is set, and fails any job whose seed is
    :attr:`fail_seed`."""

    def __init__(self, run):
        self._run = run
        self._lock = threading.Lock()
        self.calls = 0
        self.hold_call = 1
        self.fail_seed = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, job, chunks=None):
        with self._lock:
            self.calls += 1
            held = self.calls == self.hold_call
        if held:
            self.entered.set()
            assert self.release.wait(timeout=60)
        if job.seed == self.fail_seed:
            raise RuntimeError("injected simulation failure")
        return self._run(job, chunks)


@pytest.fixture
def gate(monkeypatch, restore_backend_default):
    """Hold the first fold mid-run; released at teardown in any case.

    The gate replaces a function of this process, so folds run on the
    serial backend: the pool would send a batch that runs the walk (no
    C compiler) to worker processes, out of the gate's reach.
    """
    set_default_backend("serial")
    held = _Gate(worker.run_job_observed)
    monkeypatch.setattr(worker, "run_job_observed", held)
    yield held
    held.release.set()


class _Call:
    """One ``run_remote`` on its own thread; ``scheduled`` and ``coalesced``
    fire with those events."""

    def __init__(self, url, payload):
        self.scheduled = threading.Event()
        self.coalesced = threading.Event()
        self.result = self.error = None
        self._thread = threading.Thread(
            target=self._run, args=(url, payload), daemon=True
        )
        self._thread.start()

    def _run(self, url, payload):
        def on_event(event):
            if event["event"] == "scheduled":
                self.scheduled.set()
            elif event["event"] == "coalesced":
                self.coalesced.set()

        try:
            self.result = serve_client.run_remote(url, payload, on_event=on_event)
        except serve_client.ServeClientError as error:
            self.error = error

    def join(self):
        self._thread.join(timeout=120)
        assert not self._thread.is_alive()
        return self


def _simulate(benchmark="gzip", instructions=1500, **extra):
    params = {"benchmark": benchmark, "instructions": instructions, **extra}
    return {"kind": "simulate", "params": params}


def _sweep(**params):
    return {"kind": "sweep", "quick": True, "params": params}


def _exchange(url, data):
    """Send raw bytes to the service; return all it answers before closing."""
    parsed = urllib.parse.urlsplit(url)
    with socket.create_connection((parsed.hostname, parsed.port), timeout=5) as sock:
        sock.sendall(data)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def _counters(url):
    return serve_client.metrics_snapshot(url)["metrics"]["counters"]


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class TestSchema:
    def test_unknown_kind_rejected(self):
        with pytest.raises(RequestError, match="unknown kind"):
            build_request({"kind": "mystery"})
        with pytest.raises(RequestError, match="JSON object"):
            build_request(["not", "an", "object"])

    def test_simulate_requires_benchmark_and_instructions(self):
        with pytest.raises(RequestError, match="benchmark"):
            build_request({"kind": "simulate", "params": {"instructions": 100}})
        with pytest.raises(RequestError, match="instructions"):
            build_request({"kind": "simulate", "params": {"benchmark": "gzip"}})

    def test_equivalent_payloads_share_a_key(self):
        csv = build_request(
            {"kind": "sweep", "params": {"policies": "MaxSleep,AlwaysActive"}}
        )
        listed = build_request(
            {"kind": "sweep", "params": {"policies": ["MaxSleep", "AlwaysActive"]}}
        )
        defaulted = build_request({"kind": "sweep", "params": {}})
        assert csv.key == listed.key
        assert csv.key != defaulted.key

    def test_key_distinguishes_scale_and_params(self):
        quick = build_request({"kind": "sweep", "quick": True})
        full = build_request({"kind": "sweep", "quick": False})
        assert quick.key != full.key
        a = build_request(_simulate(seed=1))
        b = build_request(_simulate(seed=2))
        assert a.key != b.key

    def test_grid_specs_normalize_like_the_cli(self):
        from repro.experiments import sweep

        request = build_request(
            {"kind": "sweep", "params": {"p_grid": "0.05,0.5"}}
        )
        assert tuple(request.params["p_values"]) == sweep.parse_grid("0.05,0.5")
        assert tuple(request.params["alphas"]) == sweep.DEFAULT_ALPHA_GRID

    def test_jobs_enumerate_per_kind(self):
        simulate = build_request(_simulate())
        assert len(simulate.jobs()) == 1
        sweep_request = build_request(
            {"kind": "sweep", "quick": True, "params": {"benchmarks": "gzip,mcf"}}
        )
        assert len(sweep_request.jobs()) == 2

    def test_payload_from_args_ships_raw_values(self):
        parser = cli.build_parser()
        args = parser.parse_args(["sweep", "--quick", "--policies", "MaxSleep"])
        payload = payload_from_args("sweep", args)
        from repro.experiments import sweep

        assert payload == {
            "kind": "sweep",
            "quick": True,
            "params": {
                "policies": "MaxSleep",
                "alpha_grid": sweep.DEFAULT_ALPHA_SPEC,
            },
        }
        # Normalization happens server-side, identically to the CLI path.
        assert build_request(payload).params["policies"] == ["MaxSleep"]

    @pytest.mark.parametrize(
        "payload, unknown",
        [
            # The grid outside ``params``: used to be dropped silently,
            # answering the default sweep.
            ({"kind": "sweep", "p_grid": "0.2,0.6"}, "request fields p_grid"),
            # A typo'd parameter name: same silent default.
            ({"kind": "sweep", "params": {"pgrid": "0.2,0.6"}}, "sweep params pgrid"),
            # "fu" for "fus": used to share the 4-FU request's key.
            (_simulate(fu=2), "simulate params fu"),
        ],
    )
    def test_unknown_fields_rejected(self, payload, unknown):
        with pytest.raises(RequestError, match=f"unknown {unknown};"):
            build_request(payload)

    def test_payload_from_args_rejects_unservable(self):
        parser = cli.build_parser()
        args = parser.parse_args(["table1"])
        with pytest.raises(RequestError):
            payload_from_args("table1", args)


class TestServiceLifecycle:
    def test_health_reports_fingerprint(self, serve_url):
        from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint

        document = serve_client.health(serve_url)
        assert document["ok"] is True
        assert document["fingerprint"] == model_fingerprint()
        assert document["schema"] == CACHE_SCHEMA_VERSION

    def test_metrics_endpoint_serves_registry_snapshot(self, serve_url):
        serve_client.run_remote(serve_url, _simulate())
        snapshot = serve_client.metrics_snapshot(serve_url)["metrics"]
        assert snapshot["counters"]["serve.requests"] >= 1.0
        assert "serve.request_seconds" in snapshot["histograms"]

    def test_unknown_route_is_404(self, serve_url):
        import http.client
        import urllib.parse

        parsed = urllib.parse.urlsplit(serve_url)
        connection = http.client.HTTPConnection(
            parsed.hostname, parsed.port, timeout=10
        )
        connection.request("GET", "/nope")
        response = connection.getresponse()
        assert response.status == 404
        connection.close()

    def test_malformed_payload_is_400(self, serve_url):
        with pytest.raises(serve_client.ServeClientError, match="unknown kind"):
            serve_client.run_remote(serve_url, {"kind": "mystery"})

    def test_unknown_param_is_400(self, serve_url):
        with pytest.raises(serve_client.ServeClientError, match="unknown simulate params fu"):
            serve_client.run_remote(serve_url, _simulate(fu=2))

    def test_unreachable_server_raises(self):
        with pytest.raises(serve_client.ServeClientError, match="cannot reach"):
            serve_client.health("http://127.0.0.1:9", timeout=2.0)

    @pytest.mark.parametrize(
        "payload",
        [
            _sweep(policies="Nope"),
            {"kind": "robustness", "quick": True,
             "params": {"policies": "Nope", "scenarios": 2}},
            _sweep(alpha_grid="2"),
            _sweep(benchmarks="nosuch"),
            {"kind": "robustness", "quick": True, "params": {"families": "nofam"}},
            {"kind": "robustness", "quick": True, "params": {"scenarios": 0}},
            {"kind": "robustness", "quick": True, "params": {"instructions": 10}},
            {"kind": "perf", "quick": True, "params": {"policies": "Nope"}},
            {"kind": "perf", "quick": True, "params": {"wakeup_latencies": []}},
            {"kind": "perf", "quick": True,
             "params": {"policies": "MaxSleep,MaxSleep", "benchmarks": "gzip"}},
            _simulate(fus=0),
            _sweep(p_grid="0.5,0.5"),
            _sweep(alpha_grid="0.5,0.5"),
            {"kind": "perf", "quick": True,
             "params": {"p_grid": "0.5,0.5", "benchmarks": "gzip"}},
        ],
        ids=[
            "sweep-policy", "robustness-policy", "sweep-alpha", "sweep-benchmark",
            "robustness-family", "robustness-count", "robustness-window",
            "perf-policy", "perf-no-latencies", "perf-duplicate-policy", "simulate-fus",
            "sweep-duplicate-p", "sweep-duplicate-alpha", "perf-duplicate-p",
        ],
    )
    def test_invalid_value_is_400_before_any_simulation(self, serve_url, gate, payload):
        """A value the experiment would refuse is refused up front: a 400
        that counts as a serve error, never a 200 with an ``error`` event
        after simulating, nor a closed connection."""
        gate.release.set()  # a simulation, if one ran, must not block

        def errors():
            counters = serve_client.metrics_snapshot(serve_url)["metrics"]["counters"]
            return counters.get("serve.errors", 0.0)

        before = errors()
        body = json.dumps(payload).encode()
        answer = _exchange(
            serve_url,
            b"POST /v1/run HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body,
        )
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b'"error"' in answer
        assert gate.calls == 0
        assert errors() - before == 1


class TestRequestHeads:
    @pytest.mark.parametrize(
        "sent",
        [
            b"POST /v1/run HTTP/1.1\r\n",
            b"POST /v1/run HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
        ],
        ids=["stalled-head", "short-body"],
    )
    def test_stalled_client_gets_408(self, serve_url, monkeypatch, sent):
        """A client that stops mid-request is answered and dropped once
        the read deadline passes, instead of holding its connection."""
        monkeypatch.setattr(service_mod, "READ_TIMEOUT_S", 0.2)
        started = time.monotonic()
        answer = _exchange(serve_url, sent)
        assert answer.startswith(b"HTTP/1.1 408 ")
        assert time.monotonic() - started < 3.0

    @pytest.mark.parametrize(
        "head, status",
        [
            ("POST /v1/run HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            ("POST /v1/run HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (
                "POST /v1/run HTTP/1.1\r\n"
                f"Content-Length: {service_mod._MAX_BODY_BYTES + 1}\r\n\r\n",
                413,
            ),
            ("POST /v1/run\r\n\r\n", 400),
        ],
        ids=["negative-length", "non-numeric-length", "oversized-body", "bad-request-line"],
    )
    def test_malformed_head_gets_a_status(self, serve_url, head, status):
        """A head the service refuses is answered with a status and an
        error document, never a silent close."""
        answer = _exchange(serve_url, head.encode())
        assert answer.startswith(f"HTTP/1.1 {status} ".encode())
        assert b'"error"' in answer


class TestExecutionSemantics:
    def test_cold_then_warm(self, serve_url):
        events = []
        first = serve_client.run_remote(
            serve_url, _simulate(), on_event=events.append
        )
        assert first["executed"] == 1
        assert first["warm"] is False
        assert [e["event"] for e in events] == ["accepted", "scheduled", "result"]
        second = serve_client.run_remote(serve_url, _simulate())
        assert second["executed"] == 0
        assert second["warm"] is True
        assert second["text"] == first["text"]

    def test_simulate_text_is_deterministic(self, serve_url):
        result = serve_client.run_remote(serve_url, _simulate(warmup=500))
        assert result["text"].startswith("simulate gzip: instructions=1500 ")
        assert "ipc=" in result["text"]

    def test_concurrent_duplicates_execute_unique_jobs_once(self, serve_url):
        """The coalescing acceptance bar: N identical concurrent
        requests -> one execution, sum(executed) == unique jobs."""
        payload = _simulate("mcf", instructions=60_000, warmup=0)
        results = [None] * 8

        def hit(i):
            results[i] = serve_client.run_remote(serve_url, payload)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(result is not None for result in results)
        assert sum(result["executed"] for result in results) == 1
        assert len({result["text"] for result in results}) == 1
        # At least one request rode the coalescer or the warm path.
        assert any(
            result.get("coalesced") or result["warm"] for result in results
        )

    def test_overlapping_requests_run_each_simulation_once(self, serve_url, gate):
        """A request needing the simulations of a fold that is still
        running waits for it instead of running them again: its own fold
        finds them cached and submits nothing."""
        # Both quick sweeps price the same 9 simulations.
        first = _Call(serve_url, _sweep(p_grid="0.1,0.5"))
        assert gate.entered.wait(timeout=60)
        second = _Call(serve_url, _sweep(p_grid="0.2,0.6"))
        assert second.scheduled.wait(timeout=60)
        time.sleep(0.5)
        gate.release.set()
        calls = [first.join(), second.join()]
        assert [call.error for call in calls] == [None, None]
        assert gate.calls == 9
        assert [call.result["executed"] for call in calls] == [9, 0]

    def test_arrivals_during_a_fold_share_the_next(self, serve_url, gate):
        """Distinct requests that queue while a fold runs are folded into
        one submission when it ends."""
        held = _Call(serve_url, _simulate(seed=2))
        assert gate.entered.wait(timeout=60)
        pair = [
            _Call(serve_url, _simulate("gzip", seed=3)),
            _Call(serve_url, _simulate("mst", seed=4)),
        ]
        for call in pair:
            assert call.scheduled.wait(timeout=60)
        time.sleep(0.2)
        gate.release.set()
        assert held.join().result["executed"] == 1
        results = [call.join().result for call in pair]
        assert {result["report"]["unique"] for result in results} == {2}
        assert sum(result["executed"] for result in results) == 2
        assert gate.calls == 3

    def test_failing_fold_answers_only_its_waiters(self, serve_url, gate):
        """A fold that raises answers its own requests with the error; the
        request queued behind it and later ones are served normally."""
        gate.fail_seed = 21
        failing = _Call(serve_url, _simulate(seed=21))
        assert gate.entered.wait(timeout=60)
        queued = _Call(serve_url, _simulate(seed=22))
        assert queued.scheduled.wait(timeout=60)
        time.sleep(0.2)
        gate.release.set()
        assert "injected simulation failure" in str(failing.join().error)
        assert queued.join().result["executed"] == 1
        later = serve_client.run_remote(serve_url, _simulate(seed=23))
        assert later["executed"] == 1
        assert gate.calls == 3

    def test_serve_metrics_accrue(self, serve_url):
        # /v1/metrics serves the process registry: the service counters
        # plus every batch scope folded in when its batch ended.
        def read():
            snap = serve_client.metrics_snapshot(serve_url)["metrics"]
            counters, histograms = snap["counters"], snap["histograms"]
            return {
                "requests": counters.get("serve.requests", 0.0),
                "warm_hits": counters.get("serve.warm_hits", 0.0),
                "renders": counters.get("serve.renders", 0.0),
                "timed": histograms.get("serve.request_seconds", {}).get("count", 0),
                "batches": histograms.get("serve.batch_jobs", {}).get("count", 0),
                "jobs": histograms.get("job_seconds", {}).get("count", 0),
            }

        before = read()
        serve_client.run_remote(serve_url, _simulate(seed=9))
        serve_client.run_remote(serve_url, _simulate(seed=9))
        after = read()
        assert {name: after[name] - before[name] for name in after} == {
            "requests": 2.0,
            "warm_hits": 1.0,
            "renders": 1.0,
            "timed": 2,
            "batches": 1,
            "jobs": 1,
        }


class TestLeaderMap:
    def test_repeat_answers_from_memory_without_rendering(self, serve_url, monkeypatch):
        """A repeat of a finished request gets the warm event and result a
        warm leader sends, with byte-identical text, and renders nothing."""
        rendered = []
        real_render = ServeRequest.render

        def counting_render(request):
            rendered.append(request.key)
            return real_render(request)

        monkeypatch.setattr(ServeRequest, "render", counting_render)
        cold = serve_client.run_remote(serve_url, _sweep(p_grid="0.1,0.5"))
        assert cold["executed"] == 9
        # Another key over the same, now cached, simulations: a warm leader.
        events = []
        warm = serve_client.run_remote(
            serve_url, _sweep(p_grid="0.2,0.6"), on_event=events.append
        )
        assert warm["warm"] is True and warm["executed"] == 0
        assert len(rendered) == 2
        repeat_events = []
        repeat = serve_client.run_remote(
            serve_url, _sweep(p_grid="0.2,0.6"), on_event=repeat_events.append
        )
        assert len(rendered) == 2
        assert repeat_events == events
        assert repeat == warm
        assert repeat["report"] == {"batch_jobs": 0, "jobs": 9, "executed": 0}
        again = serve_client.run_remote(serve_url, _sweep(p_grid="0.1,0.5"))
        assert len(rendered) == 2
        assert again["text"] == cold["text"]
        assert again["warm"] is True and again["executed"] == 0

    def test_failed_request_runs_again(self, serve_url, gate):
        """A leader that raised leaves the map: the identical payload
        executes again instead of replaying the failure."""
        gate.release.set()
        gate.fail_seed = 31
        with pytest.raises(serve_client.ServeClientError, match="injected simulation failure"):
            serve_client.run_remote(serve_url, _simulate(seed=31))
        gate.fail_seed = None
        again = serve_client.run_remote(serve_url, _simulate(seed=31))
        assert again["executed"] == 1 and again["warm"] is False
        assert gate.calls == 2

    def test_kept_answers_stay_within_the_budget(self, live_service, gate, monkeypatch):
        """Finished answers past the budget leave least recently used
        first; a leader still running is never evicted, so a duplicate
        still coalesces onto it."""
        entry = service_mod._ENTRY_BYTES
        budget = 5 * entry + 300  # about five ``simulate`` answers
        monkeypatch.setattr(service_mod, "ANSWER_BUDGET_BYTES", budget)
        url = live_service.url

        def kept_within_budget():
            kept, running = live_service.leaders()
            charged = sum(len(text) + entry for text in kept.values())
            assert charged == live_service.service._kept_bytes <= budget
            return kept, running

        gate.hold_call = 9  # the stream's eight simulations run; the ninth waits
        texts = {}
        for seed in range(1, 9):
            payload = _simulate(seed=seed)
            texts[build_request(payload).key] = serve_client.run_remote(url, payload)["text"]
            kept, _ = kept_within_budget()
            assert kept.items() <= texts.items()
        assert 0 < len(kept) < 8
        # The newest answers stay; the first requests were evicted.
        assert build_request(_simulate(seed=8)).key in kept
        assert build_request(_simulate(seed=1)).key not in kept

        held_payload = _simulate(seed=40)
        held = _Call(url, held_payload)
        assert gate.entered.wait(timeout=60)
        for seed in range(1, 9):
            # Same simulation, another request key: a warm leader whose
            # answer pushes older ones, never the running leader, out.
            result = serve_client.run_remote(
                url, _simulate(seed=seed, fus=MachineConfig().num_int_fus)
            )
            assert result["warm"] is True and result["executed"] == 0
            _, running = kept_within_budget()
            assert running == {build_request(held_payload).key}
        follower = _Call(url, held_payload)
        assert follower.coalesced.wait(timeout=60)
        gate.release.set()
        leader, follower = held.join().result, follower.join().result
        assert leader["executed"] == 1 and follower["executed"] == 0
        assert follower["coalesced"] is True and follower["text"] == leader["text"]
        kept, running = kept_within_budget()
        assert running == set()
        assert kept[build_request(held_payload).key] == leader["text"]


class TestThinClientCli:
    def test_sweep_output_byte_identical(self, serve_url, tmp_path):
        cache_dir = str(tmp_path / "cli-cache")
        code_remote, remote = _run_cli(
            ["sweep", "--quick", "--server", serve_url, "--cache-dir", cache_dir]
        )
        code_local, local = _run_cli(
            ["sweep", "--quick", "--cache-dir", cache_dir]
        )
        assert code_remote == code_local == 0
        assert remote == local

    @pytest.mark.parametrize(
        "argv, header",
        [
            (["perf", "--quick", "--benchmarks", "gzip"], "Closed-loop perf impact"),
            (["robustness", "--quick", "--scenarios", "2", "--scenario-seed", "3"],
             "Policy robustness: 2 scenarios"),
        ],
        ids=["perf", "robustness"],
    )
    def test_perf_and_robustness_output_byte_identical(
        self, serve_url, tmp_path, argv, header
    ):
        cache_dir = str(tmp_path / "cli-cache")
        code_remote, remote = _run_cli([*argv, "--server", serve_url, "--cache-dir", cache_dir])
        code_local, local = _run_cli([*argv, "--cache-dir", cache_dir])
        assert code_remote == code_local == 0
        assert remote == local
        assert remote.startswith(header)

    def test_server_flag_limited_to_servable_subcommands(self):
        with pytest.raises(SystemExit):
            cli.main(["table1", "--server", "http://localhost:1"])

    def test_server_flag_rejects_catalog(self):
        with pytest.raises(SystemExit):
            cli.main(
                [
                    "robustness",
                    "--server",
                    "http://localhost:1",
                    "--catalog",
                    "out.json",
                ]
            )

    def test_unreachable_server_fails_cleanly(self, capsys):
        code = _run_cli(["sweep", "--quick", "--server", "http://127.0.0.1:9"])[0]
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


def _kernel_runs(counters):
    return sum(
        counters.get(kernel.RUNS_PREFIX + name, 0.0)
        for name in (kernel.KERNEL_BATCH, kernel.KERNEL_WALK)
    )


class TestBoundedMemoUnderServe:
    def test_distinct_request_stream_stays_bounded(self, serve_url, monkeypatch):
        """A long-lived service answering ever-new requests keeps at most
        MEMO_ENTRIES results in memory; an evicted one is still a warm
        store read, never a re-simulation."""
        from repro.exec import engine

        monkeypatch.setattr(engine, "MEMO_ENTRIES", 3)
        before = _counters(serve_url)
        for seed in range(1, 9):
            result = serve_client.run_remote(serve_url, _simulate(seed=seed))
            assert result["executed"] == 1
        after = _counters(serve_url)
        assert after["cache.memo_evictions"] - before.get("cache.memo_evictions", 0.0) == 5
        # seed=1's result left the memo. Ask for the same simulation under
        # another request key (the default FU count given explicitly), so
        # the leader map cannot answer and the caches must.
        again = serve_client.run_remote(
            serve_url, _simulate(seed=1, fus=MachineConfig().num_int_fus)
        )
        assert again["warm"] is True
        assert again["executed"] == 0
        assert _kernel_runs(_counters(serve_url)) == _kernel_runs(after)

    def test_render_never_reruns_an_evicted_result(self, serve_url, monkeypatch):
        """With no store and a memo smaller than one request, the request's
        results stay pinned from its probe to its render: each simulation
        runs once, in the fold, and the memo trims back afterwards."""
        from repro.exec import engine

        monkeypatch.setattr(engine, "MEMO_ENTRIES", 4)
        cache.configure(enabled=False)
        before = serve_client.metrics_snapshot(serve_url)["metrics"]
        result = serve_client.run_remote(serve_url, _sweep(p_grid="0.1,0.5"))
        after = serve_client.metrics_snapshot(serve_url)["metrics"]
        assert result["executed"] == 9
        assert _kernel_runs(after["counters"]) - _kernel_runs(before["counters"]) == 9
        jobs_timed = [
            metrics["histograms"].get("job_seconds", {}).get("count", 0)
            for metrics in (before, after)
        ]
        assert jobs_timed[1] - jobs_timed[0] == 9
        assert len(engine._MEMO) == 4
