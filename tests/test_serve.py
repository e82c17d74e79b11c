"""The evaluation service: schema, coalescing, batching, and the client.

The acceptance bars: serve responses are byte-identical to the direct
CLI; N concurrent identical requests execute each unique simulation
exactly once (the coalescer); requests overlapping a running fold run
no simulation twice (the batcher); a repeat of a completed request
answers entirely from the caches with ``executed=0`` (the warm path).
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
from repro.exec import backends, cache
from repro.exec.engine import clear_memo
from repro.serve import client as serve_client
from repro.serve import service as service_mod
from repro.serve.schema import (
    RequestError,
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


@pytest.fixture
def serve_url(fresh_cache):
    """A live service on a fresh cache; yields its base URL."""
    service = EvaluationService(port=0)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=30)
    yield f"http://127.0.0.1:{service.port}"
    asyncio.run_coroutine_threadsafe(service.aclose(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    loop.close()


class _Gate:
    """Stands in for ``repro.exec.backends.run_job_observed``: counts the
    simulations run, holds the first until :attr:`release` is set, and
    fails any job whose seed is :attr:`fail_seed`."""

    def __init__(self, run):
        self._run = run
        self._lock = threading.Lock()
        self.calls = 0
        self.fail_seed = None
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, job):
        with self._lock:
            self.calls += 1
            first = self.calls == 1
        if first:
            self.entered.set()
            assert self.release.wait(timeout=60)
        if job.seed == self.fail_seed:
            raise RuntimeError("injected simulation failure")
        return self._run(job)


@pytest.fixture
def gate(monkeypatch):
    """Hold the first fold mid-run; released at teardown in any case."""
    held = _Gate(backends.run_job_observed)
    monkeypatch.setattr(backends, "run_job_observed", held)
    yield held
    held.release.set()


class _Call:
    """One ``run_remote`` on its own thread; ``scheduled`` fires with that event."""

    def __init__(self, url, payload):
        self.scheduled = threading.Event()
        self.result = self.error = None
        self._thread = threading.Thread(
            target=self._run, args=(url, payload), daemon=True
        )
        self._thread.start()

    def _run(self, url, payload):
        def on_event(event):
            if event["event"] == "scheduled":
                self.scheduled.set()

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
            _simulate(fus=0),
        ],
        ids=[
            "sweep-policy", "robustness-policy", "sweep-alpha", "sweep-benchmark",
            "robustness-family", "robustness-count", "robustness-window",
            "perf-policy", "simulate-fus",
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
            "timed": 2,
            "batches": 1,
            "jobs": 1,
        }


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


class TestBoundedMemoUnderServe:
    def test_distinct_request_stream_stays_bounded(self, serve_url, monkeypatch):
        """A long-lived service answering ever-new requests keeps at most
        MEMO_ENTRIES results in memory; an evicted one is still a warm
        store read, never a re-simulation."""
        from repro.exec import engine

        monkeypatch.setattr(engine, "MEMO_ENTRIES", 3)

        def evictions():
            counters = serve_client.metrics_snapshot(serve_url)["metrics"]["counters"]
            return counters.get("cache.memo_evictions", 0.0)

        before = evictions()
        for seed in range(1, 9):
            result = serve_client.run_remote(serve_url, _simulate(seed=seed))
            assert result["executed"] == 1
        assert evictions() - before == 5
        again = serve_client.run_remote(serve_url, _simulate(seed=1))
        assert again["warm"] is True
        assert again["executed"] == 0
