"""The evaluation service: schema, coalescing, batching, and the client.

The acceptance bars: serve responses are byte-identical to the direct
CLI; N concurrent identical requests execute each unique simulation
exactly once (the coalescer); a repeat of a completed request answers
entirely from the caches with ``executed=0`` (the warm path).
"""

import asyncio
import io
import contextlib
import threading

import pytest

from repro import cli
from repro.cpu.simulator import clear_simulation_cache
from repro.exec import cache
from repro.serve import client as serve_client
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
    clear_simulation_cache()
    yield store
    clear_simulation_cache()


@pytest.fixture
def serve_url(fresh_cache):
    """A live service on a fresh cache; yields its base URL."""
    service = EvaluationService(port=0, batch_window=0.01)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=30)
    yield f"http://127.0.0.1:{service.port}"
    asyncio.run_coroutine_threadsafe(service.aclose(), loop).result(timeout=30)
    loop.call_soon_threadsafe(loop.stop)
    thread.join(timeout=30)
    loop.close()


def _simulate(benchmark="gzip", instructions=1500, **extra):
    params = {"benchmark": benchmark, "instructions": instructions, **extra}
    return {"kind": "simulate", "params": params}


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

    def test_unreachable_server_raises(self):
        with pytest.raises(serve_client.ServeClientError, match="cannot reach"):
            serve_client.health("http://127.0.0.1:9", timeout=2.0)


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

    def test_batch_window_folds_distinct_requests(self, fresh_cache):
        """Two different requests landing inside one batching window are
        submitted to the engine as a single folded batch."""
        service = EvaluationService(port=0, batch_window=0.5)
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        asyncio.run_coroutine_threadsafe(service.start(), loop).result(timeout=30)
        url = f"http://127.0.0.1:{service.port}"
        try:
            payloads = [_simulate("gzip", seed=3), _simulate("mst", seed=4)]
            results = [None, None]

            def hit(i):
                results[i] = serve_client.run_remote(url, payloads[i])

            threads = [threading.Thread(target=hit, args=(i,)) for i in (0, 1)]
            for worker in threads:
                worker.start()
            for worker in threads:
                worker.join(timeout=120)
            assert all(result is not None for result in results)
            # Both saw the same folded submission of 2 unique jobs.
            assert {result["report"]["unique"] for result in results} == {2}
            assert sum(result["executed"] for result in results) == 2
        finally:
            asyncio.run_coroutine_threadsafe(service.aclose(), loop).result(
                timeout=30
            )
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30)
            loop.close()

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
