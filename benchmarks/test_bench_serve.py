"""Load test: hundreds of concurrent clients against ``repro serve``.

Drives a duplicate-heavy request mix (the workload the coalescer and
warm path exist for) through a live service instance and records the
measured p50/p99 request latency, throughput, and cache-hit rate into
the ``$REPRO_BENCH_JSON`` artifact. The functional assertions are
deliberately loose — latency belongs in the artifact, not in a flaky
gate — but deduplication is exact: the session's private store starts
without the unique simulations, each must execute exactly once no
matter how many clients ask for them, and each distinct request must
render once (``serve.renders``): every repeat follows its running
leader or answers from the leader map.
"""

import asyncio
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.exec.engine import lookup
from repro.serve import client as serve_client
from repro.serve.schema import build_request
from repro.serve.service import EvaluationService

#: Total concurrent client requests driven at the service.
TOTAL_REQUESTS = 200
#: Distinct request payloads within the mix (everything else duplicates).
UNIQUE_REQUESTS = 8
#: Client threads issuing requests concurrently.
CONCURRENCY = 32

#: Per-request simulation size: small enough to keep the bench to
#: seconds on a cold cache, large enough that requests overlap.
BENCH_INSTRUCTIONS = 20_000


@pytest.fixture(scope="module")
def serve_url():
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


def _payloads():
    """A shuffled duplicate-heavy mix: 8 unique requests, 200 total."""
    unique = [
        {
            "kind": "simulate",
            "params": {
                "benchmark": name,
                "instructions": BENCH_INSTRUCTIONS,
                "warmup": 0,
                "seed": seed,
            },
        }
        for seed, name in enumerate(
            ("gzip", "mcf", "mst", "gzip", "mcf", "mst", "gzip", "mcf"), start=1
        )
    ][:UNIQUE_REQUESTS]
    mix = [unique[i % UNIQUE_REQUESTS] for i in range(TOTAL_REQUESTS)]
    random.Random(7).shuffle(mix)
    return mix


def _renders(url):
    counters = serve_client.metrics_snapshot(url)["metrics"]["counters"]
    return counters.get("serve.renders", 0.0)


def _quantile(sorted_values, q):
    return sorted_values[int(q * (len(sorted_values) - 1))]


def test_bench_serve_load(serve_url, bench_record):
    assert serve_client.health(serve_url)["ok"] is True
    payloads = _payloads()
    keys = {
        job.cache_key()
        for payload in payloads
        for job in build_request(payload).jobs()
    }
    assert len(keys) == UNIQUE_REQUESTS
    assert all(lookup(key) is None for key in keys), "the bench store is not cold"
    latencies = [0.0] * len(payloads)
    results = [None] * len(payloads)
    renders_before = _renders(serve_url)

    def drive(index):
        started = time.perf_counter()
        results[index] = serve_client.run_remote(serve_url, payloads[index])
        latencies[index] = time.perf_counter() - started

    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=CONCURRENCY) as pool:
        list(pool.map(drive, range(len(payloads))))
    elapsed = time.perf_counter() - wall_start

    assert all(result is not None for result in results)
    # Exact deduplication: across 200 requests there are only 8 unique
    # simulations, all uncached at the start, and each executes once.
    executed_total = sum(result["executed"] for result in results)
    assert executed_total == UNIQUE_REQUESTS
    # Identical payloads must render identical text.
    by_payload = {}
    for payload, result in zip(payloads, results):
        by_payload.setdefault(id(payload), set()).add(result["text"])
    for texts in by_payload.values():
        assert len(texts) == 1

    ordered = sorted(latencies)
    hits = sum(1 for result in results if result["executed"] == 0)
    hit_rate = hits / len(results)
    assert hit_rate >= (len(results) - UNIQUE_REQUESTS) / len(results)

    # The process registry spans the session; the service is this module's.
    renders = int(_renders(serve_url) - renders_before)
    assert renders == UNIQUE_REQUESTS

    metrics = serve_client.metrics_snapshot(serve_url)["metrics"]
    counters = metrics["counters"]
    bench_record(
        "serve_load",
        ops_per_sec=len(results) / elapsed,
        clients=len(results),
        unique_requests=UNIQUE_REQUESTS,
        concurrency=CONCURRENCY,
        p50_latency_s=round(_quantile(ordered, 0.50), 6),
        p99_latency_s=round(_quantile(ordered, 0.99), 6),
        cache_hit_rate=round(hit_rate, 4),
        executed_total=executed_total,
        renders=renders,
        coalesce_hits=counters.get("serve.coalesce_hits", 0.0),
        warm_hits=counters.get("serve.warm_hits", 0.0),
    )
