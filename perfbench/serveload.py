"""Seeded overlapping request mix and closed-loop driver for ``repro serve``.

The mix is built only from the benchmark's seed; the service receives
the generated payloads and nothing else. Of every 240 requests:

* 144 (60%) ``simulate`` (10k instructions) over 45 distinct
  (benchmark, seed) pairs, five seeds per benchmark, repeated with
  Zipf-like multiplicities, so repeats take the warm path or coalesce;
* 60 (25%) quick ``sweep`` with a varying two-point ``p_grid``: every
  one needs the same nine simulations, so sweeps overlap without
  sharing a request key;
* 36 (15%) quick ``perf`` over two benchmarks at one wakeup latency
  (closed-loop simulations): nine distinct requests over a ring of the
  nine benchmarks with alternating latencies, four times each.

The seed picks the simulation seeds, the benchmark ring, the grids and
the order; the multiplicities and the ring's shape are fixed, so every
seed asks for the same number of distinct simulations. :func:`drive` sends the payloads
from a fixed number of client threads, each sending its next request
only after the previous one's stream ended (a closed loop), and
timestamps every streamed event.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

BENCHMARKS = ("gcc", "gzip", "health", "mcf", "mst", "parser", "twolf", "vortex", "vpr")
REQUESTS = 240
SIM_INSTRUCTIONS = 10_000
SIM_SEEDS_PER_BENCHMARK = 5
SIMULATE_REQUESTS = 144
SWEEP_REQUESTS = 60
PERF_REPEATS = 4
ZIPF_EXPONENT = 1.1
P_VALUES = ("0.05", "0.1", "0.2", "0.3", "0.5", "0.7", "0.9")
PERF_LATENCIES = (1, 4)

#: Events that tell which path the service took for a request.
PATH_EVENTS = ("warm", "scheduled", "coalesced")


def zipf_multiplicities(distinct: int, total: int) -> List[int]:
    """``distinct`` counts, each >= 1, summing to ``total``, ~ 1/rank^s."""
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(distinct)]
    spare = total - distinct
    counts = [1 + int(spare * w / sum(weights)) for w in weights]
    for rank in range(total - sum(counts)):
        counts[rank] += 1
    return counts


def build_mix(seed: int) -> List[Dict[str, Any]]:
    """The :data:`REQUESTS` payloads, deterministic in ``seed``."""
    rng = random.Random(seed)
    pairs = [
        (name, sim_seed)
        for name in BENCHMARKS
        for sim_seed in rng.sample(range(1, 1000), SIM_SEEDS_PER_BENCHMARK)
    ]
    rng.shuffle(pairs)
    payloads = []
    for (name, sim_seed), count in zip(pairs, zipf_multiplicities(len(pairs), SIMULATE_REQUESTS)):
        payloads += [{
            "kind": "simulate",
            "params": {"benchmark": name, "instructions": SIM_INSTRUCTIONS, "seed": sim_seed},
        }] * count
    for _ in range(SWEEP_REQUESTS):
        grid = sorted(rng.sample(P_VALUES, 2), key=float)
        payloads.append({"kind": "sweep", "quick": True, "params": {"p_grid": ",".join(grid)}})
    ring = rng.sample(BENCHMARKS, len(BENCHMARKS))
    for index, (first, second) in enumerate(zip(ring, ring[1:] + ring[:1])):
        latency = PERF_LATENCIES[index % len(PERF_LATENCIES)]
        payloads += [{
            "kind": "perf",
            "quick": True,
            "params": {"benchmarks": [first, second], "wakeup_latencies": [latency]},
        }] * PERF_REPEATS
    rng.shuffle(payloads)
    return payloads


@dataclass
class RequestRecord:
    """One request's outcome and the perf_counter time of each event."""

    payload: Dict[str, Any]
    sent: float
    events: Dict[str, float] = field(default_factory=dict)
    path: str = ""
    text: Optional[str] = None
    executed: int = 0
    error: Optional[str] = None

    @property
    def done(self) -> Optional[float]:
        return self.events.get("result", self.events.get("error"))

    @property
    def latency(self) -> Optional[float]:
        return None if self.done is None else self.done - self.sent


def send(host: str, port: int, payload: Dict[str, Any], timeout: float) -> RequestRecord:
    """POST one payload and consume its ndjson event stream."""
    body = json.dumps(payload).encode()
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    record = RequestRecord(payload=payload, sent=time.perf_counter())
    try:
        connection.request(
            "POST", "/v1/run", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        if response.status != 200:
            record.error = f"HTTP {response.status}: {response.read()[:200]!r}"
            record.events["error"] = time.perf_counter()
            return record
        for raw in response:
            stamp = time.perf_counter()
            line = raw.strip()
            if not line:
                continue
            event = json.loads(line)
            name = event.get("event", "")
            record.events.setdefault(name, stamp)
            if name in PATH_EVENTS:
                record.path = name
            elif name == "result":
                record.text = event.get("text")
                record.executed = int(event.get("executed", 0))
            elif name == "error":
                record.error = str(event.get("error"))
        if record.done is None:
            record.error = "stream ended without a result"
            record.events["error"] = time.perf_counter()
    except (OSError, http.client.HTTPException, ValueError) as error:
        record.error = f"{type(error).__name__}: {error}"
        record.events.setdefault("error", time.perf_counter())
    finally:
        connection.close()
    return record


def drive(
    host: str, port: int, payloads: List[Dict[str, Any]], clients: int, timeout: float
) -> List[RequestRecord]:
    """Send every payload in order from ``clients`` closed-loop threads."""
    records: List[Optional[RequestRecord]] = [None] * len(payloads)
    cursor = itertools.count()
    lock = threading.Lock()

    def client() -> None:
        while True:
            with lock:
                index = next(cursor)
            if index >= len(payloads):
                return
            records[index] = send(host, port, payloads[index], timeout)

    threads = [threading.Thread(target=client, daemon=True) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    if any(thread.is_alive() for thread in threads):
        raise TimeoutError("serve load clients did not finish in time")
    return [record for record in records if record is not None]


def fetch_metrics(host: str, port: int, timeout: float = 30.0) -> Dict[str, Any]:
    """The service's ``/v1/metrics`` registry snapshot."""
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        connection.request("GET", "/v1/metrics")
        return json.loads(connection.getresponse().read()).get("metrics", {})
    finally:
        connection.close()
