"""Remote execution worker: length-prefixed JSON job frames over stdio.

``python -m repro.exec.worker`` turns any host that can import
:mod:`repro` into an execution slave for
:class:`repro.exec.backends.SSHBackend`. The engine launches one worker
per host (over SSH, or directly for the ``localhost`` loopback), feeds
it :class:`~repro.exec.jobs.SimulationJob` frames on stdin, and reads
result frames back from stdout. Workers never touch any cache layer —
deduplication and the result store live entirely on the submitting side.

Wire format (documented in ``docs/execution.md``): every frame is a
4-byte big-endian unsigned length followed by that many bytes of UTF-8
JSON. Job and result payloads travel as base64-encoded pickles inside
the JSON envelope (profiles and results are dataclass trees; pickle is
the one codec both sides already agree on, and the envelope keeps the
framing itself inspectable).

The conversation::

    worker > {"kind": "ready", "fingerprint": ..., "schema": ..., "proto": 2}
    engine > {"kind": "hello", "proto": 2, "metrics": true, "trace": false}
    engine > {"kind": "job", "id": 0, "job": <base64 pickle>}
    worker > {"kind": "result", "id": 0, "result": <base64 pickle>}
             ... or {"kind": "error", "id": 0, "error": ..., "traceback": ...}
    worker > {"kind": "metrics", "id": 0, "metrics": <snapshot>, "spans": [...]}
    engine > {"kind": "shutdown"}
    worker > {"kind": "bye", "executed": N}

The ``ready`` frame carries the worker's model fingerprint, cache schema
version and wire protocol version; the engine refuses to dispatch to a
worker that differs from it in any of them, so a stale checkout on one
fleet host can never publish wrong results under a current store key
nor desync the framing. The worker's own code is outside the model
fingerprint, which is why ``proto`` is checked separately.

The engine's ``hello`` switches on the observability relay: the worker
then follows every ``result`` frame with one ``metrics`` frame carrying
the snapshot of the job's own metrics scope
(:func:`repro.obs.metrics.scope`: exactly what that job recorded, in
the registry's ``{counters, gauges, histograms}`` shape) and — when the
hello asked for ``trace`` — its drained span buffer. Stage seconds ride
it as ``stage_seconds.*`` counters. A worker that gets no hello stays
silent about metrics.

stdout is reserved for frames; simulation warnings go to stderr as
usual. A malformed or unknown frame produces an ``error`` frame (with
``id: null`` when no job id is known) rather than killing the worker.
"""

from __future__ import annotations

import base64
import json
import pickle
import struct
import sys
import time
import traceback
from typing import BinaryIO, Iterator, Optional, Sequence

from repro.cpu.simulator import TRACES
from repro.cpu.workloads import iter_trace
from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
from repro.obs import metrics, tracer

#: Upper bound on a single frame, as a guard against a corrupted or
#: misaligned length prefix being read as a multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Wire protocol generation this checkout speaks. Version 2 added the
#: ``hello``/``metrics`` observability relay.
PROTOCOL_VERSION = 2

#: Trace length (window + warmup) from which a group of jobs stops
#: sharing one generated trace: a shared trace is a list of all its
#: chunks, while a job that draws its own holds at most two at a time.
STREAMING_THRESHOLD = 500_000

_LENGTH = struct.Struct(">I")


class ProtocolError(RuntimeError):
    """The byte stream violated the length-prefixed JSON frame format."""


def encode_payload(obj: object) -> str:
    """Pickle ``obj`` and wrap it for transport inside a JSON frame."""
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def decode_payload(text: str) -> object:
    """Inverse of :func:`encode_payload`."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


def write_frame(stream: BinaryIO, frame: dict) -> None:
    """Serialize one frame: 4-byte big-endian length, then UTF-8 JSON."""
    data = json.dumps(frame, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES} limit")
    stream.write(_LENGTH.pack(len(data)))
    stream.write(data)
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            break
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Optional[dict]:
    """Read one frame, or ``None`` on a clean end-of-stream.

    EOF in the middle of a frame (a worker dying mid-write) raises
    :class:`ProtocolError` — a torn frame must never be mistaken for a
    clean shutdown.
    """
    header = _read_exact(stream, _LENGTH.size)
    if not header:
        return None
    if len(header) < _LENGTH.size:
        raise ProtocolError("stream ended inside a frame length prefix")
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame length {length} exceeds the {MAX_FRAME_BYTES} limit")
    body = _read_exact(stream, length)
    if len(body) < length:
        raise ProtocolError(f"stream ended inside a frame body ({len(body)}/{length} bytes)")
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(frame, dict):
        raise ProtocolError(f"frame body must be a JSON object, got {type(frame).__name__}")
    return frame


def ready_frame() -> dict:
    """The handshake frame a worker emits before accepting jobs."""
    return {
        "kind": "ready",
        "fingerprint": model_fingerprint(),
        "schema": CACHE_SCHEMA_VERSION,
        "proto": PROTOCOL_VERSION,
    }


def run_job_observed(job, chunks=None):
    """Run one job under a ``worker.job`` span, observing its latency.

    The single instrumented execution point every backend funnels
    through: the wall time lands in the :data:`repro.obs.metrics.JOB_SECONDS`
    histogram (the source of the batch p50/p90/p99 report) and, when
    tracing, the job becomes a span carrying the workload identity.
    ``chunks`` is the job's trace when its group drew it already.
    """
    profile = getattr(job, "profile", None)
    started = time.perf_counter()
    with tracer.span(
        "worker.job",
        category="job",
        workload=getattr(profile, "name", type(profile).__name__),
        instructions=getattr(job, "num_instructions", None),
        seed=getattr(job, "seed", None),
    ):
        result = job.run(chunks)
    metrics.registry().histogram(metrics.JOB_SECONDS).observe(
        time.perf_counter() - started
    )
    return result


def run_group_observed(jobs: Sequence) -> Iterator:
    """Run jobs that share one trace identity, yielding results in order.

    A group of two or more jobs whose trace is shorter than
    :data:`STREAMING_THRESHOLD` draws that trace once, as a chunk list
    timed as the ``generate`` stage and charged to no job's latency,
    and hands it to every job. A single job, or a trace that long, is
    generated inside each run, which streams it in bounded memory.
    """
    chunks = None
    profile, seed, total = jobs[0].trace_identity
    if len(jobs) > 1 and total < STREAMING_THRESHOLD:
        with metrics.timed("generate"):
            chunks = list(iter_trace(profile, total, seed=seed))
        metrics.registry().counter(TRACES).inc()
    for job in jobs:
        yield run_job_observed(job, chunks)


def serve(stdin: Optional[BinaryIO] = None, stdout: Optional[BinaryIO] = None) -> int:
    """Run the worker loop over the given binary streams until shutdown.

    Factored off ``main`` so tests can drive the full protocol through
    in-memory streams without spawning a process.
    """
    inp = stdin if stdin is not None else sys.stdin.buffer
    out = stdout if stdout is not None else sys.stdout.buffer
    write_frame(out, ready_frame())
    executed = 0
    relay_metrics = False
    relay_trace = False
    while True:
        frame = read_frame(inp)
        if frame is None:
            # The engine vanished (closed our stdin) — exit quietly.
            return 0
        kind = frame.get("kind")
        if kind == "shutdown":
            write_frame(out, {"kind": "bye", "executed": executed})
            return 0
        if kind == "hello":
            # The engine switched on the observability relay. No reply:
            # the conversation stays lockstep on job/result pairs.
            relay_metrics = bool(frame.get("metrics"))
            relay_trace = bool(frame.get("trace"))
            if relay_trace:
                tracer.enable(True)
            continue
        if kind != "job":
            write_frame(
                out,
                {
                    "kind": "error",
                    "id": frame.get("id"),
                    "error": f"unknown frame kind {kind!r}",
                    "traceback": "",
                },
            )
            continue
        job_id = frame.get("id")
        try:
            job = decode_payload(frame["job"])
            with metrics.scope() as job_metrics:
                result = run_job_observed(job)
        except BaseException as error:  # noqa: BLE001 - shipped to the engine
            write_frame(
                out,
                {
                    "kind": "error",
                    "id": job_id,
                    "error": f"{type(error).__name__}: {error}",
                    "traceback": traceback.format_exc(),
                },
            )
            if relay_trace:
                tracer.drain()  # spans of a failed job are not relayed
            continue
        executed += 1
        write_frame(
            out,
            {"kind": "result", "id": job_id, "result": encode_payload(result)},
        )
        if relay_metrics:
            write_frame(
                out,
                {
                    "kind": "metrics",
                    "id": job_id,
                    "metrics": job_metrics.snapshot(),
                    "spans": tracer.drain() if relay_trace else [],
                },
            )


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - exercised via SSHBackend
    return serve()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
