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

The ``ready`` frame carries the worker's model fingerprint and cache
schema version; the engine refuses to dispatch to a worker whose
fingerprint differs from its own, so a stale checkout on one fleet host
can never publish wrong results under a current store key.

Protocol version 2 adds the observability relay, negotiated so both
skew directions degrade gracefully rather than desync the framing:

* the worker *advertises* ``"proto": 2`` in its ready frame;
* the engine *requests* the relay by sending a ``hello`` frame — but
  only to a worker that advertised ``proto >= 2``. A v1 worker never
  sees a hello (whose unknown-kind error reply would misalign the
  lockstep conversation), and a v2 worker that receives no hello stays
  silent about metrics, so a v1 engine is never surprised by a frame
  kind it does not know.
* once negotiated, the worker follows every ``result`` frame with one
  ``metrics`` frame carrying the snapshot of the job's own metrics
  scope (:func:`repro.obs.metrics.scope`: exactly what that job
  recorded, in the registry's ``{counters, gauges, histograms}``
  shape) and — when the hello asked for ``trace`` — its drained span
  buffer. Stage seconds ride it as ``stage_seconds.*`` counters.

``$REPRO_WORKER_PROTO=1`` pins a worker to the v1 wire behavior (no
``proto`` advertisement, no metrics frames); the negotiation regression
tests use it to stand in for an old-checkout fleet host.

stdout is reserved for frames; simulation warnings go to stderr as
usual. A malformed or unknown frame produces an ``error`` frame (with
``id: null`` when no job id is known) rather than killing the worker.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import struct
import sys
import time
import traceback
from typing import BinaryIO, Optional

from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
from repro.obs import metrics, tracer

#: Upper bound on a single frame, as a guard against a corrupted or
#: misaligned length prefix being read as a multi-gigabyte allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

#: Wire protocol generation this checkout speaks. Version 2 added the
#: negotiated ``hello``/``metrics`` observability relay.
PROTOCOL_VERSION = 2

#: Set to ``1`` to force the v1 wire behavior (testing version skew).
ENV_WORKER_PROTO = "REPRO_WORKER_PROTO"

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


def protocol_version() -> int:
    """The wire protocol generation this worker should speak.

    Normally :data:`PROTOCOL_VERSION`; ``$REPRO_WORKER_PROTO`` pins it
    down for version-skew testing (anything unparsable is ignored).
    """
    raw = os.environ.get(ENV_WORKER_PROTO, "").strip()
    if raw:
        try:
            return max(1, min(PROTOCOL_VERSION, int(raw)))
        except ValueError:
            pass
    return PROTOCOL_VERSION


def ready_frame() -> dict:
    """The handshake frame a worker emits before accepting jobs."""
    frame = {
        "kind": "ready",
        "fingerprint": model_fingerprint(),
        "schema": CACHE_SCHEMA_VERSION,
    }
    if protocol_version() >= 2:
        frame["proto"] = protocol_version()
    return frame


def run_job_observed(job):
    """Run one job under a ``worker.job`` span, observing its latency.

    The single instrumented execution point every backend funnels
    through: the wall time lands in the :data:`repro.obs.metrics.JOB_SECONDS`
    histogram (the source of the batch p50/p90/p99 report) and, when
    tracing, the job becomes a span carrying the workload identity.
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
        result = job.run()
    metrics.registry().histogram(metrics.JOB_SECONDS).observe(
        time.perf_counter() - started
    )
    return result


def serve(stdin: Optional[BinaryIO] = None, stdout: Optional[BinaryIO] = None) -> int:
    """Run the worker loop over the given binary streams until shutdown.

    Factored off ``main`` so tests can drive the full protocol through
    in-memory streams without spawning a process.
    """
    inp = stdin if stdin is not None else sys.stdin.buffer
    out = stdout if stdout is not None else sys.stdout.buffer
    proto = protocol_version()
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
        if kind == "hello" and proto >= 2:
            # The engine negotiated the observability relay. No reply:
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
