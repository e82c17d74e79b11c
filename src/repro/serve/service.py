"""The asyncio evaluation service behind ``repro serve``.

One long-running process owns the warm caches and answers evaluation
requests over HTTP/JSON (stdlib only — :mod:`asyncio` streams and a
hand-rolled HTTP/1.1 layer; no web framework). Three routes:

* ``POST /v1/run`` — execute a :mod:`repro.serve.schema` request.
  The response streams newline-delimited JSON events over chunked
  transfer encoding: ``accepted`` (with the request's canonical key),
  then one of ``coalesced`` / ``warm`` / ``scheduled``, then ``result``
  (the rendered text plus an execution report) or ``error``.
* ``GET /healthz`` — liveness plus the model fingerprint and cache
  schema, so clients can detect checkout skew before submitting.
* ``GET /v1/metrics`` — the process metrics-registry snapshot.

Three layers keep concurrent load cheap:

* **Warm path** — a request whose every simulation is already cached
  (in-process memo or persistent store) renders immediately with
  ``executed=0``; no backend is touched.
* **Coalescer** — concurrent requests with the same canonical key share
  one in-flight execution: the first becomes the leader, the rest await
  the leader's future and answer with ``coalesced=true, executed=0``.
  Across N duplicate requests, each unique simulation runs exactly once.
* **Batcher** — leaders with cache-miss simulations enqueue them into a
  short batching window; when it closes, all pending jobs fold into one
  deduplicated :func:`repro.exec.engine.run_jobs` submission, so the
  configured backend sees one well-packed batch instead of a dribble.

Service metrics (``serve.requests``, ``serve.coalesce_hits``,
``serve.warm_hits``, ``serve.errors``, ``serve.request_seconds``,
``serve.batch_jobs``) land in the process metrics registry, so
``--run-manifest`` artifacts written at shutdown embed them.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.exec.engine import BatchReport, lookup, run_jobs
from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
from repro.exec.jobs import SimulationJob
from repro.obs import metrics as obs_metrics
from repro.serve.schema import (
    SERVE_SCHEMA,
    RequestError,
    ServeRequest,
    build_request,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
#: Seconds a leader's cache-miss jobs wait for companions before the
#: folded batch is submitted.
DEFAULT_BATCH_WINDOW = 0.05

#: Batch-occupancy buckets: how many jobs each folded submission carried.
BATCH_JOBS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_MAX_BODY_BYTES = 1 << 20  # a request is parameters, never bulk data

Notify = Callable[[Dict[str, Any]], Awaitable[None]]


def _report_summary(report: BatchReport, batch_jobs: int) -> Dict[str, Any]:
    return {
        "batch_jobs": batch_jobs,
        "unique": report.unique,
        "cache_hits": report.cache_hits,
        "executed": report.executed,
        "backend": report.backend,
        "workers_used": report.workers_used,
    }


class _Batcher:
    """Fold compatible pending simulations into one engine submission.

    Leaders call :meth:`submit` with their cache-miss jobs; the first
    submission opens a window, and when it elapses every queued entry is
    deduplicated (by canonical cache key, first claimant wins) into a
    single :func:`run_jobs` batch run in a worker thread. Each entry
    gets back the folded batch's report plus its own claimed-job count —
    the per-request ``executed`` attribution that makes duplicate-free
    accounting sum correctly across requests.
    """

    def __init__(self, window: float):
        self.window = window
        self._entries: List[Tuple[List[SimulationJob], asyncio.Future]] = []
        self._flusher: Optional[asyncio.Task] = None

    async def submit(self, jobs: List[SimulationJob]) -> Tuple[BatchReport, int]:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._entries.append((jobs, future))
        if self._flusher is None:
            self._flusher = asyncio.create_task(self._flush_after_window())
        return await future

    async def _flush_after_window(self) -> None:
        if self.window > 0:
            await asyncio.sleep(self.window)
        entries, self._entries = self._entries, []
        self._flusher = None
        folded: List[SimulationJob] = []
        claims: List[int] = []
        seen = set()
        for jobs, _ in entries:
            own = 0
            for job in jobs:
                key = job.cache_key()
                if key not in seen:
                    seen.add(key)
                    folded.append(job)
                    own += 1
            claims.append(own)
        obs_metrics.registry().histogram(
            "serve.batch_jobs", boundaries=BATCH_JOBS_BUCKETS
        ).observe(float(len(folded)))
        report = BatchReport()
        try:
            await asyncio.to_thread(run_jobs, folded, report=report)
        except Exception as error:  # noqa: BLE001 - delivered to every waiter
            for _, future in entries:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), own in zip(entries, claims):
            if not future.done():
                future.set_result((report, own))


class EvaluationService:
    """The request coalescer, batcher, and HTTP front end."""

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        batch_window: float = DEFAULT_BATCH_WINDOW,
    ):
        self.host = host
        self.port = port
        self.batch_window = batch_window
        self._inflight: Dict[str, asyncio.Task] = {}
        self._batcher = _Batcher(batch_window)
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> asyncio.AbstractServer:
        """Bind and start accepting; updates :attr:`port` when it was 0."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # --- execution core ---------------------------------------------------

    async def _execute(self, request: ServeRequest, notify: Notify) -> Dict[str, Any]:
        """Run one request as its coalescing leader.

        Returns the shared outcome dict (text, executed, warm, report)
        that coalesced followers copy with ``executed=0``.
        """
        jobs = await asyncio.to_thread(request.jobs)
        pending = await asyncio.to_thread(
            lambda: [job for job in jobs if lookup(job.cache_key()) is None]
        )
        registry = obs_metrics.registry()
        if not pending:
            registry.counter("serve.warm_hits").inc()
            await notify({"event": "warm", "jobs": len(jobs)})
            text = await asyncio.to_thread(request.render)
            return {
                "text": text,
                "executed": 0,
                "warm": True,
                "report": {"batch_jobs": 0, "jobs": len(jobs), "executed": 0},
            }
        await notify(
            {"event": "scheduled", "jobs": len(jobs), "pending": len(pending)}
        )
        report, own_executed = await self._batcher.submit(pending)
        # The fold ran against the live caches; rendering now resolves
        # entirely warm, so the text is byte-identical to a direct run.
        text = await asyncio.to_thread(request.render)
        return {
            "text": text,
            "executed": own_executed,
            "warm": False,
            "report": _report_summary(report, len(pending)),
        }

    async def _run_request(
        self, request: ServeRequest, notify: Notify
    ) -> Dict[str, Any]:
        """Coalesce on the canonical key, then execute or follow."""
        registry = obs_metrics.registry()
        leader_task = self._inflight.get(request.key)
        if leader_task is not None:
            registry.counter("serve.coalesce_hits").inc()
            await notify({"event": "coalesced"})
            outcome = await asyncio.shield(leader_task)
            return dict(outcome, executed=0, coalesced=True)
        task = asyncio.create_task(self._execute(request, notify))
        self._inflight[request.key] = task
        task.add_done_callback(lambda _: self._inflight.pop(request.key, None))
        # shield: a leader whose client disconnects must not cancel the
        # execution its followers are waiting on.
        outcome = await asyncio.shield(task)
        return dict(outcome, coalesced=False)

    # --- HTTP layer -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError, ValueError):
                return
            if method == "GET" and path == "/healthz":
                await self._respond_json(
                    writer,
                    200,
                    {
                        "ok": True,
                        "service": SERVE_SCHEMA,
                        "schema": CACHE_SCHEMA_VERSION,
                        "fingerprint": model_fingerprint(),
                    },
                )
            elif method == "GET" and path == "/v1/metrics":
                await self._respond_json(
                    writer, 200, {"metrics": obs_metrics.registry().snapshot()}
                )
            elif method == "POST" and path == "/v1/run":
                await self._handle_run(writer, body)
            else:
                await self._respond_json(
                    writer,
                    404 if path not in ("/v1/run",) else 405,
                    {"error": f"no route for {method} {path}"},
                )
        except ConnectionError:  # pragma: no cover - client went away
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            raise ValueError("empty request")
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"malformed request line {request_line!r}")
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if content_length > _MAX_BODY_BYTES:
            raise ValueError(f"body too large ({content_length} bytes)")
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, document: Dict[str, Any]
    ) -> None:
        payload = (json.dumps(document, sort_keys=True) + "\n").encode()
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed"}
        writer.write(
            (
                f"HTTP/1.1 {status} {reason.get(status, 'Error')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + payload
        )
        await writer.drain()

    async def _handle_run(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        registry = obs_metrics.registry()
        registry.counter("serve.requests").inc()
        started = time.monotonic()
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            registry.counter("serve.errors").inc()
            await self._respond_json(writer, 400, {"error": "body is not valid JSON"})
            return
        try:
            request = await asyncio.to_thread(build_request, payload)
        except RequestError as error:
            registry.counter("serve.errors").inc()
            await self._respond_json(writer, 400, {"error": str(error)})
            return

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()

        async def send(event: Dict[str, Any]) -> None:
            data = (json.dumps(event, sort_keys=True) + "\n").encode()
            writer.write(f"{len(data):x}\r\n".encode() + data + b"\r\n")
            await writer.drain()

        async def notify(event: Dict[str, Any]) -> None:
            # Progress is best-effort: a vanished client must not abort
            # an execution other requests may be coalesced onto.
            try:
                await send(event)
            except (ConnectionError, OSError):
                pass

        try:
            await notify(
                {"event": "accepted", "kind": request.kind, "key": request.key}
            )
            outcome = await self._run_request(request, notify)
            await send(dict(outcome, event="result"))
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            return
        except Exception as error:  # noqa: BLE001 - reported to the client
            registry.counter("serve.errors").inc()
            await notify({"event": "error", "error": f"{type(error).__name__}: {error}"})
        finally:
            registry.histogram("serve.request_seconds").observe(
                time.monotonic() - started
            )
        try:
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


def run_service(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    batch_window: float = DEFAULT_BATCH_WINDOW,
) -> int:
    """Run the service until interrupted (the ``repro serve`` entry)."""
    service = EvaluationService(host=host, port=port, batch_window=batch_window)

    async def _main() -> None:
        server = await service.start()
        print(
            f"[repro] serving on http://{service.host}:{service.port} "
            f"(batch window {service.batch_window:g}s)",
            file=sys.stderr,
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("[repro] serve: shutting down", file=sys.stderr)
    return 0
