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
* **Batcher** — batch while busy: at most one fold (a deduplicated
  :func:`repro.exec.engine.run_jobs` submission) runs at a time. A
  leader with cache misses that finds no fold running starts one at
  once; leaders arriving while one runs fold together into the next, so
  the backend sees packed batches under load and no request waits on a
  timer. Each fold claims only simulations still uncached when it is
  built, so no simulation runs twice and per-request ``executed`` counts
  sum to the simulations run.

Reading a request head and body has one deadline, :data:`READ_TIMEOUT_S`
(``408`` on expiry); a malformed head answers ``400`` and an oversized
body ``413``.

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
    DEFAULT_HOST,
    DEFAULT_PORT,
    SERVE_SCHEMA,
    RequestError,
    ServeRequest,
    build_request,
)

#: Batch-occupancy buckets: how many jobs each folded submission carried.
BATCH_JOBS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_MAX_BODY_BYTES = 1 << 20  # a request is parameters, never bulk data
#: Seconds a client has to deliver a whole request head and body.
READ_TIMEOUT_S = 10.0

Notify = Callable[[Dict[str, Any]], Awaitable[None]]


class _BadHead(ValueError):
    """A request head the service answers with ``status`` and closes."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _report_summary(report: BatchReport, batch_jobs: int) -> Dict[str, Any]:
    return {
        "batch_jobs": batch_jobs,
        "unique": report.unique,
        "cache_hits": report.cache_hits,
        "executed": report.executed,
        "backend": report.backend,
        "workers_used": report.workers_used,
    }


def _run_fold(requests: List[List[SimulationJob]]) -> Tuple[BatchReport, List[int]]:
    """Fold the queued requests' jobs into one batch and run it.

    Runs in a worker thread after the previous fold has published, so a
    key is claimed only while :func:`lookup` still misses it (a request's
    own pending list predates that publish); first claimant wins among
    duplicates. Returns the fold's report and each request's claim count.
    """
    folded: List[SimulationJob] = []
    claims: List[int] = []
    seen = set()
    for jobs in requests:
        own = 0
        for job in jobs:
            key = job.cache_key()
            if key not in seen:
                seen.add(key)
                if lookup(key) is None:
                    folded.append(job)
                    own += 1
        claims.append(own)
    report = BatchReport()
    if folded:
        obs_metrics.registry().histogram(
            "serve.batch_jobs", boundaries=BATCH_JOBS_BUCKETS
        ).observe(float(len(folded)))
        run_jobs(folded, report=report)
    return report, claims


class _Batcher:
    """Run leaders' cache-miss jobs one fold at a time.

    :meth:`submit` queues a leader's jobs and starts the drain task when
    none is running. The task folds everything queued into one batch,
    runs it, answers each entry with the fold's report plus its own
    claim count, and repeats until the queue is empty. Entries that
    arrive while a fold runs thus share the next one. A failing fold
    answers only its own entries with the error.
    """

    def __init__(self) -> None:
        self._queue: List[Tuple[List[SimulationJob], asyncio.Future]] = []
        self._drain: Optional[asyncio.Task] = None

    async def submit(self, jobs: List[SimulationJob]) -> Tuple[BatchReport, int]:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.append((jobs, future))
        if self._drain is None:
            self._drain = asyncio.create_task(self._drain_queue())
        return await future

    async def _drain_queue(self) -> None:
        try:
            while self._queue:
                entries, self._queue = self._queue, []
                try:
                    report, claims = await asyncio.to_thread(
                        _run_fold, [jobs for jobs, _ in entries]
                    )
                except Exception as error:  # noqa: BLE001 - this fold's waiters only
                    for _, future in entries:
                        if not future.done():
                            future.set_exception(error)
                    continue
                for (_, future), own in zip(entries, claims):
                    if not future.done():
                        future.set_result((report, own))
        finally:
            self._drain = None


class EvaluationService:
    """The request coalescer, batcher, and HTTP front end."""

    def __init__(self, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.host = host
        self.port = port
        self._inflight: Dict[str, asyncio.Task] = {}
        self._batcher = _Batcher()
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
                head = await asyncio.wait_for(
                    self._read_request(reader), READ_TIMEOUT_S
                )
            except asyncio.TimeoutError:
                await self._respond_json(
                    writer,
                    408,
                    {"error": f"request not received within {READ_TIMEOUT_S:g}s"},
                )
                return
            except ValueError as error:
                # _BadHead carries its status; a head line over the stream
                # limit surfaces as a plain ValueError.
                status = getattr(error, "status", 400)
                await self._respond_json(writer, status, {"error": str(error)})
                return
            except asyncio.IncompleteReadError:
                return
            if head is None:
                return
            method, path, body = head
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
    ) -> Optional[Tuple[str, str, bytes]]:
        """Read one request; ``None`` when the client closed without one."""
        request_line = (await reader.readline()).decode("latin-1").strip()
        if not request_line:
            return None
        parts = request_line.split()
        if len(parts) != 3:
            raise _BadHead(400, f"malformed request line {request_line!r}")
        method, path, _version = parts
        content_length = 0
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                if not (value.isascii() and value.isdigit()):
                    raise _BadHead(400, f"invalid Content-Length {value!r}")
                content_length = int(value)
        if content_length > _MAX_BODY_BYTES:
            raise _BadHead(
                413, f"body of {content_length} bytes exceeds {_MAX_BODY_BYTES}"
            )
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    async def _respond_json(
        self, writer: asyncio.StreamWriter, status: int, document: Dict[str, Any]
    ) -> None:
        payload = (json.dumps(document, sort_keys=True) + "\n").encode()
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            405: "Method Not Allowed",
            408: "Request Timeout",
            413: "Content Too Large",
        }
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


def run_service(host: str = DEFAULT_HOST, port: int = DEFAULT_PORT) -> int:
    """Run the service until interrupted (the ``repro serve`` entry)."""
    service = EvaluationService(host=host, port=port)

    async def _main() -> None:
        server = await service.start()
        print(
            f"[repro] serving on http://{service.host}:{service.port}",
            file=sys.stderr,
        )
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("[repro] serve: shutting down", file=sys.stderr)
    return 0
