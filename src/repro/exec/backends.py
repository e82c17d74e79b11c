"""Pluggable execution backends: one batch interface, many substrates.

:func:`repro.exec.engine.run_jobs` owns deduplication, cache/store
resolution, and deterministic result ordering; everything below that —
*how* the pending jobs actually execute — is an
:class:`ExecutionBackend`:

* :class:`SerialBackend` (``--backend serial``) runs jobs in-process,
  one after another. No subprocesses, no pickling: the debugging
  backend (breakpoints and profilers see the simulation directly).
* :class:`ProcessPoolBackend` (``--backend pool``, the default) fans
  out across local worker processes with
  :class:`concurrent.futures.ProcessPoolExecutor` — exactly the
  engine's historical behavior, now one plugin among peers.
* :class:`SSHBackend` (``--backend ssh:host1,host2``) shards the batch
  round-robin across remote hosts, each running
  ``python -m repro.exec.worker`` and speaking the length-prefixed JSON
  protocol of :mod:`repro.exec.worker` over stdio. The pseudo-host
  ``localhost`` spawns the worker directly (no sshd needed), so the
  full wire protocol is exercisable in CI and tests.

A backend receives jobs already stamped with the process-wide
streaming/kernel defaults (:meth:`SimulationJob.with_stamped_defaults`)
and streams back ``(index, result)`` pairs in any completion order; the
engine reassembles submission order. Results are therefore byte-identical
across backends — the backend-equivalence CI gate asserts it.

Failure propagation: :class:`SerialBackend` raises the job's exception
directly; :class:`ProcessPoolBackend` propagates whatever the pool
transports (the original exception, pickled); :class:`SSHBackend`
raises :class:`RemoteJobError` carrying the remote traceback text. A
failed job always aborts its batch — partial batches are never returned.
"""

from __future__ import annotations

import functools
import os
import queue
import subprocess
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.cpu.simulator import SimulationResult
from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
from repro.exec.jobs import SimulationJob
from repro.exec.worker import (
    PROTOCOL_VERSION,
    decode_payload,
    encode_payload,
    read_frame,
    run_job_observed,
    write_frame,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracer

ENV_BACKEND = "REPRO_BACKEND"
ENV_SSH_PYTHON = "REPRO_SSH_PYTHON"

#: Hosts the SSH backend serves with a directly-spawned local worker
#: instead of a real ``ssh`` connection. Same wire protocol, no sshd.
LOOPBACK_HOSTS = ("localhost", "local", "127.0.0.1")

DEFAULT_BACKEND_SPEC = "pool"


class BackendError(RuntimeError):
    """A backend could not execute its batch (spawn, handshake, framing)."""


class RemoteJobError(BackendError):
    """A job raised on a remote worker; carries the remote traceback."""

    def __init__(self, host: str, error: str, remote_traceback: str = ""):
        self.host = host
        self.remote_traceback = remote_traceback
        detail = ""
        if remote_traceback:
            detail = f"\n--- remote traceback ({host}) ---\n{remote_traceback}"
        super().__init__(f"job failed on {host!r}: {error}{detail}")


class ExecutionBackend(Protocol):
    """The batch-execution lifecycle the engine schedules against.

    Implementations execute already-deduplicated, already-stamped jobs
    and stream ``(index, result)`` pairs back as they complete. They
    never consult or populate any cache layer, and they must either
    yield a result for every submitted index or raise.
    """

    name: str

    def submit_batch(
        self, jobs: Sequence[SimulationJob]
    ) -> Iterator[Tuple[int, SimulationResult]]:
        """Execute ``jobs``, yielding ``(index, result)`` as available."""
        ...

    def workers_for(self, pending: int) -> int:
        """How many workers a batch of ``pending`` jobs would occupy."""
        ...


def _execute_job_observed(job: SimulationJob, trace: bool = False):
    """Worker-process entry point: simulate (no cache access) and ship
    the job's observability alongside the result.

    The job runs inside its own metrics scope, so the relayed snapshot
    holds exactly this job's stage wall time, latency, and kernel
    counts (workers are reused across jobs), plus the drained span
    buffer when ``trace``. The submitting process absorbs both into the
    batch's scope, so ``--verbose`` stage reports and ``--trace-out``
    cover pooled runs too.
    """
    from repro.obs import metrics, tracer

    if trace and not tracer.is_enabled():
        tracer.enable(True)
    # On fork-start pools the parent's buffered spans are inherited;
    # drop them so they are not relayed back as duplicates.
    tracer.drain()
    with metrics.scope() as job_metrics:
        result = run_job_observed(job)
    return result, {
        "metrics": job_metrics.snapshot(),
        "spans": tracer.drain() if trace else [],
    }


class SerialBackend:
    """Run every job inline in the submitting process."""

    name = "serial"

    def submit_batch(
        self, jobs: Sequence[SimulationJob]
    ) -> Iterator[Tuple[int, SimulationResult]]:
        for index, job in enumerate(jobs):
            yield index, run_job_observed(job)

    def workers_for(self, pending: int) -> int:
        return 1

    def __repr__(self) -> str:
        return "SerialBackend()"


class ProcessPoolBackend:
    """Fan the batch out across local worker processes.

    ``workers=None`` defers to the process-wide default
    (:func:`repro.exec.engine.resolve_workers`); ``0`` means all cores.
    A resolved worker count of 1 — or a single-job batch — runs inline,
    exactly like the historical engine.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers

    def _resolved_workers(self) -> int:
        from repro.exec.engine import resolve_workers

        return resolve_workers(self.workers)

    def submit_batch(
        self, jobs: Sequence[SimulationJob]
    ) -> Iterator[Tuple[int, SimulationResult]]:
        workers = self._resolved_workers()
        if workers <= 1 or len(jobs) == 1:
            for index, job in enumerate(jobs):
                yield index, run_job_observed(job)
            return
        run = functools.partial(_execute_job_observed, trace=tracer.is_enabled())
        max_workers = min(workers, len(jobs))
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            # Executor.map preserves submission order, so indices line
            # up with ``jobs`` regardless of completion order.
            for index, (result, relay) in enumerate(pool.map(run, jobs)):
                obs_metrics.registry().absorb(relay.get("metrics") or {})
                tracer.absorb(relay.get("spans") or [])
                yield index, result

    def workers_for(self, pending: int) -> int:
        workers = self._resolved_workers()
        return min(workers, pending) if workers > 1 else 1

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers!r})"


def validate_ready(frame: Optional[dict], host: str) -> int:
    """Check a worker's handshake frame against this process's model.

    A fleet host running a different checkout would compute results that
    disagree with this process's cache keys — and a shared write-once
    store would then publish them globally. Refusing the handshake turns
    silent wrong-result corruption into a loud startup error.

    Returns the wire protocol version the worker advertised (``1`` when
    the ready frame predates version advertisement) so the caller knows
    whether the observability relay can be negotiated.
    """
    if frame is None or frame.get("kind") != "ready":
        kind = None if frame is None else frame.get("kind")
        raise BackendError(f"worker on {host!r} sent no ready frame (got {kind!r})")
    if frame.get("schema") != CACHE_SCHEMA_VERSION:
        raise BackendError(
            f"worker on {host!r} speaks cache schema {frame.get('schema')!r}, "
            f"this process speaks {CACHE_SCHEMA_VERSION!r}"
        )
    if frame.get("fingerprint") != model_fingerprint():
        raise BackendError(
            f"worker on {host!r} runs a different model "
            f"(fingerprint {str(frame.get('fingerprint'))[:12]}... != "
            f"{model_fingerprint()[:12]}...); update its checkout"
        )
    try:
        return max(1, int(frame.get("proto", 1)))
    except (TypeError, ValueError):
        return 1


class SSHBackend:
    """Shard the batch across remote ``repro.exec.worker`` processes.

    Hosts are fed their shard in lockstep (one in-flight job per host),
    which bounds pipe buffering; parallelism comes from sharding across
    hosts. Real hosts are reached via ``ssh -o BatchMode=yes`` and must
    be able to run ``python3 -m repro.exec.worker`` non-interactively
    (override the interpreter with ``$REPRO_SSH_PYTHON``); the loopback
    hosts of :data:`LOOPBACK_HOSTS` spawn the worker directly under the
    current interpreter.
    """

    name = "ssh"

    def __init__(self, hosts: Iterable[str], remote_python: Optional[str] = None):
        self.hosts = tuple(hosts)
        if not self.hosts:
            raise ValueError("SSHBackend needs at least one host")
        self.remote_python = remote_python or os.environ.get(ENV_SSH_PYTHON) or "python3"

    def workers_for(self, pending: int) -> int:
        return max(1, min(len(self.hosts), pending))

    def _spawn(self, host: str) -> subprocess.Popen:
        if host in LOOPBACK_HOSTS:
            import repro

            command = [sys.executable, "-u", "-m", "repro.exec.worker"]
            env = dict(os.environ)
            # The worker must import this very checkout of repro, even
            # when the engine runs uninstalled off PYTHONPATH=src.
            package_root = str(Path(repro.__file__).resolve().parent.parent)
            existing = env.get("PYTHONPATH", "")
            env["PYTHONPATH"] = package_root + (os.pathsep + existing if existing else "")
        else:  # pragma: no cover - needs a real remote host
            command = [
                "ssh",
                "-o",
                "BatchMode=yes",
                host,
                self.remote_python,
                "-u",
                "-m",
                "repro.exec.worker",
            ]
            env = None
        return subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def _serve_shard(
        self,
        host: str,
        shard: Sequence[Tuple[int, SimulationJob]],
        out_queue: "queue.Queue",
        abort: threading.Event,
        procs: Dict[str, subprocess.Popen],
    ) -> None:
        proc = None
        try:
            proc = self._spawn(host)
            procs[host] = proc
            proto = validate_ready(read_frame(proc.stdout), host)
            relay = proto >= 2
            if relay:
                # v2 workers get the observability relay switched on; v1
                # workers must never see this frame (their unknown-kind
                # error reply would misalign the lockstep conversation).
                write_frame(
                    proc.stdin,
                    {
                        "kind": "hello",
                        "proto": PROTOCOL_VERSION,
                        "metrics": True,
                        "trace": tracer.is_enabled(),
                    },
                )
            for index, job in shard:
                # A sibling shard failed (or the submitter abandoned the
                # batch): the whole batch's results will be discarded, so
                # stop feeding this worker instead of burning through the
                # rest of the shard.
                if abort.is_set():
                    break
                write_frame(
                    proc.stdin,
                    {"kind": "job", "id": index, "job": encode_payload(job)},
                )
                response = read_frame(proc.stdout)
                if response is None:
                    raise BackendError(f"worker on {host!r} exited mid-batch")
                kind = response.get("kind")
                if kind == "error":
                    raise RemoteJobError(
                        host,
                        response.get("error", "unknown error"),
                        response.get("traceback", ""),
                    )
                if kind != "result" or response.get("id") != index:
                    raise BackendError(
                        f"unexpected frame from {host!r}: kind={kind!r} id={response.get('id')!r}"
                    )
                result = decode_payload(response["result"])
                if relay:
                    extra = read_frame(proc.stdout)
                    if (
                        extra is None
                        or extra.get("kind") != "metrics"
                        or extra.get("id") != index
                    ):
                        raise BackendError(
                            f"worker on {host!r} negotiated the metrics relay "
                            f"but did not follow result {index} with its metrics frame"
                        )
                    out_queue.put(("metrics", extra))
                out_queue.put(("result", (index, result)))
            write_frame(proc.stdin, {"kind": "shutdown"})
            read_frame(proc.stdout)  # the bye frame; EOF is fine too
            proc.stdin.close()
            proc.wait(timeout=30)
        except Exception as error:  # noqa: BLE001 - relayed to the submitter
            out_queue.put(("error", error))
            if proc is not None:
                try:
                    proc.kill()
                except OSError:
                    pass
        finally:
            out_queue.put(("done", host))

    def submit_batch(
        self, jobs: Sequence[SimulationJob]
    ) -> Iterator[Tuple[int, SimulationResult]]:
        jobs = list(jobs)
        if not jobs:
            return
        hosts = self.hosts[: self.workers_for(len(jobs))]
        shards: List[List[Tuple[int, SimulationJob]]] = [[] for _ in hosts]
        for index, job in enumerate(jobs):
            shards[index % len(hosts)].append((index, job))
        out_queue: "queue.Queue" = queue.Queue()
        # Set on first failure — and by the finally clause when the
        # consumer abandons this generator — so sibling shards stop
        # between jobs instead of executing results nobody will read.
        abort = threading.Event()
        # host -> worker process, registered by each shard thread so the
        # submitter can reap every spawned worker even if its thread is
        # still blocked on an in-flight job.
        procs: Dict[str, subprocess.Popen] = {}
        threads = [
            threading.Thread(
                target=self._serve_shard,
                args=(host, shard, out_queue, abort, procs),
                daemon=True,
            )
            for host, shard in zip(hosts, shards)
        ]
        for thread in threads:
            thread.start()
        try:
            finished = 0
            error: Optional[Exception] = None
            while finished < len(threads):
                kind, payload = out_queue.get()
                if kind == "result":
                    if error is None:
                        yield payload
                elif kind == "metrics":
                    # Absorbed here, in the drain loop, which runs in the
                    # submitter's context and so lands in the batch's
                    # metrics scope (shard threads run outside it).
                    obs_metrics.registry().absorb(payload.get("metrics") or {})
                    tracer.absorb(payload.get("spans") or [])
                elif kind == "error":
                    if error is None:
                        error = payload
                        abort.set()
                else:
                    finished += 1
            for thread in threads:
                thread.join()
            if error is not None:
                raise error
        finally:
            # Runs on normal completion, on failure, and — the case that
            # used to leak daemon threads and worker subprocesses — on
            # GeneratorExit when the consumer stops iterating mid-batch.
            # Killing the workers unblocks any shard thread waiting in
            # read_frame on an in-flight job.
            abort.set()
            for proc in list(procs.values()):
                if proc.poll() is None:
                    try:
                        proc.kill()
                    except OSError:
                        pass
            for thread in threads:
                thread.join(timeout=30)
            for proc in list(procs.values()):
                try:
                    proc.wait(timeout=30)
                except (OSError, subprocess.TimeoutExpired):  # pragma: no cover
                    pass
                for stream in (proc.stdin, proc.stdout):
                    if stream is not None:
                        try:
                            stream.close()
                        except OSError:  # pragma: no cover - already torn
                            pass

    def __repr__(self) -> str:
        return f"SSHBackend(hosts={self.hosts!r})"


def parse_backend_spec(spec: str) -> ExecutionBackend:
    """Build a backend from a ``--backend`` spec string.

    ``serial`` | ``pool`` | ``pool:N`` | ``ssh:host1,host2,...``
    """
    text = spec.strip()
    head, sep, rest = text.partition(":")
    if head == "serial" and not sep:
        return SerialBackend()
    if head == "pool":
        if not sep:
            return ProcessPoolBackend()
        try:
            workers = int(rest)
        except ValueError:
            raise ValueError(f"pool worker count must be an integer, got {rest!r}") from None
        if workers < 0:
            raise ValueError(f"pool worker count must be >= 0, got {workers}")
        return ProcessPoolBackend(workers=workers)
    if head == "ssh" and sep:
        hosts = tuple(host.strip() for host in rest.split(",") if host.strip())
        if not hosts:
            raise ValueError("ssh backend needs at least one host: ssh:host1,host2,...")
        return SSHBackend(hosts)
    raise ValueError(
        f"unknown backend spec {spec!r}; expected 'serial', 'pool[:N]', or 'ssh:host,...'"
    )


_default_backend_spec: Optional[str] = None


def set_default_backend(spec: Optional[str]) -> None:
    """Set the process-wide backend used when callers pass ``None``.

    The spec is validated eagerly so a typo in ``--backend`` fails at
    configuration time, not at first batch submission.
    """
    global _default_backend_spec
    if spec is not None:
        parse_backend_spec(spec)
    _default_backend_spec = spec


def get_default_backend_spec() -> str:
    """The backend spec ``resolve_backend(None)`` would use."""
    if _default_backend_spec is not None:
        return _default_backend_spec
    env = os.environ.get(ENV_BACKEND, "").strip()
    return env or DEFAULT_BACKEND_SPEC


def resolve_backend(
    backend: Union[None, str, ExecutionBackend] = None,
    workers: Optional[int] = None,
) -> ExecutionBackend:
    """Normalize a backend request to a concrete backend instance.

    ``None`` falls back to the process-wide default (itself defaulting
    to ``$REPRO_BACKEND`` or the process pool); a string is parsed as a
    spec. An explicit ``workers`` count overrides a pool backend's own —
    that is what keeps ``run_jobs(jobs, workers=4)`` meaning "four local
    processes" regardless of configured defaults.
    """
    if backend is None:
        backend = get_default_backend_spec()
    if isinstance(backend, str):
        backend = parse_backend_spec(backend)
    if workers is not None and isinstance(backend, ProcessPoolBackend):
        backend = ProcessPoolBackend(workers=workers)
    return backend
