"""Pluggable execution backends: one batch interface, many substrates.

:func:`repro.exec.engine.run_jobs` owns deduplication, cache/store
resolution, and deterministic result ordering; everything below that —
*how* the pending jobs actually execute — is an
:class:`ExecutionBackend`:

* :class:`SerialBackend` (``--backend serial``) runs jobs in-process,
  one after another. No subprocesses, no pickling: the debugging
  backend (breakpoints and profilers see the simulation directly).
* :class:`ProcessPoolBackend` (``--backend pool[:N]``, the default)
  runs the batch on N workers: ``pool:N``, else ``--jobs`` (which fills
  in a bare ``pool``'s N, :func:`fill_pool_workers`, and which every
  other spec ignores), else ``$REPRO_JOBS``, else :func:`available_cpus`.
  The kernel the batch runs picks the workers. The C batch kernel and
  the C trace walker release the GIL, so a batch-kernel batch runs in
  the submitting process on min(N, trace groups) threads, each taking
  whole groups: no fork and no pickling. The walk holds the GIL, so a
  batch that runs it forks min(N, jobs) local worker processes with
  :class:`concurrent.futures.ProcessPoolExecutor`, the parallel path
  that needs no C compiler. A count of 1 runs inline.
* :class:`SSHBackend` (``--backend ssh:host1,host2``) shards the batch
  round-robin across remote hosts, each running
  ``python -m repro.exec.worker`` and speaking the length-prefixed JSON
  protocol of :mod:`repro.exec.worker` over stdio. The pseudo-host
  ``localhost`` spawns the worker directly (no sshd needed), so the
  full wire protocol is exercisable in CI and tests.

A backend receives jobs already stamped with an explicit process-wide
``--kernel`` (:meth:`SimulationJob.with_stamped_defaults`), with jobs
that share a trace next to each other, and streams back
``(index, result)`` pairs in any completion order; the engine
reassembles submission order. Results are therefore byte-identical
across backends — the backend-equivalence CI gate asserts it. The
serial and pool backends run each run of equal
:attr:`SimulationJob.trace_identity` as one group
(:func:`~repro.exec.worker.run_group_observed`), which generates the
trace once; SSH workers run one job per frame.

Failure propagation: :class:`SerialBackend` and the pool's threads
raise the job's exception directly; the pool's processes propagate
whatever the pool transports (the original exception, pickled);
:class:`SSHBackend` raises :class:`RemoteJobError` carrying the remote
traceback text. A failed job always aborts its batch — partial batches
are never returned. The threaded path stops its other runs at their
next trace chunk, the SSH path its other workers between jobs, and
both return only once every thread has.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
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

from repro.cpu.kernel import KERNEL_WALK, resolve_kernel
from repro.cpu.simulator import SimulationResult
from repro.cpu.stream import stop_event
from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
from repro.exec.jobs import SimulationJob
from repro.exec.worker import (
    PROTOCOL_VERSION,
    decode_payload,
    encode_payload,
    read_frame,
    run_group_observed,
    write_frame,
)
from repro.obs import metrics as obs_metrics
from repro.obs import tracer

ENV_BACKEND = "REPRO_BACKEND"
ENV_JOBS = "REPRO_JOBS"
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

    def workers_for(self, jobs: Sequence[SimulationJob]) -> int:
        """How many workers a batch of ``jobs`` would occupy."""
        ...


def _trace_groups(jobs: Sequence[SimulationJob]) -> List[List[int]]:
    """The indices of ``jobs``, cut into runs of equal trace identity.

    The engine hands a batch over with jobs that share a trace next to
    each other, so each run is one group of
    :func:`~repro.exec.worker.run_group_observed`.
    """
    runs = itertools.groupby(enumerate(jobs), key=lambda item: item[1].trace_identity)
    return [[index for index, _ in run] for _, run in runs]


def _run_inline(jobs: Sequence[SimulationJob]) -> Iterator[Tuple[int, SimulationResult]]:
    for group in _trace_groups(jobs):
        yield from zip(group, run_group_observed([jobs[index] for index in group]))


def _runs_walk(jobs: Sequence[SimulationJob]) -> bool:
    """Whether any job of the batch runs the walk, which holds the GIL."""
    return any(resolve_kernel(job.kernel) == KERNEL_WALK for job in jobs)


def _run_threaded(
    jobs: Sequence[SimulationJob], groups: Sequence[List[int]], threads: int
) -> Iterator[Tuple[int, SimulationResult]]:
    """Run ``groups`` on ``threads`` in-process threads, whole groups each.

    Each thread runs under a copy of the submitting context, so its
    spans nest under the caller's and each group's
    :func:`~repro.obs.metrics.scope` folds into the batch's scope. A
    failure, an abandoned generator or an interrupt sets ``abort``:
    groups not yet taken never start, and since ``abort`` is each
    thread's :data:`~repro.cpu.stream.stop_event`, each running job
    stops at its next trace chunk (one that reads no chunks stops at its
    end). Nothing is raised or returned before every thread has
    returned, and a failure is queued before it sets ``abort``, so the
    batch raises it rather than a run it stopped.
    """
    todo: "queue.SimpleQueue[List[int]]" = queue.SimpleQueue()
    for group in groups:
        todo.put(group)
    done: "queue.SimpleQueue" = queue.SimpleQueue()
    abort = threading.Event()

    def take_groups() -> None:
        stop_event.set(abort)
        try:
            while not abort.is_set():
                try:
                    group = todo.get_nowait()
                except queue.Empty:
                    return
                with obs_metrics.scope():
                    results = run_group_observed([jobs[index] for index in group])
                    for index, result in zip(group, results):
                        done.put((index, result))
                        if abort.is_set():
                            break
                    results.close()
        except BaseException as error:  # noqa: BLE001 - raised by the submitter
            done.put(error)
            abort.set()
        finally:
            done.put(None)

    workers = [
        threading.Thread(
            target=contextvars.copy_context().run,
            args=(take_groups,),
            name=f"repro-batch-{number}",
            daemon=True,
        )
        for number in range(threads)
    ]
    for worker in workers:
        worker.start()
    error: Optional[BaseException] = None
    try:
        running = len(workers)
        while running:
            item = done.get()
            if item is None:
                running -= 1
            elif isinstance(item, BaseException):
                if error is None:
                    error = item
            elif error is None:
                yield item
        if error is not None:
            raise error
    finally:
        abort.set()
        for worker in workers:
            worker.join()


def _execute_group_observed(jobs: Sequence[SimulationJob], trace: bool = False):
    """Worker-process entry point: simulate one trace group (no cache
    access) and ship its observability alongside the results.

    The group runs inside its own metrics scope, so the relayed snapshot
    holds exactly this group's stage wall time, job latencies, and
    kernel and trace counts (workers are reused across tasks), plus the
    drained span buffer when ``trace``. The submitting process absorbs
    both into the batch's scope, so ``--verbose`` stage reports and
    ``--trace-out`` cover pooled runs too.
    """
    from repro.obs import metrics, tracer

    if trace and not tracer.is_enabled():
        tracer.enable(True)
    # On fork-start pools the parent's buffered spans are inherited;
    # drop them so they are not relayed back as duplicates.
    tracer.drain()
    with metrics.scope() as group_metrics:
        results = list(run_group_observed(jobs))
    return results, {
        "metrics": group_metrics.snapshot(),
        "spans": tracer.drain() if trace else [],
    }


class SerialBackend:
    """Run every job inline in the submitting process, one trace group
    after another."""

    name = "serial"

    def submit_batch(
        self, jobs: Sequence[SimulationJob]
    ) -> Iterator[Tuple[int, SimulationResult]]:
        return _run_inline(jobs)

    def workers_for(self, jobs: Sequence[SimulationJob]) -> int:
        return 1

    def __repr__(self) -> str:
        return "SerialBackend()"


def available_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, so a pinned container counts only its own."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def resolve_workers(workers: Optional[int] = None) -> int:
    """Normalize a worker-count request to a positive integer.

    ``None`` falls back to ``$REPRO_JOBS``, and to every CPU in
    :func:`available_cpus` when that is unset or blank too; ``0`` means
    every CPU in :func:`available_cpus`.
    """
    if workers is None:
        env = os.environ.get(ENV_JOBS, "")
        text = env.strip()
        # isdigit() admits 0, which means "all CPUs" exactly like
        # --jobs 0. Malformed values fall back to serial — loudly, so a
        # typo'd REPRO_JOBS=-2 cannot silently run single-worker.
        if not text:
            workers = 0
        elif text.isdigit():
            workers = int(text)
        else:
            print(
                f"[repro] ignoring {ENV_JOBS}={env!r}: expected a "
                "non-negative integer; running serial",
                file=sys.stderr,
            )
            workers = 1
    if workers == 0:
        workers = available_cpus()
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


class ProcessPoolBackend:
    """Run the batch on N workers: threads when it runs the C batch
    kernel, local worker processes when it runs the walk.

    ``workers=None`` (a bare ``pool`` spec) reads ``$REPRO_JOBS`` once
    per instance, else takes every available CPU; ``0`` means every
    available CPU too. A batch-kernel batch runs on min(N, trace
    groups) in-process threads, whole groups each (:func:`_run_threaded`).
    A batch that runs the walk forks min(N, jobs) worker processes,
    whose tasks are slices of one trace group, of at most
    ⌈jobs/workers⌉ jobs, that generate the trace once; a batch still
    occupies as many workers as one task per job would. Either runs
    inline, in the submitting process, on a count of 1.
    """

    name = "pool"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers

    @functools.cached_property
    def _resolved_workers(self) -> int:
        return resolve_workers(self.workers)

    def _plan(self, jobs: Sequence[SimulationJob]) -> Tuple[bool, int]:
        """Whether the batch runs the walk, and on how many workers."""
        walk = _runs_walk(jobs)
        units = len(jobs) if walk else len(_trace_groups(jobs))
        return walk, max(1, min(self._resolved_workers, units))

    def submit_batch(
        self, jobs: Sequence[SimulationJob]
    ) -> Iterator[Tuple[int, SimulationResult]]:
        walk, workers = self._plan(jobs)
        if workers == 1:
            yield from _run_inline(jobs)
            return
        if not walk:
            yield from _run_threaded(jobs, _trace_groups(jobs), workers)
            return
        # A group's share of the workers, rounded up, is how many slices
        # it is dealt into: no slice holds more than ⌈jobs/workers⌉ jobs,
        # and there are always enough slices to keep every worker busy.
        slices: List[List[int]] = []
        for group in _trace_groups(jobs):
            parts = min(len(group), -(-len(group) * workers // len(jobs)))
            slices += [group[part::parts] for part in range(parts)]
        run = functools.partial(_execute_group_observed, trace=tracer.is_enabled())
        tasks = [[jobs[index] for index in indices] for indices in slices]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map preserves submission order, so each task's
            # results line up with its slice of indices.
            for indices, (results, relay) in zip(slices, pool.map(run, tasks)):
                obs_metrics.registry().absorb(relay.get("metrics") or {})
                tracer.absorb(relay.get("spans") or [])
                yield from zip(indices, results)

    def workers_for(self, jobs: Sequence[SimulationJob]) -> int:
        return self._plan(jobs)[1]

    def __repr__(self) -> str:
        return f"ProcessPoolBackend(workers={self.workers!r})"


def validate_ready(frame: Optional[dict], host: str) -> None:
    """Check a worker's handshake frame against this process's model.

    A fleet host running a different checkout would compute results that
    disagree with this process's cache keys — and a shared write-once
    store would then publish them globally. Refusing the handshake turns
    silent wrong-result corruption into a loud startup error. The wire
    protocol version must match exactly too: the worker's own code is
    outside the model fingerprint.
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
    if frame.get("proto") != PROTOCOL_VERSION:
        raise BackendError(
            f"worker on {host!r} speaks wire protocol {frame.get('proto')!r}, "
            f"this process speaks {PROTOCOL_VERSION!r}; update its checkout"
        )


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

    def workers_for(self, jobs: Sequence[SimulationJob]) -> int:
        return max(1, min(len(self.hosts), len(jobs)))

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
            validate_ready(read_frame(proc.stdout), host)
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
                extra = read_frame(proc.stdout)
                if extra is None or extra.get("kind") != "metrics" or extra.get("id") != index:
                    raise BackendError(
                        f"worker on {host!r} did not follow result {index} "
                        f"with its metrics frame"
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
        hosts = self.hosts[: self.workers_for(jobs)]
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


def _env_backend_spec() -> str:
    return os.environ.get(ENV_BACKEND, "").strip() or DEFAULT_BACKEND_SPEC


def get_default_backend_spec() -> str:
    """The backend spec ``resolve_backend(None)`` would use."""
    if _default_backend_spec is not None:
        return _default_backend_spec
    return _env_backend_spec()


def fill_pool_workers(spec: Optional[str], jobs: Optional[int]) -> Optional[str]:
    """Apply ``--jobs``: the worker count of a bare ``pool`` spec.

    ``spec`` is the ``--backend`` value, or ``None`` for
    ``$REPRO_BACKEND`` or the default. When that spec is a bare ``pool``,
    ``jobs`` fills in its count (``pool:JOBS``); ``pool:N``, ``serial``
    and ``ssh:...`` are returned unchanged, as is any spec when ``jobs``
    is ``None``.
    """
    if jobs is None:
        return spec
    text = spec if spec is not None else _env_backend_spec()
    return f"pool:{jobs}" if text.strip() == "pool" else spec


def resolve_backend(
    backend: Union[None, str, ExecutionBackend] = None,
) -> ExecutionBackend:
    """Normalize a backend request to a concrete backend instance.

    ``None`` falls back to the process-wide default (itself defaulting
    to ``$REPRO_BACKEND`` or the process pool); a string is parsed as a
    spec, so each call makes a new instance.
    """
    if backend is None:
        backend = get_default_backend_spec()
    if isinstance(backend, str):
        backend = parse_backend_spec(backend)
    return backend
