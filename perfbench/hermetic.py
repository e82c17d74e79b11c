"""Hermetic run directories and externally timed child processes.

Every measured invocation of the program runs in a fresh child process
whose ``HOME``, ``XDG_CACHE_HOME``, ``TMPDIR``, compiled-kernel cache
(``REPRO_KERNEL_CACHE``) and result store (``--cache-dir``) all live in
a per-run directory under the checkout, and whose environment carries
no ``REPRO_*`` setting of the caller, so every run sees default flags.

Wall time runs from spawning the child to reaping it; CPU time (user
plus system) and peak RSS are the child's own ``ru_utime + ru_stime``
and ``ru_maxrss`` as reported by ``wait4``, never the harness's.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Where per-run directories are created, relative to the checkout root.
RUNS_DIR = ".bench_runs"

#: Set-up child: write the CLI's bytecode and compile both C kernels
#: into the run's own kernel cache, so no timed run pays for either.
_KERNEL_SETUP = (
    "import repro.cli\n"
    "from repro.cpu import _kernel_build, _trace_build\n"
    "_kernel_build.kernel_library()\n"
    "_trace_build.trace_library()\n"
)


class BenchError(RuntimeError):
    """The benchmark itself cannot proceed (not a program failure)."""


@dataclass
class Usage:
    """A reaped child's own CPU seconds and peak RSS in MB."""

    cpu_s: float
    peak_rss_mb: float


@dataclass
class Outcome:
    """One reaped child: exit code, its time and memory."""

    code: int
    wall_s: float
    usage: Usage
    stdout: Path
    stderr: Path

    def stdout_bytes(self) -> bytes:
        return self.stdout.read_bytes()


class RunDir:
    """A per-run directory holding home, kernel cache, temp and stores."""

    def __init__(self, root: Path, label: str):
        self.root = root
        base = root / RUNS_DIR
        base.mkdir(exist_ok=True)
        stamp = f"{label}-{os.getpid()}-{time.monotonic_ns()}"
        self.path = base / stamp
        self.home = self.path / "home"
        self.kernels = self.path / "kernels"
        self.tmp = self.path / "tmp"
        for directory in (self.home / ".cache", self.kernels, self.tmp):
            directory.mkdir(parents=True)
        self._stores = 0
        self._logs = 0

    def new_store(self) -> Path:
        """A fresh, empty result-store directory."""
        self._stores += 1
        store = self.path / f"store{self._stores}"
        store.mkdir()
        return store

    def log_paths(self, tag: str) -> Tuple[Path, Path]:
        self._logs += 1
        stem = self.path / f"{self._logs:04d}-{tag}"
        return stem.with_suffix(".out"), stem.with_suffix(".err")

    def env(self) -> Dict[str, str]:
        """The child environment: caller's PATH etc., no REPRO_* knobs."""
        env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_") and key != "PYTHONPATH"
        }
        env.update(
            HOME=str(self.home),
            XDG_CACHE_HOME=str(self.home / ".cache"),
            TMPDIR=str(self.tmp),
            REPRO_KERNEL_CACHE=str(self.kernels),
            PYTHONPATH=str(self.root / "src"),
        )
        return env

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, Usage]:
    """Wait for ``proc`` (killing it past ``timeout``); (exit code, usage)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # keep Popen from waiting on a reaped pid
    # Linux reports ru_maxrss in KiB.
    return code, Usage(rusage.ru_utime + rusage.ru_stime, rusage.ru_maxrss / 1024.0)


def spawn(
    run: RunDir, argv: Sequence[str], tag: str
) -> Tuple[subprocess.Popen, Path, Path]:
    """Start ``python3 argv...`` in the run's hermetic environment."""
    out_path, err_path = run.log_paths(tag)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *argv],
            cwd=run.root,
            env=run.env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
        )
    return proc, out_path, err_path


def run_timed(
    run: RunDir, argv: Sequence[str], tag: str, timeout: float = 170.0
) -> Outcome:
    """Spawn, wait and time one child from spawn to reap."""
    started = time.perf_counter()
    proc, out_path, err_path = spawn(run, argv, tag)
    code, usage = reap(proc, timeout)
    return Outcome(code, time.perf_counter() - started, usage, out_path, err_path)


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> Tuple[int, Usage]:
    """Interrupt a long-running child (``repro serve``) and reap it."""
    if proc.returncode is None:
        try:
            proc.send_signal(signal.SIGINT)
        except ProcessLookupError:
            pass
    return reap(proc, timeout)


def wait_for_line(path: Path, marker: str, proc: subprocess.Popen, timeout: float) -> str:
    """Poll a child's log until a line containing ``marker`` appears."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for line in path.read_text(errors="replace").splitlines():
            if marker in line:
                return line
        if proc.poll() is not None:
            break
        time.sleep(0.005)
    raise BenchError(
        f"child never printed {marker!r}: {path.read_text(errors='replace')[-2000:]}"
    )


def kernel_setup_argv() -> List[str]:
    return ["-c", _KERNEL_SETUP]


def checked(outcome: Outcome, what: str) -> Outcome:
    """Raise :class:`BenchError` when a set-up child failed."""
    if outcome.code != 0:
        raise BenchError(
            f"{what} exited {outcome.code}: "
            f"{outcome.stderr.read_text(errors='replace')[-2000:]}"
        )
    return outcome


def user_cache_state() -> Dict[str, Optional[Tuple[int, int, int]]]:
    """Metadata fingerprint of the caller's own repro caches.

    Only ``stat`` metadata is read (entry count, total size, newest
    mtime); the session fails if it differs before and after.
    """
    base = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache")
    state: Dict[str, Optional[Tuple[int, int, int]]] = {}
    for name in ("repro", "repro-kernel"):
        directory = base / name
        if not directory.is_dir():
            state[name] = None
            continue
        count = size = newest = 0
        for parent, _dirs, files in os.walk(directory):
            for file_name in files:
                try:
                    info = os.stat(os.path.join(parent, file_name))
                except OSError:
                    continue
                count += 1
                size += info.st_size
                newest = max(newest, info.st_mtime_ns)
        state[name] = (count, size, newest)
    return state
