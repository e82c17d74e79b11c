"""Lazy build and ctypes bindings for the C batch kernel.

The batched pipeline kernel (:mod:`repro.cpu.kernel`) executes the cycle
loop in a small C99 engine, ``_pipeline_kernel.c``, shipped as source
next to this module. Nothing is compiled at install time: the first
batch-kernel run compiles it with the system C compiler (``$CC`` or
``cc``) into a per-source-hash cache directory and loads it via ctypes.
The ABI is plain C (no ``Python.h``), so the build needs only a C
compiler — no Python headers, no third-party packages.

:func:`build_shared_library` is the reusable half of that recipe —
hash-keyed cache lookup, atomic compile, tempdir fallback — shared with
the columnar trace walker (:mod:`repro.cpu._trace_build`), which ships
its own C source under the same contract.

When no compiler is available (or the build fails), the batch kernel is
simply unavailable: :func:`batch_kernel_available` returns False with a
reason, and callers fall back to (or error toward) the walked reference
path. Results can never differ — the equivalence gate guarantees the
kernel reproduces the walk float-for-float — so availability only ever
affects speed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import uuid
from pathlib import Path
from typing import List, Optional

from repro.cpu.config import MachineConfig

#: Length of the int64 config block passed to ``repro_create``; the
#: index layout must match the ``CFG_*`` defines in _pipeline_kernel.c.
CFG_LEN = 53

#: Length of the int64 scalar-statistics block filled by ``repro_export``.
EXPORT_LEN = 31

#: ``repro_feed`` / ``repro_finalize`` status codes (C ``ST_*``).
ST_NEED_DATA = 1
ST_DONE = 2
ST_DEADLOCK = 3
ST_ERROR = -1

#: Sleep threshold meaning "this unit never self-sleeps" (C INT64_MAX).
THRESH_NEVER = 2**63 - 1

#: Stateful-policy callback: (unit, closed_interval_length) -> new sleep
#: threshold for that unit; length == -1 signals the warmup reset.
CLOSE_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int64, ctypes.c_int32, ctypes.c_int64)

#: Flags of every kernel compile. ``-ffp-contract=off`` keeps each
#: ``a + b * c`` two IEEE roundings, as in Python: clang, and GCC on
#: aarch64, would otherwise fuse it into one multiply-add.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_SOURCE = Path(__file__).resolve().parent / "_pipeline_kernel.c"

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None
#: Held by the first load, so threads that all find the library unloaded
#: compile and ``CDLL`` it once between them.
_load_lock = threading.Lock()


def _cache_dir(build_key: str) -> Path:
    """Where the compiled kernel for this source revision and compile
    command lives.

    ``REPRO_KERNEL_CACHE`` overrides the root (useful for tests and
    hermetic CI); otherwise a per-user cache directory is used so repeat
    processes skip the compile entirely.
    """
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if root:
        base = Path(root)
    else:
        xdg = os.environ.get("XDG_CACHE_HOME")
        base = Path(xdg) if xdg else Path.home() / ".cache"
        base = base / "repro-kernel"
    return base / build_key[:16]


def _compiler() -> str:
    """The C compiler every kernel compile runs: ``$CC``, else ``cc``."""
    return os.environ.get("CC", "cc")


def _compile(source: Path, output: Path) -> None:
    """Compile the kernel shared object (atomically) into ``output``."""
    compiler = _compiler()
    if shutil.which(compiler) is None:
        raise RuntimeError(f"no C compiler: {compiler!r} not found on PATH")
    output.parent.mkdir(parents=True, exist_ok=True)
    # Unique temp name + atomic rename: concurrent processes may race to
    # build the same hash and must never load a half-written object.
    scratch = output.parent / f".build-{uuid.uuid4().hex}.so"
    command = [compiler, *CFLAGS, "-o", str(scratch), str(source)]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        raise RuntimeError(f"kernel compile failed to run: {error}") from error
    if proc.returncode != 0:
        detail = (proc.stderr or proc.stdout or "").strip()[:2000]
        scratch.unlink(missing_ok=True)
        raise RuntimeError(
            f"kernel compile failed (exit {proc.returncode}): {detail}"
        )
    os.replace(scratch, output)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare argument/return types for every exported kernel symbol."""
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    p_i64 = ctypes.POINTER(i64)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    handle = ctypes.c_void_p

    lib.repro_create.argtypes = [p_i64]
    lib.repro_create.restype = handle
    lib.repro_set_sleep.argtypes = [handle, i64, i32, i32, p_i64, CLOSE_CALLBACK]
    lib.repro_set_sleep.restype = i32
    lib.repro_feed.argtypes = [
        handle, p_u8, p_i64, p_i64, p_i64, p_i64, p_u8, p_i64, i64,
    ]
    lib.repro_feed.restype = i32
    lib.repro_finalize.argtypes = [handle]
    lib.repro_finalize.restype = i32
    lib.repro_export.argtypes = [handle, p_i64]
    lib.repro_export.restype = None
    lib.repro_unit_stat.argtypes = [handle, i32, i32]
    lib.repro_unit_stat.restype = i64
    lib.repro_intervals_len.argtypes = [handle, i32]
    lib.repro_intervals_len.restype = i64
    lib.repro_intervals_copy.argtypes = [handle, i32, p_i64]
    lib.repro_intervals_copy.restype = None
    lib.repro_destroy.argtypes = [handle]
    lib.repro_destroy.restype = None
    return lib


def build_shared_library(source: Path) -> Path:
    """Compile ``source`` into the hash-keyed cache; return the .so path.

    Compiles at most once per source revision and compile command: the
    output lives in a directory keyed by the SHA-256 of the source, the
    compiler name (``$CC``, else ``cc``) and :data:`CFLAGS`, so a new
    flag or another compiler builds afresh instead of loading an object
    built under the old ones. An atomic rename means racing processes
    never load a half-written object. An unwritable cache root falls
    back to a throwaway (still hash-keyed) build under the system temp
    directory. Raises ``RuntimeError`` on compile failure.
    """
    digest = hashlib.sha256(source.read_bytes())
    digest.update("\0".join([_compiler(), *CFLAGS]).encode())
    build_key = digest.hexdigest()
    stem = source.stem
    shared = _cache_dir(build_key) / f"{stem}.so"
    if not shared.exists():
        try:
            _compile(source, shared)
        except OSError:
            shared = (
                Path(tempfile.gettempdir())
                / f"repro-kernel-{build_key[:16]}"
                / f"{stem}.so"
            )
            if not shared.exists():
                _compile(source, shared)
    return shared


def kernel_library() -> ctypes.CDLL:
    """The loaded kernel shared library, building it on first use.

    Raises ``RuntimeError`` (with the original failure detail) when the
    kernel cannot be built or loaded; the outcome — success or failure —
    is cached for the life of the process, and reached once however
    many threads ask first.
    """
    global _lib, _load_attempted, _load_error
    if _lib is not None:
        return _lib
    with _load_lock:
        if _lib is not None:
            return _lib
        if _load_attempted and _load_error is not None:
            raise RuntimeError(_load_error)
        _load_attempted = True
        try:
            _lib = _bind(ctypes.CDLL(str(build_shared_library(_SOURCE))))
        except Exception as error:  # noqa: BLE001 - reason is surfaced to callers
            _load_error = f"batch kernel unavailable: {error}"
            raise RuntimeError(_load_error) from error
        return _lib


def batch_kernel_available() -> bool:
    """Can the batch kernel be used in this process? (Builds on demand.)"""
    try:
        kernel_library()
    except RuntimeError:
        return False
    return True


def batch_kernel_unavailable_reason() -> Optional[str]:
    """Why the batch kernel cannot be used, or None when it can."""
    if batch_kernel_available():
        return None
    return _load_error


def _cache_fields(cache) -> List[int]:
    """[offset_bits, set_mask, set_bits, ways, hit_latency] for one cache."""
    num_sets = cache.num_sets
    return [
        cache.line_bytes.bit_length() - 1,
        num_sets - 1,
        num_sets.bit_length() - 1,
        cache.ways,
        cache.hit_latency,
    ]


def _tlb_fields(tlb) -> List[int]:
    """[page_bits, set_mask, set_bits, ways, miss_penalty] for one TLB."""
    num_sets = tlb.num_sets
    return [
        tlb.page_bytes.bit_length() - 1,
        num_sets - 1,
        num_sets.bit_length() - 1,
        tlb.ways,
        tlb.miss_penalty,
    ]


#: Architectural registers pinned by the renamer (pipeline.ARCH_REGS).
_ARCH_REGS = 32


def pack_config(
    config: MachineConfig,
    total_instructions: int,
    warmup_instructions: int,
    max_cycles: int,
) -> List[int]:
    """Flatten a machine configuration into the kernel's int64 block.

    Index layout mirrors the ``CFG_*`` defines in _pipeline_kernel.c;
    derived fields (set masks, register-file headroom) are computed here
    with exactly the arithmetic of the Python model so the two engines
    see identical machines.
    """
    predictor = config.branch_predictor
    cfg = [
        config.fetch_queue_entries,
        config.fetch_width,
        config.decode_width,
        config.issue_width,
        config.commit_width,
        config.reorder_buffer_entries,
        config.int_issue_entries,
        config.fp_issue_entries,
        max(1, config.int_physical_regs - _ARCH_REGS),
        max(1, config.fp_physical_regs - _ARCH_REGS),
        config.load_queue_entries,
        config.store_queue_entries,
        config.num_int_fus,
        config.num_fp_fus,
        config.num_memory_ports,
        config.branch_mispredict_latency,
        config.memory_latency,
    ]
    cfg += _cache_fields(config.l1_icache)
    cfg += _cache_fields(config.l1_dcache)
    cfg += _cache_fields(config.l2_cache)
    cfg += _tlb_fields(config.itlb)
    cfg += _tlb_fields(config.dtlb)
    cfg += [
        predictor.bimodal_entries - 1,
        predictor.level2_entries - 1,
        predictor.meta_entries - 1,
        (1 << predictor.history_bits) - 1,
        predictor.ras_entries,
        predictor.btb_sets - 1,
        (predictor.btb_sets - 1).bit_length(),
        predictor.btb_ways,
        total_instructions,
        warmup_instructions,
        max_cycles,
    ]
    if len(cfg) != CFG_LEN:
        raise AssertionError(
            f"config block is {len(cfg)} entries, expected {CFG_LEN}"
        )
    return cfg
