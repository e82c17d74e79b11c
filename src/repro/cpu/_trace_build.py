"""Lazy build and ctypes bindings for the C columnar trace walker.

``_trace_kernel.c`` builds a profile's static program and replays the
dynamic CFG walk over it, with bit-exact CPython-``random`` draw
semantics: the structure, walk and data generators' states are
transplanted from ``Random.getstate()``, so no seeding logic exists in
C. One ``repro_trace_create`` call builds the program, and ``ctypes``
releases the GIL for it as for every ``repro_trace_fill``. Build and
caching follow the batch pipeline kernel exactly — lazy ``cc`` compile
into the cache keyed by source and compile command via
:func:`repro.cpu._kernel_build.build_shared_library`, plain C ABI, no
``Python.h`` — and availability only ever affects speed: without a
compiler :func:`repro.cpu.workloads.iter_trace` chunks the reference
walk instead, which the CI digest gate pins the walker to.
"""

from __future__ import annotations

import ctypes
import threading
from pathlib import Path
from typing import Optional

from repro.cpu._kernel_build import build_shared_library

_SOURCE = Path(__file__).resolve().parent / "_trace_kernel.c"

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_load_error: Optional[str] = None
#: Held by the first load, so threads that all find the library unloaded
#: compile and ``CDLL`` it once between them.
_load_lock = threading.Lock()


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    """Declare argument/return types for the trace-walker symbols."""
    i64 = ctypes.c_int64
    p_f64 = ctypes.POINTER(ctypes.c_double)
    p_i64 = ctypes.POINTER(i64)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    p_u32 = ctypes.POINTER(ctypes.c_uint32)
    handle = ctypes.c_void_p

    lib.repro_trace_create.argtypes = [
        p_f64, p_i64,          # cfg_f, cfg_i
        p_u32, p_u32, p_u32,   # structure / walk / data MT states (625 words)
        p_u8,                  # the ordered deck
        i64,                   # pc_offset
    ]
    lib.repro_trace_create.restype = handle
    lib.repro_trace_fill.argtypes = [
        handle, i64, p_u8, p_i64, p_i64, p_i64, p_i64, p_u8, p_i64,
    ]
    lib.repro_trace_fill.restype = i64
    lib.repro_trace_destroy.argtypes = [handle]
    lib.repro_trace_destroy.restype = None
    return lib


def trace_library() -> ctypes.CDLL:
    """The loaded trace-walker library, building it on first use.

    Raises ``RuntimeError`` when it cannot be built or loaded; the
    outcome is cached for the life of the process, and reached once
    however many threads ask first.
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
            _load_error = f"trace kernel unavailable: {error}"
            raise RuntimeError(_load_error) from error
        return _lib


# -- array.array -> ctypes pointer casts ---------------------------------------

_P_F64 = ctypes.POINTER(ctypes.c_double)
_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_U8 = ctypes.POINTER(ctypes.c_uint8)
_P_U32 = ctypes.POINTER(ctypes.c_uint32)


def f64_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_F64)


def i64_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_I64)


def u8_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_U8)


def u32_ptr(column) -> "ctypes._Pointer":
    return ctypes.cast(column.buffer_info()[0], _P_U32)


def trace_kernel_available() -> bool:
    """Can the C trace walker be used here? (Builds on demand.)"""
    try:
        trace_library()
    except RuntimeError:
        return False
    return True


def trace_kernel_unavailable_reason() -> Optional[str]:
    """Why the C trace walker cannot be used, or None when it can."""
    if trace_kernel_available():
        return None
    return _load_error
