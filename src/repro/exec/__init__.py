"""Experiment execution engine: job keys, persistent cache, scheduler.

This package is the substrate the experiments run on:

* :mod:`repro.exec.hashing` — canonical content hashing of job
  parameters, versioned by a fingerprint of the simulator sources;
* :mod:`repro.exec.cache` — the persistent on-disk result cache
  (``~/.cache/repro`` by default) layered under the engine's bounded
  in-process memo;
* :mod:`repro.exec.stores` — shared write-once and layered
  (read-through/write-back) result stores behind the same protocol, so
  a fleet deduplicates globally;
* :mod:`repro.exec.jobs` — :class:`SimulationJob`, the unit of
  schedulable work;
* :mod:`repro.exec.backends` — the pluggable execution backends
  (in-process serial, local process pool, SSH fan-out) behind one
  batch-submission protocol;
* :mod:`repro.exec.worker` — the stdio job worker remote backends
  drive, speaking length-prefixed JSON frames;
* :mod:`repro.exec.engine` — batch deduplication, result caching, and
  backend dispatch with deterministic result ordering.

The job/engine layer imports the simulator, so this ``__init__`` loads
only the simulator-free base modules eagerly and resolves the rest
lazily: importing :mod:`repro.exec.hashing` or :mod:`repro.exec.cache`
never loads the model.
"""

from __future__ import annotations

from repro.exec import cache, hashing
from repro.exec.cache import ResultCache, default_cache_dir
from repro.exec.hashing import canonical_key, model_fingerprint, simulation_key

_LAZY = {
    "SimulationJob": ("repro.exec.jobs", "SimulationJob"),
    "BatchReport": ("repro.exec.engine", "BatchReport"),
    "run_jobs": ("repro.exec.engine", "run_jobs"),
    "resolve_workers": ("repro.exec.engine", "resolve_workers"),
    "set_default_workers": ("repro.exec.engine", "set_default_workers"),
    "get_default_workers": ("repro.exec.engine", "get_default_workers"),
    "ExecutionBackend": ("repro.exec.backends", "ExecutionBackend"),
    "SerialBackend": ("repro.exec.backends", "SerialBackend"),
    "ProcessPoolBackend": ("repro.exec.backends", "ProcessPoolBackend"),
    "SSHBackend": ("repro.exec.backends", "SSHBackend"),
    "parse_backend_spec": ("repro.exec.backends", "parse_backend_spec"),
    "resolve_backend": ("repro.exec.backends", "resolve_backend"),
    "set_default_backend": ("repro.exec.backends", "set_default_backend"),
    "ResultStore": ("repro.exec.stores", "ResultStore"),
    "SharedDirectoryStore": ("repro.exec.stores", "SharedDirectoryStore"),
    "LayeredStore": ("repro.exec.stores", "LayeredStore"),
    "parse_store_spec": ("repro.exec.stores", "parse_store_spec"),
    "jobs": ("repro.exec.jobs", None),
    "engine": ("repro.exec.engine", None),
    "backends": ("repro.exec.backends", None),
    "stores": ("repro.exec.stores", None),
    "worker": ("repro.exec.worker", None),
}

__all__ = [
    "BatchReport",
    "ExecutionBackend",
    "LayeredStore",
    "ProcessPoolBackend",
    "ResultCache",
    "ResultStore",
    "SSHBackend",
    "SerialBackend",
    "SharedDirectoryStore",
    "SimulationJob",
    "backends",
    "cache",
    "canonical_key",
    "default_cache_dir",
    "engine",
    "get_default_workers",
    "hashing",
    "jobs",
    "model_fingerprint",
    "parse_backend_spec",
    "parse_store_spec",
    "resolve_backend",
    "resolve_workers",
    "run_jobs",
    "set_default_backend",
    "set_default_workers",
    "simulation_key",
    "stores",
    "worker",
]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module
