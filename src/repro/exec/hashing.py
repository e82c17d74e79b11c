"""Canonical content hashing for simulation job keys.

A persistent result cache is only sound if its keys capture *everything*
that determines a simulation's outcome: the workload profile, the machine
configuration, the window sizing — and the simulator implementation
itself. This module provides

* :func:`canonical_form` / :func:`canonical_key` — a deterministic,
  recursive dump of dataclass trees to JSON, hashed with SHA-256, so two
  structurally-equal configurations always produce the same key;
* :func:`model_fingerprint` — a digest of the source code of every
  module that feeds the simulation (the :mod:`repro.cpu` package plus the
  RNG and interval bookkeeping), folded into every key so cached results
  are invalidated automatically when the model changes.

:meth:`repro.exec.jobs.SimulationJob.cache_key` memoizes
:func:`simulation_key`, so each distinct simulation is hashed once per
process. This module imports nothing from :mod:`repro.cpu`, so the
stdio worker can answer its handshake without loading the simulator.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Optional

#: Bump when the on-disk entry format changes incompatibly (e.g. a new
#: pickle layout); this invalidates every existing cache entry at once.
#: v2: SimulationResult/Stats grew closed-loop fields (sleep spec,
#: runtime tallies, wakeup stalls).
CACHE_SCHEMA_VERSION = 2

#: Files whose source determines simulation outcomes, relative to the
#: ``repro`` package root. Closed-loop runs consult the sleep policies
#: *during* simulation, so the policy-defining core modules are in;
#: phased composite profiles build their traces in
#: ``scenarios/phased.py``, so it is in too. The ``cpu`` entry is a
#: directory glob, so the chunk machinery (``cpu/stream.py``) — a
#: trace-delivery layer whose chunk-size gate makes it outcome-neutral,
#: but which sits on the trace path all the same — is fingerprinted
#: automatically. The downstream-only accounting/vectorization modules
#: (and the scenario *sampling* code, which only decides which profiles
#: exist, never what a given profile simulates to) stay out.
_MODEL_SOURCES = (
    "cpu",
    "util/rng.py",
    "util/intervals.py",
    "core/parameters.py",
    "core/breakeven.py",
    "core/gradual.py",
    "core/policies.py",
    "core/sleep_control.py",
    "scenarios/phased.py",
)

_fingerprint_cache: Optional[str] = None


def _package_root() -> Path:
    """The installed ``repro`` package directory."""
    return Path(__file__).resolve().parent.parent


def model_fingerprint() -> str:
    """SHA-256 over the sources of every simulation-determining module.

    Computed once per process; editing any file under ``repro/cpu`` (or
    the RNG / interval helpers) changes the fingerprint and therefore
    every cache key, so stale persistent entries can never be returned
    for a changed model.
    """
    global _fingerprint_cache
    if _fingerprint_cache is not None:
        return _fingerprint_cache
    digest = hashlib.sha256()
    digest.update(f"schema:{CACHE_SCHEMA_VERSION}".encode())
    root = _package_root()
    for entry in _MODEL_SOURCES:
        path = root / entry
        if path.is_dir():
            # *.c covers the batch kernel's C engine: its equivalence
            # gate makes it outcome-neutral, but like cpu/stream.py it
            # sits on the simulation path, so a changed engine must
            # invalidate persistent entries all the same.
            files = sorted(
                [*path.rglob("*.py"), *path.rglob("*.c")]
            )
        else:
            files = [path]
        for source in files:
            digest.update(str(source.relative_to(root)).encode())
            digest.update(source.read_bytes())
    _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def canonical_form(obj: Any) -> Any:
    """Reduce a dataclass tree to plain JSON-serializable structures.

    Dataclasses are tagged with their class name so two different types
    with identical fields cannot collide; dict keys are stringified and
    sorted by the JSON encoder.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        form = {"__class__": type(obj).__qualname__}
        for field in dataclasses.fields(obj):
            form[field.name] = canonical_form(getattr(obj, field.name))
        return form
    if isinstance(obj, dict):
        return {str(key): canonical_form(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical_form(value) for value in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def canonical_key(payload: Any, *, versioned: bool = True) -> str:
    """SHA-256 hex key for a payload of dataclasses/primitives.

    With ``versioned`` (the default) the model fingerprint is folded in,
    which is what every persistent-cache key must use.
    """
    document = {"payload": canonical_form(payload)}
    if versioned:
        document["model"] = model_fingerprint()
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def simulation_key(
    profile: Any,
    num_instructions: int,
    warmup_instructions: int,
    seed: int,
    config: Any,
    sleep: Any = None,
    record_sequences: bool = True,
) -> str:
    """The canonical cache key for one simulation.

    It addresses both of the engine's result tiers, the in-process memo
    and the persistent store. ``sleep`` is the closed-loop
    :class:`~repro.cpu.sleep.SleepRuntimeSpec` (or None for a
    sleep-oblivious run): folding it in keeps closed-loop entries
    disjoint from open-loop ones — and from each other across policies,
    technology points, and wakeup latencies. ``record_sequences``
    changes what the stored result contains (ordered per-unit interval
    lists), so it is part of the key too.
    """
    return canonical_key(
        {
            "kind": "simulation",
            "profile": profile,
            "num_instructions": num_instructions,
            "warmup_instructions": warmup_instructions,
            "seed": seed,
            "config": config,
            "sleep": sleep,
            "record_sequences": record_sequences,
        }
    )
