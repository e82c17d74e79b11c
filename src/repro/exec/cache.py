"""Persistent on-disk result cache.

Stores pickled values keyed by the canonical hashes of
:mod:`repro.exec.hashing`, under ``~/.cache/repro`` by default (override
with ``--cache-dir`` on the CLIs or the ``REPRO_CACHE_DIR`` environment
variable; disable entirely with ``--no-cache`` or ``REPRO_NO_CACHE=1``).

Because every key folds in the model fingerprint, entries written by an
older version of the simulator are simply never looked up again — stale
results cannot leak across code changes. Writes are atomic (temp file +
rename) so concurrent processes sharing one cache directory never observe
torn entries.

The module keeps one process-wide *active* store, configured once by the
CLI (or implicitly on first use); :mod:`repro.exec.engine` layers it
under its bounded in-process memo. The default shape is this module's
plain local directory store; ``--store shared:DIR`` / ``--store
layered:DIR`` swap in the write-once shared-filesystem compositions of
:mod:`repro.exec.stores` behind the same ``get``/``put`` protocol.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_NO_CACHE = "REPRO_NO_CACHE"
ENV_STORE = "REPRO_STORE"

_SUFFIX = ".pkl"


@dataclass(frozen=True)
class StoreStats:
    """What ``repro cache stats`` reports for one store tier."""

    entries: int
    total_bytes: int


@dataclass(frozen=True)
class VerifyReport:
    """What ``repro cache verify`` found in one store tier."""

    checked: int
    ok: int
    #: Corrupt entries found — and removed, so the next writer rewrites
    #: them instead of every reader tripping over the damage.
    corrupt: int


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro").expanduser()


class ResultCache:
    """A directory of pickled values addressed by hex content keys.

    Entries are sharded into ``key[:2]`` subdirectories to keep any one
    directory small. Unreadable, truncated, or corrupt entries count as
    misses and are deleted, so the next writer simply rewrites them —
    damage degrades to one redundant simulation, never an exception.

    This is the ``local`` tier of the :mod:`repro.exec.stores` protocol;
    :class:`~repro.exec.stores.SharedDirectoryStore` layers write-once
    publish semantics on the same layout.
    """

    name = "local"

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory).expanduser()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def _path(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be lowercase hex, got {key!r}")
        return self.directory / key[:2] / (key + _SUFFIX)

    def get(self, key: str) -> Optional[object]:
        """The cached value for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            value = pickle.loads(data)
        except Exception:
            # A torn or incompatible entry: drop it and treat as a miss.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return value

    def put(self, key: str, value: object) -> None:
        """Atomically persist ``value`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.writes += 1

    def _entries(self) -> Iterator[Path]:
        if not self.directory.is_dir():
            return iter(())
        return self.directory.glob(f"??/*{_SUFFIX}")

    def entries(self) -> Iterator[Tuple[str, Path]]:
        """Every ``(key, path)`` currently stored, in directory order."""
        for path in self._entries():
            yield path.name[: -len(_SUFFIX)], path

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> str:
        return f"{self.name}:{self.directory}"

    # -- operator maintenance (the ``repro cache`` subcommand) ---------

    def stats(self) -> StoreStats:
        """Entry count and total size on disk."""
        entries = 0
        total = 0
        for path in self._entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
            entries += 1
        return StoreStats(entries=entries, total_bytes=total)

    def verify(self) -> VerifyReport:
        """Unpickle every entry; remove (and count) the corrupt ones."""
        checked = ok = corrupt = 0
        for path in list(self._entries()):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            checked += 1
            try:
                pickle.loads(data)
            except Exception:
                corrupt += 1
                try:
                    path.unlink()
                except OSError:
                    pass
            else:
                ok += 1
        return VerifyReport(checked=checked, ok=ok, corrupt=corrupt)

    def gc(self, older_than_seconds: float, now: Optional[float] = None) -> int:
        """Remove entries not modified in the last ``older_than_seconds``.

        Returns how many were removed. Content-addressed entries never
        go stale (the model fingerprint in the key sees to that), so gc
        is purely a disk-space lever — pruning old entries can only
        cost re-simulation, never correctness.
        """
        cutoff = (now if now is not None else time.time()) - older_than_seconds
        removed = 0
        for path in list(self._entries()):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if mtime < cutoff:
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed


# -- process-wide active cache -------------------------------------------------

#: The active store: a :class:`ResultCache`, or any
#: :class:`repro.exec.stores.ResultStore` (shared/layered compositions).
_active_cache: Optional[object] = None
_enabled: bool = True
_configured: bool = False


def configure(
    cache_dir: Optional[Union[str, Path]] = None,
    enabled: bool = True,
    store: Optional[object] = None,
) -> Optional[ResultCache]:
    """Set the process-wide store; returns it (``None`` when disabled).

    ``cache_dir=None`` selects :func:`default_cache_dir`. ``store``
    picks the store shape: ``None`` consults ``$REPRO_STORE`` and
    defaults to the plain local directory store; a spec string
    (``local`` | ``shared:DIR`` | ``layered:DIR``) is parsed by
    :func:`repro.exec.stores.parse_store_spec`; any other object is
    installed as-is (for tests and embedders providing their own
    :class:`~repro.exec.stores.ResultStore`). Passing ``enabled=False``
    (the CLI's ``--no-cache``) turns the persistent layer off; the
    engine's in-process memo is unaffected. A malformed spec raises
    ``ValueError`` either way.
    """
    global _active_cache, _enabled, _configured
    if store is None:
        store = os.environ.get(ENV_STORE) or None
    _configured = True
    _enabled = enabled and os.environ.get(ENV_NO_CACHE, "") not in ("1", "true")
    if not _enabled:
        if isinstance(store, str):
            from repro.exec.stores import parse_store_spec

            parse_store_spec(store, cache_dir)  # validates; creates nothing
        _active_cache = None
        return None
    if store is None or (isinstance(store, str) and store.strip() == "local"):
        directory = Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
        # Reuse the live store (and its counters) when nothing changed;
        # a non-plain store (shared/layered) is always rebuilt so a
        # ``--store local`` run cannot inherit a layered composition.
        if type(_active_cache) is not ResultCache or _active_cache.directory != directory:
            _active_cache = ResultCache(directory)
    elif isinstance(store, str):
        from repro.exec.stores import parse_store_spec

        _active_cache = parse_store_spec(store, cache_dir)
    else:
        _active_cache = store
    return _active_cache


def active() -> Optional[object]:
    """The process-wide store, configured on first use; ``None`` if off."""
    if not _configured:
        configure()
    return _active_cache if _enabled else None


def snapshot() -> tuple:
    """Opaque snapshot of the process-wide cache configuration.

    Pair with :func:`restore` around code that calls :func:`configure`
    (tests, embedding applications) to avoid leaking configuration.
    """
    return (_active_cache, _enabled, _configured)


def restore(state: tuple) -> None:
    """Reinstate a configuration captured by :func:`snapshot`."""
    global _active_cache, _enabled, _configured
    _active_cache, _enabled, _configured = state
