"""Layered result stores: local directory, shared write-once, composition.

The persistent layer under the engine's memo used to be exactly one
thing — a per-host ``~/.cache/repro`` directory. A fleet of workers
needs the cache to deduplicate *globally*, so the layer is now a
:class:`ResultStore` protocol with three shapes (selected by the CLIs'
``--store`` flag, see :func:`parse_store_spec`):

* :class:`repro.exec.cache.ResultCache` (``--store local``, the
  default) — the historical per-host directory store, unchanged.
* :class:`SharedDirectoryStore` (``--store shared:DIR``) — a directory
  on a shared filesystem (NFS-style) with **write-once atomic publish**:
  entries are staged as temp files and linked into place, the first
  writer wins, and losers discard their copy. Readers can never observe
  a torn entry (the visible file is always a completed publish), and a
  key's bytes never change once published — which is exactly the
  contract content-addressed keys (model fingerprint + schema version)
  license.
* :class:`LayeredStore` (``--store layered:DIR``) — read-through /
  write-back composition: reads hit the fast local tier first and
  promote shared hits into it; writes land in both, so one host's cold
  run warms the whole fleet.

Every store treats corrupt or truncated entries as misses, removes
them, and lets the next writer republish — a half-written or damaged
file degrades to one redundant simulation, never an exception.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Protocol, Tuple, Union

from repro.exec.cache import (
    ENV_STORE,
    ResultCache,
    StoreStats,
    VerifyReport,
    default_cache_dir,
)


class ResultStore(Protocol):
    """What :mod:`repro.exec.engine`, the one caching layer, requires of a store."""

    name: str

    def get(self, key: str) -> Optional[object]:
        """The stored value for ``key``, or ``None`` on a miss."""
        ...

    def put(self, key: str, value: object) -> None:
        """Persist ``value`` under ``key`` (atomically, never torn)."""
        ...

    def describe(self) -> str:
        """A one-line human description for logs and error messages."""
        ...


class SharedDirectoryStore(ResultCache):
    """A write-once directory store for shared (NFS-style) filesystems.

    Layout is identical to :class:`ResultCache` (``key[:2]/key.pkl``
    shards), so the same keys address both tiers. ``put`` differs:

    * an existing entry is never overwritten (``publish_skipped``
      counts the skips) — first writer wins;
    * publication is staged to a temp file in the same directory and
      ``os.link``-ed into place, so a concurrent loser detects the race
      atomically instead of clobbering the winner (``os.replace`` is the
      fallback for filesystems without hard links);
    * a loser that finds the winning entry corrupt (a crashed writer's
      damage surfaced by a reader deleting it mid-race is benign, but a
      truncated pre-atomic-rename artifact is not) atomically replaces
      it rather than skipping.
    """

    name = "shared"

    def __init__(self, directory: Union[str, Path]):
        super().__init__(directory)
        self.publish_skipped = 0

    def _entry_is_valid(self, path: Path) -> bool:
        import pickle

        try:
            pickle.loads(path.read_bytes())
        except Exception:
            return False
        return True

    def put(self, key: str, value: object) -> None:
        """Publish ``value`` under ``key`` unless someone already has."""
        import os
        import pickle
        import tempfile

        path = self._path(key)
        if path.exists():
            self.publish_skipped += 1
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                os.link(tmp_name, path)
            except FileExistsError:
                # Lost the publish race. The winner's entry is complete
                # (links are atomic), so keep it — unless it is corrupt,
                # in which case repair it with our fresh copy.
                if self._entry_is_valid(path):
                    self.publish_skipped += 1
                else:
                    os.replace(tmp_name, path)
                    self.writes += 1
            except OSError:
                # Filesystem without hard links: plain atomic replace.
                os.replace(tmp_name, path)
                self.writes += 1
            else:
                self.writes += 1
        finally:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass

    def describe(self) -> str:
        return f"shared:{self.directory}"


class LayeredStore:
    """Read-through / write-back composition of a local and a shared tier.

    ``get`` consults the local tier, then the shared tier (promoting
    hits into the local tier so the fleet's published results become
    local after first touch). ``put`` writes both tiers: the local copy
    serves this host's next read without touching shared storage, the
    shared publish deduplicates the rest of the fleet.
    """

    name = "layered"

    def __init__(self, local: ResultCache, shared: SharedDirectoryStore):
        self.local = local
        self.shared = shared
        self.local_hits = 0
        self.shared_hits = 0
        self.misses = 0
        self.writes = 0

    @property
    def directory(self) -> Path:
        """The local tier's directory (the host-writable side)."""
        return self.local.directory

    def get(self, key: str) -> Optional[object]:
        value = self.local.get(key)
        if value is not None:
            self.local_hits += 1
            return value
        value = self.shared.get(key)
        if value is not None:
            self.shared_hits += 1
            self.local.put(key, value)
            return value
        self.misses += 1
        return None

    def put(self, key: str, value: object) -> None:
        self.local.put(key, value)
        self.shared.put(key, value)
        self.writes += 1

    def describe(self) -> str:
        return f"layered(local={self.local.directory}, shared={self.shared.directory})"

    def __repr__(self) -> str:
        return f"LayeredStore({self.describe()})"


def store_layers(store: object) -> List[Tuple[str, ResultCache]]:
    """The directory-backed tiers of ``store``, outermost first.

    The ``repro cache`` operator commands iterate these to report and
    maintain each tier individually.
    """
    if isinstance(store, LayeredStore):
        return [("local", store.local), ("shared", store.shared)]
    if isinstance(store, ResultCache):
        return [(getattr(store, "name", "local"), store)]
    raise TypeError(f"not a directory-backed store: {type(store).__name__}")


def parse_store_spec(
    spec: Optional[str], cache_dir: Union[None, str, Path] = None
) -> ResultStore:
    """Build a result store from a ``--store`` spec string.

    ``local`` | ``shared:DIR`` | ``layered:DIR`` — ``DIR`` is the shared
    directory; the local tier always lives at ``cache_dir`` (or the
    ``$REPRO_CACHE_DIR`` / ``~/.cache/repro`` default). ``~`` in either
    directory expands to the user's home, exactly like ``--cache-dir``.
    """
    text = (spec or "local").strip()
    head, sep, rest = text.partition(":")
    local_dir = Path(cache_dir).expanduser() if cache_dir else default_cache_dir()
    if head == "local" and not sep:
        return ResultCache(local_dir)
    if head == "shared" and rest:
        return SharedDirectoryStore(Path(rest).expanduser())
    if head == "layered" and rest:
        return LayeredStore(
            ResultCache(local_dir), SharedDirectoryStore(Path(rest).expanduser())
        )
    raise ValueError(
        f"unknown store spec {spec!r}; expected 'local', 'shared:DIR', or 'layered:DIR'"
    )


__all__ = [
    "ENV_STORE",
    "LayeredStore",
    "ResultStore",
    "SharedDirectoryStore",
    "StoreStats",
    "VerifyReport",
    "parse_store_spec",
    "store_layers",
]
