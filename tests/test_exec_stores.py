"""Tests for the layered result stores and the write-once shared store.

Covers the two reliability satellites directly: corrupt/truncated
entries degrade to a miss-and-rewrite (never an exception), and two
processes racing to publish the same key under the shared-directory
store leave exactly one intact entry behind.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.cpu.workloads import get_benchmark
from repro.exec import cache
from repro.exec.cache import ResultCache, StoreStats, VerifyReport
from repro.exec.engine import BatchReport, clear_memo, run_jobs
from repro.exec.jobs import SimulationJob
from repro.exec.stores import (
    LayeredStore,
    SharedDirectoryStore,
    parse_store_spec,
    store_layers,
)

KEY_A = "aa" + "0" * 62
KEY_B = "bb" + "0" * 62


def _garble(store: ResultCache, key: str) -> None:
    """Truncate ``key``'s entry mid-pickle, as a crashed writer would."""
    path = store._path(key)
    data = path.read_bytes()
    path.write_bytes(data[: max(1, len(data) // 2)])


class TestCorruptEntries:
    """Satellite: damage degrades to a miss and a rewrite, never a raise."""

    def test_truncated_entry_is_a_miss_and_is_removed(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put(KEY_A, {"value": list(range(100))})
        _garble(store, KEY_A)
        assert store.get(KEY_A) is None
        assert store.misses == 1
        assert not store._path(KEY_A).exists()

    def test_next_writer_rewrites_after_the_miss(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put(KEY_A, "first")
        _garble(store, KEY_A)
        assert store.get(KEY_A) is None
        store.put(KEY_A, "rewritten")
        assert store.get(KEY_A) == "rewritten"

    def test_garbage_bytes_are_a_miss_too(self, tmp_path):
        store = ResultCache(tmp_path)
        path = store._path(KEY_A)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"this was never a pickle")
        assert store.get(KEY_A) is None
        assert not path.exists()

    def test_shared_store_reader_heals_corruption(self, tmp_path):
        store = SharedDirectoryStore(tmp_path)
        store.put(KEY_A, "payload")
        _garble(store, KEY_A)
        assert store.get(KEY_A) is None  # miss + removal ...
        store.put(KEY_A, "payload")  # ... so write-once republishes
        assert store.get(KEY_A) == "payload"


class TestSharedDirectoryStore:
    def test_roundtrip(self, tmp_path):
        store = SharedDirectoryStore(tmp_path)
        store.put(KEY_A, {"answer": 42})
        assert store.get(KEY_A) == {"answer": 42}
        assert store.describe() == f"shared:{tmp_path}"

    def test_first_writer_wins(self, tmp_path):
        store = SharedDirectoryStore(tmp_path)
        store.put(KEY_A, "first")
        store.put(KEY_A, "second")
        assert store.get(KEY_A) == "first"
        assert store.publish_skipped == 1
        assert store.writes == 1

    def test_lost_link_race_keeps_the_winner(self, tmp_path):
        """A winner appearing between the exists() check and the link."""
        store = SharedDirectoryStore(tmp_path)
        winner = SharedDirectoryStore(tmp_path)
        original_exists = type(store._path(KEY_A)).exists

        fired = []

        def exists_then_publish(path_self):
            present = original_exists(path_self)
            if not present and path_self.suffix == ".pkl" and not fired:
                fired.append(True)
                winner.put(KEY_A, "winner")
            return present

        from unittest import mock

        with mock.patch("pathlib.Path.exists", exists_then_publish):
            store.put(KEY_A, "loser")
        assert store.get(KEY_A) == "winner"
        assert store.publish_skipped == 1

    def test_lost_race_against_corrupt_winner_repairs_it(self, tmp_path):
        store = SharedDirectoryStore(tmp_path)
        winner = SharedDirectoryStore(tmp_path)
        original_exists = type(store._path(KEY_A)).exists

        fired = []

        def exists_then_publish_garbage(path_self):
            present = original_exists(path_self)
            if not present and path_self.suffix == ".pkl" and not fired:
                fired.append(True)
                winner.put(KEY_A, "winner")
                _garble(winner, KEY_A)
            return present

        from unittest import mock

        with mock.patch("pathlib.Path.exists", exists_then_publish_garbage):
            store.put(KEY_A, "repaired")
        assert store.get(KEY_A) == "repaired"
        assert store.publish_skipped == 0

    def test_no_temp_files_left_behind(self, tmp_path):
        store = SharedDirectoryStore(tmp_path)
        store.put(KEY_A, "x")
        store.put(KEY_A, "y")
        assert not list(tmp_path.glob("**/*.tmp"))


def _racing_publish(directory, key, marker, barrier):
    store = SharedDirectoryStore(directory)
    payload = bytes([marker]) * 262_144  # big enough that a torn write shows
    barrier.wait(timeout=30)
    store.put(key, payload)


class TestConcurrentPublish:
    """Satellite: two processes racing one key publish cleanly."""

    @pytest.mark.parametrize("round_", range(3))
    def test_race_leaves_exactly_one_intact_entry(self, tmp_path, round_):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [
            ctx.Process(
                target=_racing_publish, args=(str(tmp_path), KEY_A, marker, barrier)
            )
            for marker in (ord("A"), ord("B"))
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        value = SharedDirectoryStore(tmp_path).get(KEY_A)
        # Never torn: the entry is one writer's payload in full.
        assert value in (b"A" * 262_144, b"B" * 262_144)
        assert not list(tmp_path.glob("**/*.tmp"))


class TestLayeredStore:
    def _layered(self, tmp_path):
        return LayeredStore(
            ResultCache(tmp_path / "local"), SharedDirectoryStore(tmp_path / "shared")
        )

    def test_write_back_lands_in_both_tiers(self, tmp_path):
        store = self._layered(tmp_path)
        store.put(KEY_A, "value")
        assert store.local.get(KEY_A) == "value"
        assert store.shared.get(KEY_A) == "value"
        assert store.writes == 1

    def test_read_through_promotes_shared_hits(self, tmp_path):
        store = self._layered(tmp_path)
        store.shared.put(KEY_A, "published-elsewhere")
        assert store.get(KEY_A) == "published-elsewhere"
        assert store.shared_hits == 1
        assert store.local.get(KEY_A) == "published-elsewhere"  # promoted
        assert store.get(KEY_A) == "published-elsewhere"
        assert store.local_hits == 1

    def test_miss_counts(self, tmp_path):
        store = self._layered(tmp_path)
        assert store.get(KEY_B) is None
        assert store.misses == 1

    def test_directory_is_the_local_tier(self, tmp_path):
        store = self._layered(tmp_path)
        assert store.directory == tmp_path / "local"
        assert "layered(local=" in store.describe()
        assert "LayeredStore" in repr(store)


class TestStoreLayers:
    def test_plain_cache_is_one_layer(self, tmp_path):
        store = ResultCache(tmp_path)
        assert store_layers(store) == [("local", store)]

    def test_layered_splits_into_two(self, tmp_path):
        store = LayeredStore(
            ResultCache(tmp_path / "l"), SharedDirectoryStore(tmp_path / "s")
        )
        assert store_layers(store) == [("local", store.local), ("shared", store.shared)]

    def test_non_directory_store_rejected(self):
        with pytest.raises(TypeError):
            store_layers(object())


class TestParseStoreSpec:
    def test_local(self, tmp_path):
        store = parse_store_spec("local", tmp_path)
        assert type(store) is ResultCache and store.directory == tmp_path

    def test_default_is_local(self, tmp_path):
        assert type(parse_store_spec(None, tmp_path)) is ResultCache

    def test_shared(self, tmp_path):
        store = parse_store_spec(f"shared:{tmp_path}", None)
        assert isinstance(store, SharedDirectoryStore)
        assert store.directory == tmp_path

    def test_layered(self, tmp_path):
        store = parse_store_spec(f"layered:{tmp_path / 's'}", tmp_path / "l")
        assert isinstance(store, LayeredStore)
        assert store.local.directory == tmp_path / "l"
        assert store.shared.directory == tmp_path / "s"

    def test_shared_tilde_expands_to_home(self, tmp_path, monkeypatch):
        """Regression: ``--store shared:~/fleet`` must expand the ``~``
        exactly like the local tier does, never create a literal
        ``./~/fleet`` directory."""
        monkeypatch.setenv("HOME", str(tmp_path))
        store = parse_store_spec("shared:~/fleet", None)
        assert store.directory == tmp_path / "fleet"
        assert "~" not in str(store.directory)

    def test_layered_tilde_expands_to_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        store = parse_store_spec("layered:~/fleet", tmp_path / "l")
        assert store.shared.directory == tmp_path / "fleet"

    def test_malformed_specs_rejected(self, tmp_path):
        for spec in ("bogus", "shared:", "layered:", "local:dir"):
            with pytest.raises(ValueError):
                parse_store_spec(spec, tmp_path)

    def test_configure_accepts_spec_strings(self, tmp_path, preserve_cache_config):
        store = cache.configure(
            cache_dir=tmp_path / "l", store=f"layered:{tmp_path / 's'}"
        )
        assert isinstance(store, LayeredStore)
        assert cache.active() is store

    def test_configure_reads_env_store(self, tmp_path, preserve_cache_config, monkeypatch):
        monkeypatch.setenv(cache.ENV_STORE, f"shared:{tmp_path}")
        store = cache.configure()
        assert isinstance(store, SharedDirectoryStore)

    def test_configure_local_resets_a_layered_store(self, tmp_path, preserve_cache_config):
        cache.configure(cache_dir=tmp_path / "l", store=f"layered:{tmp_path / 's'}")
        store = cache.configure(cache_dir=tmp_path / "l", store="local")
        assert type(store) is ResultCache


class TestMaintenance:
    def test_stats(self, tmp_path):
        store = ResultCache(tmp_path)
        assert store.stats() == StoreStats(entries=0, total_bytes=0)
        store.put(KEY_A, "x")
        store.put(KEY_B, list(range(50)))
        stats = store.stats()
        assert stats.entries == 2
        assert stats.total_bytes == sum(p.stat().st_size for _, p in store.entries())

    def test_verify_removes_corrupt_entries(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put(KEY_A, "good")
        store.put(KEY_B, "doomed")
        _garble(store, KEY_B)
        report = store.verify()
        assert report == VerifyReport(checked=2, ok=1, corrupt=1)
        assert store.get(KEY_A) == "good"
        assert not store._path(KEY_B).exists()
        assert store.verify() == VerifyReport(checked=1, ok=1, corrupt=0)

    def test_gc_removes_only_old_entries(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put(KEY_A, "old")
        store.put(KEY_B, "fresh")
        old_path = store._path(KEY_A)
        stale = old_path.stat().st_mtime - 10 * 86_400
        os.utime(old_path, (stale, stale))
        removed = store.gc(older_than_seconds=7 * 86_400)
        assert removed == 1
        assert store.get(KEY_A) is None
        assert store.get(KEY_B) == "fresh"

    def test_entries_yields_keys(self, tmp_path):
        store = ResultCache(tmp_path)
        store.put(KEY_A, 1)
        [(key, path)] = list(store.entries())
        assert key == KEY_A and path.exists()


class TestFleetDedup:
    """The acceptance-criteria shape: a warm fleet run executes nothing."""

    @pytest.fixture
    def _fresh_memo(self, preserve_cache_config):
        clear_memo()
        yield
        clear_memo()

    def test_warm_rerun_through_shared_store_executes_zero_jobs(
        self, tmp_path, _fresh_memo
    ):
        shared = tmp_path / "shared"
        job = SimulationJob(
            profile=get_benchmark("gzip"),
            num_instructions=1200,
            warmup_instructions=300,
            seed=1,
        )
        # Host 1 runs cold, publishing through its layered store.
        cache.configure(cache_dir=tmp_path / "host1", store=f"layered:{shared}")
        cold = run_jobs([job], backend="serial")
        # Host 2: fresh local tier and memo, same shared tier.
        clear_memo()
        cache.configure(cache_dir=tmp_path / "host2", store=f"layered:{shared}")
        report = BatchReport()
        warm = run_jobs([job], backend="serial", report=report)
        assert report.executed == 0
        assert report.cache_hits == 1
        assert pickle.dumps(cold[0]) == pickle.dumps(warm[0])
        # The shared hit was promoted into host 2's local tier.
        store = cache.active()
        assert store.shared_hits == 1
        assert len(store.local) == 1
