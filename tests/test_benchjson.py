"""The bench JSON recorder (`repro.util.benchjson`).

It feeds the CI ``bench-results`` artifact. It is observability-only,
which is exactly why it gets direct units: nothing downstream would
fail if it silently reported nonsense.
"""

import json

from repro.obs import metrics
from repro.util.benchjson import ENV_BENCH_JSON, record_benchmark


def _add(stage, seconds):
    metrics.registry().counter(metrics.STAGE_PREFIX + stage).add(seconds)


def _explicit(entry):
    """The caller-provided fields of a bench entry (the auto-stamped
    peak_rss_bytes/stage_seconds observability fields removed)."""
    return {
        k: v for k, v in entry.items() if k not in ("peak_rss_bytes", "stage_seconds")
    }


class TestBenchJson:
    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_BENCH_JSON, raising=False)
        assert record_benchmark("x", ops_per_sec=1.0) is None

    def test_records_and_merges(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("alpha", ops_per_sec=100.0, speedup=3.5, floor=3.0)
        record_benchmark("beta", speedup=10.0)
        record_benchmark("alpha", ops_per_sec=200.0)  # overwrite one entry
        data = json.loads(target.read_text())
        assert _explicit(data["alpha"]) == {"ops_per_sec": 200.0}
        assert _explicit(data["beta"]) == {"speedup": 10.0}

    def test_stamps_peak_rss(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("alpha", ops_per_sec=100.0)
        entry = json.loads(target.read_text())["alpha"]
        # A Python process is at least a few MiB resident on any
        # platform where resource.getrusage works.
        assert entry["peak_rss_bytes"] > 1024 * 1024

    def test_stamps_stage_seconds_when_accrued(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        with metrics.scope():
            record_benchmark("cold", ops_per_sec=1.0)
            _add("kernel", 1.25)
            record_benchmark("warm", ops_per_sec=1.0)
        data = json.loads(target.read_text())
        assert "stage_seconds" not in data["cold"]
        assert data["warm"]["stage_seconds"] == {"kernel": 1.25}

    def test_sibling_scopes_stamp_disjoint_stage_maps(self, tmp_path, monkeypatch):
        # What the bench suite's per-bench scope buys: each entry holds
        # its own bench's split, not the whole run's running totals.
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        with metrics.scope():
            _add("kernel", 1.25)
            record_benchmark("first", ops_per_sec=1.0)
        with metrics.scope():
            _add("generate", 0.5)
            record_benchmark("second", ops_per_sec=1.0)
        data = json.loads(target.read_text())
        assert data["first"]["stage_seconds"] == {"kernel": 1.25}
        assert data["second"]["stage_seconds"] == {"generate": 0.5}

    def test_tolerates_corrupt_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        target.write_text("not json{")
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        path = record_benchmark("gamma", ops_per_sec=1.0)
        assert path == target
        data = json.loads(target.read_text())
        assert _explicit(data["gamma"]) == {"ops_per_sec": 1.0}

    def test_creates_parent_directories(self, tmp_path, monkeypatch):
        target = tmp_path / "deep" / "nested" / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("delta", speedup=2.0, note="extra fields kept")
        data = json.loads(target.read_text())
        assert _explicit(data["delta"]) == {
            "speedup": 2.0,
            "note": "extra fields kept",
        }
