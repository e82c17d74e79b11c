"""Run manifests: build, validate, round-trip, and render."""

import json

import pytest

from repro.cpu.workloads import get_benchmark
from repro.exec import cache
from repro.exec.engine import clear_memo, reset_telemetry, run_jobs
from repro.exec.hashing import CACHE_SCHEMA_VERSION, model_fingerprint
from repro.exec.jobs import SimulationJob
from repro.obs import manifest


@pytest.fixture
def fresh_cache(tmp_path, preserve_cache_config):
    store = cache.configure(cache_dir=tmp_path / "manifest-cache")
    clear_memo()
    yield store
    clear_memo()


@pytest.fixture
def fresh_telemetry():
    reset_telemetry()
    yield
    reset_telemetry()


def _run_one_job():
    job = SimulationJob(
        profile=get_benchmark("gzip"), num_instructions=1200, seed=1
    )
    run_jobs([job], backend="serial")


class TestToJson:
    def test_canonical_form(self):
        text = manifest.to_json({"b": 1, "a": [2, 3]})
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'

    def test_round_trips(self):
        document = {"nested": {"x": 1.5, "y": None}, "list": [1, "two"]}
        assert json.loads(manifest.to_json(document)) == document


class TestBuildRunManifest:
    def test_schema_and_identity(self, fresh_cache, fresh_telemetry):
        document = manifest.build_run_manifest(argv=["table3", "--quick"])
        assert document["schema"] == manifest.MANIFEST_SCHEMA
        assert document["argv"] == ["table3", "--quick"]
        assert document["model_fingerprint"] == model_fingerprint()
        assert document["cache_schema_version"] == CACHE_SCHEMA_VERSION
        assert manifest.validate_run_manifest(document) == []

    def test_counts_executed_jobs(self, fresh_cache, fresh_telemetry):
        _run_one_job()
        document = manifest.build_run_manifest()
        assert document["jobs"]["executed"] == 1
        assert document["jobs"]["cache_misses"] == 1
        assert "serial" in document["backends"]
        assert document["backends"]["serial"]["latency_quantiles"]["p50"] > 0.0

    def test_cache_tiers_reflect_store(self, fresh_cache, fresh_telemetry):
        _run_one_job()
        document = manifest.build_run_manifest()
        (tier,) = document["cache_tiers"]
        assert tier["tier"] == "local"
        assert tier["entries"] == 1
        assert tier["total_bytes"] > 0

    def test_metrics_snapshot_embedded(self, fresh_cache, fresh_telemetry):
        _run_one_job()
        document = manifest.build_run_manifest()
        histograms = document["metrics"]["histograms"]
        assert histograms["job_seconds"]["count"] >= 1

    def test_duration_computed_from_start(self, fresh_cache, fresh_telemetry):
        document = manifest.build_run_manifest(started=0.0)
        assert document["duration_seconds"] > 0


class TestWriteLoad:
    def test_round_trip(self, tmp_path, fresh_cache, fresh_telemetry):
        target = manifest.write_run_manifest(
            tmp_path / "run.json", argv=["figure8"], exit_code=0
        )
        loaded = manifest.load_manifest(target)
        assert loaded["argv"] == ["figure8"]
        assert loaded["exit_code"] == 0

    def test_write_creates_parent_directories(
        self, tmp_path, fresh_cache, fresh_telemetry
    ):
        target = manifest.write_run_manifest(tmp_path / "a" / "b" / "run.json")
        assert target.exists()

    def test_load_rejects_non_manifest(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"schema": "something-else"}')
        with pytest.raises(ValueError):
            manifest.load_manifest(bogus)


class TestValidate:
    def test_rejects_non_object(self):
        assert manifest.validate_run_manifest([1]) != []

    def test_reports_missing_keys(self):
        problems = manifest.validate_run_manifest({"schema": manifest.MANIFEST_SCHEMA})
        assert any("missing 'jobs'" in p for p in problems)
        assert any("missing 'metrics'" in p for p in problems)

    def test_reports_wrong_types(self, fresh_cache, fresh_telemetry):
        document = manifest.build_run_manifest()
        document["jobs"] = "nope"
        assert any(
            "'jobs' has the wrong type" in p
            for p in manifest.validate_run_manifest(document)
        )

    def test_reports_bad_metrics_families(self, fresh_cache, fresh_telemetry):
        document = manifest.build_run_manifest()
        document["metrics"] = {"counters": {}}  # gauges/histograms missing
        problems = manifest.validate_run_manifest(document)
        assert any("metrics." in p for p in problems)


class TestRender:
    def test_renders_key_lines(self, fresh_cache, fresh_telemetry):
        _run_one_job()
        document = manifest.build_run_manifest(
            argv=["table3", "--quick"], exit_code=0, started=0.0
        )
        text = manifest.render_manifest(document)
        assert "command:      repro table3 --quick" in text
        assert "exit code:    0" in text
        assert "backend serial:" in text
        assert "job latency:" in text
        assert "executed=1" in text

    def test_renders_trace_pointer_when_present(
        self, fresh_cache, fresh_telemetry
    ):
        document = manifest.build_run_manifest()
        document["trace_out"] = "/tmp/trace.json"
        assert "ui.perfetto.dev" in manifest.render_manifest(document)
