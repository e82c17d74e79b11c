"""Units for stage-time accounting and the bench JSON recorder.

The stage accumulator (`repro.util.stagetime`) feeds the ``--verbose``
per-backend stage report; the bench recorder (`repro.util.benchjson`)
feeds the CI ``bench-results`` artifact. Both are observability-only,
which is exactly why they get direct units: nothing downstream would
fail if they silently reported nonsense.
"""

import json

import pytest

from repro.cpu.kernel import KERNEL_BATCH, KERNEL_WALK, batch_kernel_available
from repro.cpu.simulator import Simulator
from repro.cpu.workloads import get_benchmark
from repro.exec.engine import (
    BatchReport,
    reset_telemetry,
    run_jobs,
    telemetry,
    telemetry_lines,
)
from repro.exec.jobs import SimulationJob
from repro.util import stagetime
from repro.util.benchjson import ENV_BENCH_JSON, record_benchmark


@pytest.fixture(autouse=True)
def _clean_stagetime():
    stagetime.reset()
    yield
    stagetime.reset()


class TestAccumulator:
    def test_add_and_totals(self):
        stagetime.add("kernel", 1.5)
        stagetime.add("kernel", 0.5)
        stagetime.add("generate", 0.25)
        assert stagetime.totals() == {"kernel": 2.0, "generate": 0.25}

    def test_totals_returns_a_copy(self):
        stagetime.add("kernel", 1.0)
        snap = stagetime.totals()
        snap["kernel"] = 99.0
        assert stagetime.totals()["kernel"] == 1.0

    def test_delta_since(self):
        stagetime.add("generate", 1.0)
        before = stagetime.snapshot()
        stagetime.add("generate", 0.5)
        stagetime.add("pricing", 0.25)
        delta = stagetime.delta_since(before)
        assert delta == {"generate": 0.5, "pricing": 0.25}

    def test_delta_omits_unchanged_stages(self):
        stagetime.add("kernel", 1.0)
        assert stagetime.delta_since(stagetime.snapshot()) == {}

    def test_absorb(self):
        stagetime.add("kernel", 1.0)
        stagetime.absorb({"kernel": 0.5, "decode": 0.1})
        assert stagetime.totals() == {"kernel": 1.5, "decode": 0.1}

    def test_absorb_into_external_map(self):
        tally = {"kernel": 1.0}
        stagetime.absorb_into(tally, {"kernel": 2.0, "generate": 3.0})
        assert tally == {"kernel": 3.0, "generate": 3.0}

    def test_timed_context(self):
        with stagetime.timed("pricing"):
            pass
        totals = stagetime.totals()
        assert totals["pricing"] >= 0.0

    def test_timed_charges_on_exception(self):
        with pytest.raises(RuntimeError):
            with stagetime.timed("kernel"):
                raise RuntimeError("boom")
        assert "kernel" in stagetime.totals()

    def test_timed_iterator_preserves_items_and_charges(self):
        items = list(stagetime.timed_iterator("generate", iter([1, 2, 3])))
        assert items == [1, 2, 3]
        assert stagetime.totals()["generate"] >= 0.0

    def test_format_stages_canonical_order_first(self):
        text = stagetime.format_stages(
            {"pricing": 0.25, "generate": 1.0, "custom": 2.0, "kernel": 0.5}
        )
        assert text == "generate=1.000s kernel=0.500s pricing=0.250s custom=2.000s"


class TestSimulationStageCapture:
    def test_walk_run_accrues_generate_and_kernel(self):
        Simulator(
            get_benchmark("gzip"), seed=3, streaming=False, kernel=KERNEL_WALK
        ).run(2_000)
        totals = stagetime.totals()
        assert totals.get("generate", 0.0) > 0.0
        assert "kernel" in totals

    def test_streaming_walk_attributes_generation(self):
        Simulator(
            get_benchmark("gzip"), seed=3, streaming=True, kernel=KERNEL_WALK
        ).run(2_000)
        totals = stagetime.totals()
        assert totals.get("generate", 0.0) > 0.0
        assert "kernel" in totals

    @pytest.mark.skipif(
        not batch_kernel_available(),
        reason="no C compiler: the batch kernel cannot be built",
    )
    def test_batch_run_splits_generate_decode_kernel_pricing(self):
        Simulator(get_benchmark("gzip"), seed=3, kernel=KERNEL_BATCH).run(2_000)
        totals = stagetime.totals()
        assert totals.get("generate", 0.0) > 0.0
        assert {"decode", "kernel", "pricing"} <= set(totals)

    def test_run_jobs_attributes_stages_to_the_batch(self):
        reset_telemetry()
        job = SimulationJob(
            profile=get_benchmark("mcf"), num_instructions=2_000, seed=5
        )
        report = BatchReport()
        run_jobs([job], backend="serial", use_cache=False, report=report)
        assert report.stage_seconds.get("generate", 0.0) > 0.0
        tallies = telemetry()
        assert tallies["serial"].stage_seconds
        lines = telemetry_lines()
        assert any(line.startswith("[repro] stages serial:") for line in lines)
        assert any("generate=" in line for line in lines)
        reset_telemetry()

    def test_telemetry_copies_stage_maps(self):
        reset_telemetry()
        job = SimulationJob(
            profile=get_benchmark("mcf"), num_instructions=2_000, seed=5
        )
        run_jobs([job], backend="serial", use_cache=False)
        first = telemetry()["serial"].stage_seconds
        first["kernel"] = 1e9
        assert telemetry()["serial"].stage_seconds.get("kernel", 0.0) < 1e9
        reset_telemetry()


class TestBenchJson:
    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_BENCH_JSON, raising=False)
        assert record_benchmark("x", ops_per_sec=1.0) is None

    @staticmethod
    def _explicit(entry):
        """The caller-provided fields of a bench entry (the auto-stamped
        peak_rss_bytes/stage_seconds observability fields removed)."""
        return {
            k: v
            for k, v in entry.items()
            if k not in ("peak_rss_bytes", "stage_seconds")
        }

    def test_records_and_merges(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("alpha", ops_per_sec=100.0, speedup=3.5, floor=3.0)
        record_benchmark("beta", speedup=10.0)
        record_benchmark("alpha", ops_per_sec=200.0)  # overwrite one entry
        data = json.loads(target.read_text())
        assert self._explicit(data["alpha"]) == {"ops_per_sec": 200.0}
        assert self._explicit(data["beta"]) == {"speedup": 10.0}

    def test_stamps_peak_rss(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("alpha", ops_per_sec=100.0)
        entry = json.loads(target.read_text())["alpha"]
        # A Python process is at least a few MiB resident on any
        # platform where resource.getrusage works.
        assert entry["peak_rss_bytes"] > 1024 * 1024

    def test_stamps_stage_seconds_when_accrued(self, tmp_path, monkeypatch):
        from repro.util import stagetime

        target = tmp_path / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        stagetime.reset()
        try:
            record_benchmark("cold", ops_per_sec=1.0)
            stagetime.add("kernel", 1.25)
            record_benchmark("warm", ops_per_sec=1.0)
        finally:
            stagetime.reset()
        data = json.loads(target.read_text())
        assert "stage_seconds" not in data["cold"]
        assert data["warm"]["stage_seconds"] == {"kernel": 1.25}

    def test_tolerates_corrupt_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "bench.json"
        target.write_text("not json{")
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        path = record_benchmark("gamma", ops_per_sec=1.0)
        assert path == target
        data = json.loads(target.read_text())
        assert self._explicit(data["gamma"]) == {"ops_per_sec": 1.0}

    def test_creates_parent_directories(self, tmp_path, monkeypatch):
        target = tmp_path / "deep" / "nested" / "bench.json"
        monkeypatch.setenv(ENV_BENCH_JSON, str(target))
        record_benchmark("delta", speedup=2.0, note="extra fields kept")
        data = json.loads(target.read_text())
        assert self._explicit(data["delta"]) == {
            "speedup": 2.0,
            "note": "extra fields kept",
        }
