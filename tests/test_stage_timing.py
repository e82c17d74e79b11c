"""Stage timing: the stage helpers in :mod:`repro.obs.metrics` and the
simulation stages they capture.

Stage seconds feed the ``--verbose`` per-backend stage report, run
manifests, and bench artifacts. They are observability-only, which is
exactly why they get direct units: nothing downstream would fail if
they silently reported nonsense. Each test reads its own
:func:`~repro.obs.metrics.scope`, so earlier tests' simulations never
show up in its numbers.
"""

import pytest

from repro.cpu.kernel import KERNEL_BATCH, KERNEL_WALK, batch_kernel_available
from repro.cpu.simulator import Simulator
from repro.cpu.workloads import get_benchmark
from repro.exec.engine import (
    BatchReport,
    backend_tallies,
    reset_telemetry,
    run_jobs,
    telemetry_lines,
)
from repro.exec.jobs import SimulationJob
from repro.obs import metrics


def _add(stage, seconds):
    metrics.registry().counter(metrics.STAGE_PREFIX + stage).add(seconds)


def _stages(registry):
    return metrics.stage_seconds(registry.snapshot())


class TestStageHelpers:
    def test_add_and_read_back(self):
        with metrics.scope() as scoped:
            _add("kernel", 1.5)
            _add("kernel", 0.5)
            _add("generate", 0.25)
        assert _stages(scoped) == {"kernel": 2.0, "generate": 0.25}

    def test_stage_seconds_returns_a_copy(self):
        with metrics.scope() as scoped:
            _add("kernel", 1.0)
        snap = _stages(scoped)
        snap["kernel"] = 99.0
        assert _stages(scoped)["kernel"] == 1.0

    def test_stage_seconds_ignores_other_instruments(self):
        with metrics.scope() as scoped:
            _add("pricing", 0.5)
            metrics.registry().counter("sim.kernel_walk").inc()
            metrics.registry().histogram(metrics.JOB_SECONDS).observe(0.1)
        assert _stages(scoped) == {"pricing": 0.5}

    def test_absorb_feeds_stage_seconds(self):
        # The relay path: a worker's job scope carries its stage
        # counters; absorbing it adds to the coordinator's stages.
        with metrics.scope() as scoped:
            _add("kernel", 1.0)
            metrics.registry().absorb(
                {"counters": {"stage_seconds.kernel": 0.5, "stage_seconds.generate": 0.1}}
            )
        assert _stages(scoped) == {"kernel": 1.5, "generate": 0.1}

    def test_timed_context(self):
        with metrics.scope() as scoped:
            with metrics.timed("pricing"):
                pass
        assert _stages(scoped)["pricing"] >= 0.0

    def test_timed_charges_on_exception(self):
        with metrics.scope() as scoped:
            with pytest.raises(RuntimeError):
                with metrics.timed("kernel"):
                    raise RuntimeError("boom")
        assert "kernel" in _stages(scoped)

    def test_timed_iterator_preserves_items_and_charges(self):
        with metrics.scope() as scoped:
            items = list(metrics.timed_iterator("generate", iter([1, 2, 3])))
        assert items == [1, 2, 3]
        assert _stages(scoped)["generate"] >= 0.0

    def test_timed_emits_span_when_tracing(self):
        from repro.obs import tracer

        tracer.reset()
        tracer.enable(True)
        try:
            with metrics.timed("kernel"):
                pass
            names = [e["name"] for e in tracer.events()]
            assert "stage.kernel" in names
        finally:
            tracer.enable(False)
            tracer.reset()

    def test_format_stages_canonical_order_first(self):
        text = metrics.format_stages(
            {"pricing": 0.25, "generate": 1.0, "custom": 2.0, "kernel": 0.5}
        )
        assert text == "generate=1.000s kernel=0.500s pricing=0.250s custom=2.000s"


class TestSimulationStageCapture:
    def test_walk_run_accrues_generate_and_kernel(self):
        with metrics.scope() as scoped:
            Simulator(
                get_benchmark("gzip"), seed=3, streaming=False, kernel=KERNEL_WALK
            ).run(2_000)
        stages = _stages(scoped)
        assert stages.get("generate", 0.0) > 0.0
        assert "kernel" in stages

    def test_streaming_walk_attributes_generation(self):
        with metrics.scope() as scoped:
            Simulator(
                get_benchmark("gzip"), seed=3, streaming=True, kernel=KERNEL_WALK
            ).run(2_000)
        stages = _stages(scoped)
        assert stages.get("generate", 0.0) > 0.0
        assert set(stages) == {"generate", "kernel"}

    @pytest.mark.skipif(
        not batch_kernel_available(),
        reason="no C compiler: the batch kernel cannot be built",
    )
    def test_batch_run_splits_generate_kernel_pricing(self):
        with metrics.scope() as scoped:
            Simulator(get_benchmark("gzip"), seed=3, kernel=KERNEL_BATCH).run(2_000)
        stages = _stages(scoped)
        assert stages.get("generate", 0.0) > 0.0
        assert set(stages) == {"generate", "kernel", "pricing"}

    def test_run_jobs_attributes_stages_to_the_batch(self):
        reset_telemetry()
        job = SimulationJob(
            profile=get_benchmark("mcf"), num_instructions=2_000, seed=5
        )
        report = BatchReport()
        run_jobs([job], backend="serial", use_cache=False, report=report)
        assert report.stage_seconds.get("generate", 0.0) > 0.0
        assert backend_tallies()["serial"]["stage_seconds"] == report.stage_seconds
        lines = telemetry_lines()
        assert any(line.startswith("[repro] stages serial:") for line in lines)
        assert any("generate=" in line for line in lines)
        reset_telemetry()

    def test_backend_tallies_copy_stage_maps(self):
        reset_telemetry()
        job = SimulationJob(
            profile=get_benchmark("mcf"), num_instructions=2_000, seed=5
        )
        run_jobs([job], backend="serial", use_cache=False)
        first = backend_tallies()["serial"]["stage_seconds"]
        first["kernel"] = 1e9
        assert backend_tallies()["serial"]["stage_seconds"].get("kernel", 0.0) < 1e9
        reset_telemetry()
