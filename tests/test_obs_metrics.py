"""The metrics registry: instruments, quantiles, scopes, and merges."""

import asyncio
import sys
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    JOB_SECONDS,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
)


class TestCounter:
    def test_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("c").add(2.0)
        registry.counter("c").inc()
        assert registry.counter("c").value == 3.0

    def test_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").add(-1.0)

    def test_same_instrument_returned(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")


class TestGauge:
    def test_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(5)
        registry.gauge("g").set(2.5)
        assert registry.gauge("g").value == 2.5


class TestHistogram:
    def test_bucket_placement(self):
        h = Histogram("h", boundaries=(1.0, 2.0, 3.0))
        for value in (0.5, 1.0, 1.5, 2.5, 99.0):
            h.observe(value)
        # v <= bound lands at that bound's bucket; 99 overflows.
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.min == 0.5
        assert h.max == 99.0

    def test_rejects_unsorted_boundaries(self):
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", boundaries=())

    def test_snapshot_is_json_ready(self):
        h = Histogram("h", boundaries=(1.0,))
        h.observe(0.5)
        snap = h.snapshot()
        assert snap == {
            "boundaries": [1.0],
            "counts": [1, 0],
            "count": 1,
            "sum": 0.5,
            "min": 0.5,
            "max": 0.5,
        }


class TestHistogramQuantile:
    def test_empty_histogram_is_zero(self):
        assert histogram_quantile(Histogram("h").snapshot(), 0.5) == 0.0

    def test_interpolates_within_bucket(self):
        h = Histogram("h", boundaries=(10.0, 20.0))
        for _ in range(10):
            h.observe(15.0)  # all mass in the (10, 20] bucket
        q50 = h.quantile(0.5)
        assert 10.0 < q50 <= 20.0

    def test_monotone_in_q(self):
        h = Histogram("h")
        for value in (0.002, 0.02, 0.2, 2.0, 20.0):
            h.observe(value)
        marks = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert marks == sorted(marks)

    def test_overflow_bucket_clamps_to_observed_max(self):
        h = Histogram("h", boundaries=(1.0,))
        h.observe(500.0)
        assert h.quantile(0.99) <= 500.0
        assert h.quantile(0.99) >= 1.0

    def test_clamped_to_observed_range(self):
        # Interpolation inside a wide bucket must not report a quantile
        # beyond what was actually seen: one slow outlier in the
        # (0.1, 0.25] bucket must not drag p99 past its true value.
        h = Histogram("h", boundaries=(0.05, 0.1, 0.25))
        for _ in range(30):
            h.observe(0.07)
        h.observe(0.102)
        assert h.quantile(0.99) <= 0.102
        assert h.quantile(0.01) >= 0.07

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            histogram_quantile(Histogram("h").snapshot(), 1.5)

    def test_quantiles_helper_labels(self):
        h = Histogram("h")
        h.observe(0.05)
        marks = metrics.quantiles(h.snapshot())
        assert set(marks) == {"p50", "p90", "p99"}


class TestSnapshotAbsorb:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").add(1.0)
        registry.gauge("g").set(2.0)
        registry.histogram("h").observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_absorb_round_trip(self):
        # worker-side: accrue, snapshot; coordinator-side: absorb —
        # totals must match as if the work happened locally.
        worker = MetricsRegistry()
        worker.counter("stage_seconds.kernel").add(1.5)
        worker.histogram(JOB_SECONDS).observe(0.2)
        worker.histogram(JOB_SECONDS).observe(0.4)

        coordinator = MetricsRegistry()
        coordinator.histogram(JOB_SECONDS).observe(0.1)
        coordinator.absorb(worker.snapshot())
        assert coordinator.counter("stage_seconds.kernel").value == 1.5
        merged = coordinator.histogram(JOB_SECONDS)
        assert merged.count == 3
        assert merged.sum == pytest.approx(0.7)
        assert merged.min == 0.1
        assert merged.max == 0.4

    def test_absorb_survives_malformed_payloads(self):
        registry = MetricsRegistry()
        registry.absorb("garbage")
        registry.absorb({"counters": {"c": "NaN-ish"}, "histograms": {"h": 7}})
        assert registry.counters == {}

    def test_absorb_boundary_skew_folds_into_totals(self):
        registry = MetricsRegistry()
        registry.histogram("h", boundaries=(1.0, 2.0)).observe(0.5)
        registry.absorb(
            {
                "histograms": {
                    "h": {
                        "boundaries": [5.0],
                        "counts": [3, 0],
                        "count": 3,
                        "sum": 9.0,
                        "min": 3.0,
                        "max": 3.0,
                    }
                }
            }
        )
        h = registry.histogram("h")
        assert h.count == 4  # total mass merged
        assert h.sum == pytest.approx(9.5)
        assert sum(h.counts) == 1  # mismatched buckets untouched

    def test_absorbed_min_max_merge_with_min_and_max(self):
        """Absorbing can only widen the target's extremes, never
        tighten them — the quantile clamp the latency reports rely on."""
        target = MetricsRegistry()
        target.histogram(JOB_SECONDS).observe(0.2)
        source = MetricsRegistry()
        source.histogram(JOB_SECONDS).observe(0.05)
        source.histogram(JOB_SECONDS).observe(7.0)
        target.absorb(source.snapshot())
        merged = target.histogram(JOB_SECONDS)
        assert merged.min == 0.05
        assert merged.max == 7.0
        assert merged.count == 3

    def test_concurrent_absorbs_lose_nothing(self):
        """Scopes closing on many threads at once (a threaded batch's
        groups) fold into one parent: every merge must land. More
        threads than cores and a short switch interval make a lost
        read-modify-write likely if the merge were not locked."""
        source = MetricsRegistry()
        source.counter("sim.kernel_batch").inc()
        source.histogram(JOB_SECONDS).observe(0.01)
        snapshot = source.snapshot()
        target = MetricsRegistry()
        threads, rounds = 8, 5_000
        start = threading.Barrier(threads, timeout=60)

        def absorb():
            start.wait()
            for _ in range(rounds):
                target.absorb(snapshot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=absorb) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert target.counter("sim.kernel_batch").value == threads * rounds
        merged = target.histogram(JOB_SECONDS)
        assert merged.count == sum(merged.counts) == threads * rounds


class TestScope:
    def test_registry_inside_is_the_scope(self):
        outside = metrics.registry()
        with metrics.scope() as scoped:
            assert metrics.registry() is scoped
            assert scoped is not outside
        assert metrics.registry() is outside

    def test_sees_only_writes_made_inside(self):
        with metrics.scope() as outer:
            metrics.registry().counter("stable").add(5.0)
            metrics.registry().histogram("h").observe(1.0)
            with metrics.scope() as window:
                metrics.registry().counter("grew").add(2.0)
                metrics.registry().histogram("h").observe(3.0)
        snap = window.snapshot()
        assert snap["counters"] == {"grew": 2.0}
        assert snap["histograms"]["h"]["count"] == 1
        assert snap["histograms"]["h"]["sum"] == 3.0
        assert outer.counter("stable").value == 5.0

    def test_idle_scope_is_empty(self):
        with metrics.scope() as outer:
            metrics.registry().counter("c").add(1.0)
            with metrics.scope() as idle:
                pass
        assert idle.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert outer.counter("c").value == 1.0

    def test_folds_into_parent_on_exit(self):
        with metrics.scope() as outer:
            metrics.registry().counter("c").add(1.0)
            with metrics.scope():
                metrics.registry().counter("c").add(2.0)
                metrics.registry().gauge("g").set(4.0)
                metrics.registry().histogram("h").observe(0.5)
                assert outer.counter("c").value == 1.0  # not yet
            assert outer.counter("c").value == 3.0
        assert outer.gauge("g").value == 4.0
        assert outer.histogram("h").count == 1

    def test_folds_into_parent_on_exception(self):
        with metrics.scope() as outer:
            with pytest.raises(RuntimeError):
                with metrics.scope():
                    metrics.registry().counter("c").add(1.0)
                    raise RuntimeError("boom")
            assert metrics.registry() is outer
        assert outer.counter("c").value == 1.0

    def test_nested_scopes_fold_level_by_level(self):
        with metrics.scope() as outer:
            with metrics.scope() as middle:
                with metrics.scope() as inner:
                    metrics.registry().counter("c").add(1.0)
                assert middle.counter("c").value == 1.0
                assert outer.counters == {}
                metrics.registry().counter("c").add(2.0)
        assert inner.counter("c").value == 1.0
        assert middle.counter("c").value == 3.0
        assert outer.counter("c").value == 3.0

    def test_folds_into_the_process_registry_outside_any_scope(self):
        name = "test.scope.process_fold"
        before = metrics.registry().counter(name).value
        with metrics.scope():
            metrics.registry().counter(name).add(1.0)
        assert metrics.registry().counter(name).value == before + 1.0

    def test_to_thread_workers_keep_separate_scopes(self):
        # Both threads hold their scope open at once (the barrier), as
        # a serve render's batch does beside the fold that runs meanwhile.
        barrier = threading.Barrier(2, timeout=30)

        def work(amount):
            with metrics.scope() as own:
                barrier.wait()
                metrics.registry().counter("c").add(amount)
                barrier.wait()
            return own.snapshot()["counters"]

        async def both():
            return await asyncio.gather(
                asyncio.to_thread(work, 1.0), asyncio.to_thread(work, 2.0)
            )

        with metrics.scope() as outer:
            seen = asyncio.run(both())
        assert seen == [{"c": 1.0}, {"c": 2.0}]
        # asyncio.to_thread carries the caller's context, so both scopes
        # folded into the scope that was open around them.
        assert outer.counter("c").value == 3.0

    def test_plain_thread_starts_outside_the_scope(self):
        seen = []
        with metrics.scope() as outer:
            thread = threading.Thread(target=lambda: seen.append(metrics.registry()))
            thread.start()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert seen and seen[0] is not outer

    def test_histogram_min_max_are_the_windows_own(self):
        with metrics.scope():
            metrics.registry().histogram("h").observe(0.001)
            metrics.registry().histogram("h").observe(10.0)
            with metrics.scope() as window:
                metrics.registry().histogram("h").observe(0.5)
        snap = window.snapshot()["histograms"]["h"]
        assert snap["count"] == 1 and snap["sum"] == pytest.approx(0.5)
        assert snap["min"] == 0.5
        assert snap["max"] == 0.5
        for q in (0.5, 0.9, 0.99):
            assert histogram_quantile(snap, q) == 0.5


class TestFormatQuantiles:
    def test_quantile_order_and_precision(self):
        text = metrics.format_quantiles({"p99": 0.3, "p50": 0.1, "p90": 0.25})
        assert text == "p50=0.1000s p90=0.2500s p99=0.3000s"

    def test_empty_map_renders_nothing(self):
        assert metrics.format_quantiles({}) == ""


class TestModuleRegistry:
    def test_registry_is_process_wide(self):
        assert metrics.registry() is metrics.registry()

    def test_default_latency_buckets_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(set(DEFAULT_LATENCY_BUCKETS))
