"""Tests for the run-everything harness and the shared scale plumbing."""

import io

import pytest

from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE, ExperimentScale


class TestExperimentScale:
    def test_defaults(self):
        assert DEFAULT_SCALE.window_instructions == 40_000
        assert DEFAULT_SCALE.warmup_instructions == 30_000
        assert QUICK_SCALE.window_instructions < DEFAULT_SCALE.window_instructions

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(window_instructions=10)
        with pytest.raises(ValueError):
            ExperimentScale(warmup_instructions=-1)


class TestRunner:
    def test_analytic_experiments_stream_output(self, monkeypatch):
        """Run the runner with the empirical experiments and their
        simulation plan stubbed out so the harness logic (ordering,
        streaming, headers) is covered without minutes of simulation."""
        from repro.experiments import runner

        fake_experiments = (
            ("table1", "Table 1", lambda scale: "TABLE1-BODY"),
            ("figure3", "Figure 3", lambda scale: "FIGURE3-BODY"),
        )
        monkeypatch.setattr(runner, "EXPERIMENTS", fake_experiments)
        monkeypatch.setattr(runner, "enumerate_jobs", lambda scale: [])
        stream = io.StringIO()
        runner.run_all(QUICK_SCALE, stream=stream)
        output = stream.getvalue()
        assert output.index("TABLE1-BODY") < output.index("FIGURE3-BODY")
        assert "Table 1" in output and "Figure 3" in output

    def test_experiment_list_covers_the_paper(self):
        from repro.experiments import runner

        titles = [title for _, title, _ in runner.EXPERIMENTS]
        assert titles == [
            "Table 1", "Figure 3", "Figure 4", "Figure 5",
            "Table 3", "Figure 7", "Figure 8", "Figure 9", "Ablations",
        ]

    def test_one_table_names_every_experiment_once(self, capsys):
        """The CLI's choices and ``repro list`` read the same table as
        ``repro all``."""
        from repro import cli
        from repro.experiments import runner

        names = [name for name, _, _ in runner.EXPERIMENTS]
        assert len(set(names)) == len(names) == 9
        for name in names:
            assert cli.build_parser().parse_args([name]).experiment == name
        assert cli.main(["list"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == sorted(names) + ["perf", "robustness", "sweep"]

    def test_renderers_look_up_module_functions_when_called(self, monkeypatch):
        """A wrapper installed on an experiment module's ``run`` or
        ``render`` (a profiler, a tracer) must see the table's calls."""
        from repro.experiments import runner, table1

        monkeypatch.setattr(table1, "render", lambda result: "WRAPPED")
        (render,) = [render for name, _, render in runner.EXPERIMENTS if name == "table1"]
        assert render(QUICK_SCALE) == "WRAPPED"


class TestJobEnumeration:
    def test_covers_every_experiment_batch(self):
        """enumerate_jobs must contain the Table 3 sweep, the reference
        suite, every L2-latency variant, and the FU-count ablation."""
        from repro.experiments import runner
        from repro.experiments.ablations import ABLATION_L2_LATENCIES
        from repro.experiments.figure7 import L2_LATENCIES

        jobs = runner.enumerate_jobs(QUICK_SCALE)
        latencies = {job.config.l2_cache.hit_latency for job in jobs}
        assert set(L2_LATENCIES) <= latencies
        assert set(ABLATION_L2_LATENCIES) <= latencies
        fu_counts = {
            job.config.num_int_fus
            for job in jobs
            if job.profile.name == "gzip"
        }
        assert fu_counts >= {1, 2, 3, 4}  # the Table 3 sweep
        mcf_default_l2 = {
            job.config.num_int_fus
            for job in jobs
            if job.profile.name == "mcf" and job.config.l2_cache.hit_latency == 12
        }
        assert 4 in mcf_default_l2  # the FU-count ablation's counterpoint
        assert all(
            job.num_instructions == QUICK_SCALE.window_instructions for job in jobs
        )

    def test_prewarm_makes_collection_a_pure_cache_hit(
        self, tmp_path, preserve_cache_config
    ):
        """The plan ``run_all`` submits before rendering covers every
        batch the suite asks for, so collecting it again simulates
        nothing."""
        from repro.exec import cache
        from repro.exec.engine import BatchReport, run_jobs
        from repro.experiments import runner

        cache.configure(cache_dir=tmp_path / "prewarm-cache")
        small = ExperimentScale(window_instructions=1_200, warmup_instructions=300)
        run_jobs(runner.enumerate_jobs(small), backend="pool:2")
        report = BatchReport()
        run_jobs(runner.enumerate_jobs(small), report=report)
        assert report.executed == 0
        assert report.cache_hits == report.unique > 0
