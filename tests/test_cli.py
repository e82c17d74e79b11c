"""Unit tests for the command-line interface."""

import os

import pytest

import repro
from repro import cli
from repro.exec import cache, engine
from repro.exec.backends import (
    ProcessPoolBackend,
    SerialBackend,
    resolve_backend,
    resolve_workers,
    set_default_backend,
)
from repro.exec.cache import ResultCache
from repro.exec.stores import LayeredStore


@pytest.fixture
def restore_engine_state(preserve_cache_config):
    """Restore the cache, backend, and tracer configuration ``main``
    mutates through the execution flags."""
    from repro.obs import tracer

    yield
    set_default_backend(None)
    tracer.configure(None)
    tracer.reset()


class TestParser:
    def test_known_experiments(self):
        parser = cli.build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"
        assert not args.quick

    def test_quick_flag(self):
        args = cli.build_parser().parse_args(["figure7", "--quick"])
        assert args.quick

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["figure99"])

    def test_execution_flag_defaults(self):
        args = cli.build_parser().parse_args(["table3"])
        assert args.jobs is None
        assert args.cache_dir is None
        assert not args.no_cache

    def test_execution_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["table3", "--jobs", "4", "--cache-dir", "/tmp/x", "--no-cache"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/x"
        assert args.no_cache


class TestMain:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "figure3", "figure9", "ablations"):
            assert name in out

    def test_analytic_experiment_runs(self, capsys):
        assert cli.main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "OR8 gate characteristics" in out

    def test_empirical_experiment_quick(self, capsys):
        assert cli.main(["figure7", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out

    def test_jobs_flag_runs_parallel(self, capsys, restore_engine_state, tmp_path):
        engine.clear_memo()  # force real simulation so results persist
        assert (
            cli.main(
                ["figure7", "--quick", "--jobs", "2",
                 "--cache-dir", str(tmp_path / "cache")]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert cache.active().directory == tmp_path / "cache"
        assert len(cache.active()) > 0  # results persisted

    def test_no_cache_flag_disables_persistence(
        self, capsys, restore_engine_state
    ):
        assert cli.main(["figure8", "--quick", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "p=0.05" in out
        assert cache.active() is None


class TestPerfSubcommand:
    def test_perf_flags_parse(self):
        args = cli.build_parser().parse_args(
            [
                "perf",
                "--policies",
                "MaxSleep",
                "--wakeup-latencies",
                "0,2,8",
                "--p-grid",
                "0.05,0.5",
                "--alpha",
                "0.25",
            ]
        )
        assert args.experiment == "perf"
        assert args.policies == "MaxSleep"
        assert args.wakeup_latencies == "0,2,8"
        assert args.alpha == 0.25

    def test_perf_listed(self, capsys):
        assert cli.main(["list"]) == 0
        assert "perf" in capsys.readouterr().out.split()

    def test_perf_quick_renders_frontier(self, capsys, restore_engine_state):
        assert (
            cli.main(
                [
                    "perf",
                    "--quick",
                    "--benchmarks",
                    "gzip",
                    "--policies",
                    "MaxSleep,GradualSleep",
                    "--wakeup-latencies",
                    "0,4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "frontier" in out
        assert "MaxSleep" in out and "GradualSleep" in out
        assert "wakeup latency 4 cycles" in out


class TestRobustnessSubcommand:
    def test_robustness_flags_parse(self):
        args = cli.build_parser().parse_args(
            [
                "robustness",
                "--scenarios", "80",
                "--scenario-seed", "3",
                "--families", "fp_dense,phased",
                "--p", "0.05",
                "--catalog", "/tmp/catalog.json",
            ]
        )
        assert args.experiment == "robustness"
        assert args.scenarios == 80
        assert args.scenario_seed == 3
        assert args.families == "fp_dense,phased"
        assert args.p == 0.05
        assert args.catalog == "/tmp/catalog.json"

    def test_robustness_listed(self, capsys):
        assert cli.main(["list"]) == 0
        assert "robustness" in capsys.readouterr().out.split()

    def test_robustness_quick_renders_report(
        self, capsys, restore_engine_state, tmp_path
    ):
        catalog_path = tmp_path / "catalog.json"
        assert (
            cli.main(
                [
                    "robustness",
                    "--quick",
                    "--scenarios", "6",
                    "--families", "ilp_rich,bursty_idle",
                    "--catalog", str(catalog_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Policy robustness: 6 scenarios" in out
        assert "ranking stability" in out.lower()
        assert catalog_path.exists()
        from repro.scenarios import load_catalog

        _, scenarios = load_catalog(catalog_path)
        assert len(scenarios) == 6
        assert {s.family for s in scenarios} == {"ilp_rich", "bursty_idle"}

    def test_catalog_holds_the_rendered_scenarios(
        self, capsys, restore_engine_state, tmp_path
    ):
        """``--catalog`` holds exactly the scenarios the printed report
        evaluated, including every worst case it names."""
        from repro.experiments import robustness
        from repro.scenarios import load_catalog

        catalog_path = tmp_path / "catalog.json"
        families = ["phased", "fp_dense"]
        argv = ["robustness", "--quick", "--scenarios", "5", "--scenario-seed", "4",
                "--families", ",".join(families), "--catalog", str(catalog_path)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        result = robustness.run(
            scale=cli.QUICK_SCALE, count=5, seed=4, families=families
        )
        assert out == robustness.render(result) + "\n"
        _, scenarios = load_catalog(catalog_path)
        assert tuple(scenarios) == result.scenarios
        for policy in result.policies:
            assert result.worst_case(policy).scenario_id in out

    def test_scenarios_are_sampled_once(
        self, capsys, restore_engine_state, tmp_path, monkeypatch
    ):
        """The request's jobs, the rendered report and ``--catalog`` all
        use the one sample ``build_request`` draws."""
        from repro.experiments import robustness
        from repro.scenarios import space

        calls = []
        original = space.sample_scenarios

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(space, "sample_scenarios", counted)
        monkeypatch.setattr(robustness, "sample_scenarios", counted)
        argv = ["robustness", "--quick", "--scenarios", "2", "--families", "ilp_rich",
                "--catalog", str(tmp_path / "catalog.json")]
        assert cli.main(argv) == 0
        assert "Policy robustness: 2 scenarios" in capsys.readouterr().out
        assert len(calls) == 1


class TestVersionFlag:
    def test_version_exits_zero_and_reports(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert repro.package_version() in out

    def test_package_version_is_a_version_string(self):
        version = repro.package_version()
        assert version
        major = version.split(".")[0]
        assert major.isdigit()


class TestStreamingFlags:
    @pytest.mark.parametrize(
        "flags",
        [["--streaming"], ["--no-streaming"], ["--chunk-size", "4096"]],
        ids=["streaming", "no-streaming", "chunk-size"],
    )
    def test_streaming_flags_are_gone(self, flags, capsys):
        """The walk chooses its trace delivery by length alone."""
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(["table3", *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_robustness_instructions_override(
        self, capsys, restore_engine_state
    ):
        assert (
            cli.main(
                [
                    "robustness",
                    "--quick",
                    "--scenarios", "2",
                    "--families", "ilp_rich",
                    "--instructions", "1500",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Policy robustness: 2 scenarios" in out


class TestServableFlagErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--p-grid", "foo"], "p_grid"),
            (["perf", "--wakeup-latencies", "1,x"], "wakeup_latencies"),
            (["perf", "--benchmarks", "gzip", "--policies", "MaxSleep,MaxSleep"],
             "duplicate policy names"),
            (["perf", "--benchmarks", "gzip", "--wakeup-latencies", "4,4"],
             "duplicate wakeup latencies"),
            (["robustness", "--scenarios", "0"], "scenarios must be >= 1, got 0"),
            (["robustness", "--instructions", "10"], "instructions must be >= 1000, got 10"),
            (["robustness", "--families", "nofam"], "unknown scenario family"),
            (["sweep", "--benchmarks", "gzip", "--p-grid", "0.5,0.5", "--alpha-grid", "0.5",
              "--policies", "MaxSleep"], "duplicate p values"),
            (["sweep", "--benchmarks", "gzip", "--p-grid", "0.5", "--alpha-grid", "0.5,0.5",
              "--policies", "MaxSleep"], "duplicate alphas"),
            (["perf", "--benchmarks", "gzip", "--p-grid", "0.5,0.5", "--policies", "MaxSleep",
              "--wakeup-latencies", "1"], "duplicate p values"),
        ],
        ids=["sweep-p-grid", "perf-wakeup-latencies", "perf-duplicate-policy",
             "perf-duplicate-latency", "robustness-scenarios", "robustness-instructions",
             "robustness-families", "sweep-duplicate-p", "sweep-duplicate-alpha",
             "perf-duplicate-p"],
    )
    def test_malformed_flag_is_a_usage_error(
        self, argv, message, capsys, restore_engine_state
    ):
        """One ``repro: error:`` line and exit 2, before any simulation."""
        from repro.obs import metrics

        with metrics.scope() as scoped, pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--quick"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("repro: error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err
        ran = scoped.snapshot()["counters"]
        assert not [name for name in ran if name.startswith("sim.kernel_")]


class TestBackendAndStoreFlags:
    def test_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["table3", "--backend", "ssh:h1,h2", "--store", "layered:/mnt/x", "-v"]
        )
        assert args.backend == "ssh:h1,h2"
        assert args.store == "layered:/mnt/x"
        assert args.verbose

    def test_defaults_are_none(self):
        args = cli.build_parser().parse_args(["table3"])
        assert args.backend is None
        assert args.store is None
        assert not args.verbose

    @pytest.mark.parametrize(
        "argv, env_backend, backend, workers",
        [
            (["--backend", "serial"], None, SerialBackend, None),
            (["--jobs", "3"], None, ProcessPoolBackend, 3),
            (["--backend", "pool", "--jobs", "0"], None, ProcessPoolBackend, resolve_workers(0)),
            (["--backend", "pool:2", "--jobs", "1"], None, ProcessPoolBackend, 2),
            (["--jobs", "3"], "serial", SerialBackend, None),
        ],
        ids=["serial", "jobs-fills-the-default-pool", "jobs-0-is-all-cores",
             "pool-count-wins-over-jobs", "jobs-ignored-by-env-serial"],
    )
    def test_main_sets_the_process_backend(
        self, argv, env_backend, backend, workers, capsys, monkeypatch, restore_engine_state
    ):
        """``--jobs`` fills in the count of a bare ``pool`` spec only."""
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        if env_backend is not None:
            monkeypatch.setenv("REPRO_BACKEND", env_backend)
        from repro.cpu.workloads import get_benchmark
        from repro.exec.jobs import SimulationJob

        assert cli.main(["table1", *argv]) == 0
        resolved = resolve_backend(None)
        assert isinstance(resolved, backend)
        if workers is not None:
            many = [
                SimulationJob(get_benchmark("gzip"), 1_200, 300, seed, kernel="batch")
                for seed in range(1, 65)
            ]
            assert resolved.workers_for(many) == min(workers, len(many))

    @pytest.mark.parametrize("experiment", ["all", "table3"])
    def test_jobs_means_the_same_on_every_subcommand(
        self, experiment, capsys, monkeypatch, restore_engine_state
    ):
        """Regression: ``repro all`` handed ``--jobs`` to the engine as a
        worker count that overrode the backend's own, so ``--backend pool:2
        --jobs 1`` ran ``all`` on 1 worker and ``table3`` on 2."""
        from repro.cpu.config import MachineConfig
        from repro.cpu.workloads import get_benchmark
        from repro.exec.engine import run_jobs
        from repro.exec.jobs import SimulationJob
        from repro.experiments import runner

        jobs = [
            SimulationJob(
                profile=get_benchmark("gzip"),
                num_instructions=1_200,
                warmup_instructions=300,
                seed=seed,
                config=MachineConfig(),
            )
            for seed in (11, 12)
        ]

        def render(scale):
            run_jobs(jobs)
            return "TABLE3-BODY"

        monkeypatch.setattr(runner, "EXPERIMENTS", (("table3", "Table 3", render),))
        monkeypatch.setattr(runner, "enumerate_jobs", lambda scale: jobs)
        engine.clear_memo()
        engine.reset_telemetry()
        argv = [experiment, "--quick", "--no-cache", "--backend", "pool:2", "--jobs", "1", "-v"]
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert "TABLE3-BODY" in captured.out
        (line,) = [
            line for line in captured.err.splitlines() if line.startswith("[repro] backend pool:")
        ]
        assert line.endswith("executed=2 failed=0 workers=2")

    @pytest.mark.parametrize(
        "argv, env, message",
        [
            (["table1", "--backend", "bogus"], {}, "unknown backend spec 'bogus'"),
            (["table1", "--store", "bogus"], {}, "unknown store spec 'bogus'"),
            (["figure7", "--quick"], {"REPRO_BACKEND": "bogus"}, "unknown backend spec 'bogus'"),
            (["table1"], {"REPRO_STORE": "bogus"}, "unknown store spec 'bogus'"),
            (["table1", "--no-cache", "--store", "bogus"], {}, "unknown store spec 'bogus'"),
            (
                ["table1"],
                {"REPRO_NO_CACHE": "1", "REPRO_STORE": "bogus"},
                "unknown store spec 'bogus'",
            ),
        ],
        ids=[
            "backend-flag",
            "store-flag",
            "backend-env",
            "store-env",
            "store-flag-no-cache",
            "store-env-no-cache",
        ],
    )
    def test_bad_spec_is_a_usage_error(
        self, argv, env, message, capsys, monkeypatch, restore_engine_state, tmp_path
    ):
        """A bad backend or store spec, from a flag or the environment,
        is one ``repro: error:`` line and exit 2, before any simulation,
        whether or not the persistent layer is on; no directory is made."""
        from repro.obs import metrics

        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        monkeypatch.chdir(tmp_path)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with metrics.scope() as scoped, pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("repro: error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err
        ran = scoped.snapshot()["counters"]
        assert not [name for name in ran if name.startswith("sim.kernel_")]
        assert list(tmp_path.iterdir()) == []

    def test_main_installs_the_store(self, capsys, restore_engine_state, tmp_path):
        assert (
            cli.main(
                [
                    "table1",
                    "--cache-dir", str(tmp_path / "local"),
                    "--store", f"layered:{tmp_path / 'shared'}",
                ]
            )
            == 0
        )
        store = cache.active()
        assert isinstance(store, LayeredStore)
        assert store.local.directory == tmp_path / "local"
        assert store.shared.directory == tmp_path / "shared"

    def test_verbose_reports_backend_counters(
        self, capsys, restore_engine_state, tmp_path
    ):
        engine.clear_memo()
        engine.reset_telemetry()
        assert (
            cli.main(
                ["figure7", "--quick", "--verbose", "--backend", "serial",
                 "--cache-dir", str(tmp_path / "cache")]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "[repro] backend serial:" in err
        assert "executed=" in err

    def test_verbose_without_batches_says_so(self, capsys, restore_engine_state):
        engine.reset_telemetry()
        assert cli.main(["table1", "--verbose"]) == 0
        assert "no simulation batches" in capsys.readouterr().err


class TestCacheSubcommand:
    def _populated(self, tmp_path):
        store = ResultCache(tmp_path / "cache")
        store.put("aa" + "0" * 62, {"payload": 1})
        store.put("bb" + "0" * 62, {"payload": 2})
        return store

    def test_stats_is_the_default_action(
        self, capsys, restore_engine_state, tmp_path
    ):
        self._populated(tmp_path)
        assert cli.main(["cache", "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "local: 2 entries" in out
        assert str(tmp_path / "cache") in out

    def test_verify_removes_corrupt_entries(
        self, capsys, restore_engine_state, tmp_path
    ):
        store = self._populated(tmp_path)
        path = store._path("aa" + "0" * 62)
        path.write_bytes(path.read_bytes()[:10])
        assert cli.main(["cache", "verify", "--cache-dir", str(store.directory)]) == 0
        out = capsys.readouterr().out
        assert "2 checked, 1 ok, 1 corrupt removed" in out
        assert not path.exists()

    def test_gc_requires_older_than(self, capsys, restore_engine_state, tmp_path):
        self._populated(tmp_path)
        assert cli.main(["cache", "gc", "--cache-dir", str(tmp_path / "cache")]) == 2
        assert "--older-than" in capsys.readouterr().err

    def test_gc_prunes_by_age(self, capsys, restore_engine_state, tmp_path):
        store = self._populated(tmp_path)
        old = store._path("aa" + "0" * 62)
        stale = old.stat().st_mtime - 10 * 86_400
        os.utime(old, (stale, stale))
        assert (
            cli.main(
                ["cache", "gc", "--older-than", "7",
                 "--cache-dir", str(store.directory)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 1 entries older than 7 days" in out
        assert not old.exists()

    def test_layered_store_reports_each_tier(
        self, capsys, restore_engine_state, tmp_path
    ):
        assert (
            cli.main(
                ["cache", "--cache-dir", str(tmp_path / "local"),
                 "--store", f"layered:{tmp_path / 'shared'}"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "local: 0 entries" in out
        assert "shared: 0 entries" in out

    def test_disabled_store_exits_nonzero(self, capsys, restore_engine_state):
        assert cli.main(["cache", "--no-cache"]) == 2
        assert "disabled" in capsys.readouterr().err

    def test_action_rejected_outside_cache(self, capsys, restore_engine_state):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table1", "stats"])
        assert excinfo.value.code == 2
        assert "only applies to 'repro cache'" in capsys.readouterr().err

    def test_unknown_action_rejected(self, capsys):
        # The action positional is free-form (it doubles as the manifest
        # path for 'repro report'), so cache-action validation happens
        # in main() — still a usage error with exit code 2.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["cache", "shrink"])
        assert excinfo.value.code == 2
        assert "unknown cache action" in capsys.readouterr().err


class TestCacheJson:
    def test_stats_json_round_trips(
        self, tmp_path, capsys, restore_engine_state
    ):
        import json

        assert (
            cli.main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == cli.CACHE_REPORT_SCHEMA
        assert document["action"] == "stats"
        (tier,) = document["tiers"]
        assert tier["tier"] == "local"
        assert tier["entries"] == 0
        assert tier["total_bytes"] == 0

    def test_verify_json_round_trips(
        self, tmp_path, capsys, restore_engine_state
    ):
        import json

        assert (
            cli.main(["cache", "verify", "--json", "--cache-dir", str(tmp_path)])
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["action"] == "verify"
        (tier,) = document["tiers"]
        assert tier["checked"] == 0
        assert tier["corrupt_removed"] == 0

    def test_json_counts_real_entries(
        self, tmp_path, capsys, restore_engine_state
    ):
        import json

        engine.clear_memo()  # force real simulation so results persist
        cli.main(["figure7", "--quick", "--cache-dir", str(tmp_path)])
        capsys.readouterr()
        cli.main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)])
        document = json.loads(capsys.readouterr().out)
        assert document["tiers"][0]["entries"] >= 1

    def test_json_output_is_canonical(self, tmp_path, capsys, restore_engine_state):
        from repro.obs.manifest import to_json
        import json

        cli.main(["cache", "stats", "--json", "--cache-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert out == to_json(json.loads(out))


class TestObservabilityFlags:
    def test_trace_out_writes_valid_trace(
        self, tmp_path, capsys, restore_engine_state
    ):
        import json

        from repro.obs import tracer

        trace_path = tmp_path / "trace.json"
        assert (
            cli.main(
                [
                    "table1",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--trace-out",
                    str(trace_path),
                ]
            )
            == 0
        )
        document = json.loads(trace_path.read_text())
        assert tracer.validate_chrome_trace(document) == []
        names = {e["name"] for e in document["traceEvents"]}
        assert "cli.table1" in names

    def test_run_manifest_written_and_renderable(
        self, tmp_path, capsys, restore_engine_state
    ):
        from repro.obs import manifest

        run_path = tmp_path / "run.json"
        assert (
            cli.main(
                [
                    "table1",
                    "--quick",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--run-manifest",
                    str(run_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        document = manifest.load_manifest(run_path)
        assert document["argv"][0] == "table1"
        assert document["exit_code"] == 0
        assert cli.main(["report", str(run_path)]) == 0
        out = capsys.readouterr().out
        assert "Run manifest" in out
        assert "command:      repro table1" in out

    def test_trace_env_variable_configures_tracing(
        self, tmp_path, capsys, monkeypatch, restore_engine_state
    ):
        from repro.obs import tracer

        trace_path = tmp_path / "env-trace.json"
        monkeypatch.setenv(tracer.ENV_TRACE_OUT, str(trace_path))
        assert cli.main(["table1", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert trace_path.exists()

    def test_report_missing_file_exits_2(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path / "absent.json")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_report_non_manifest_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert cli.main(["report", str(bogus)]) == 2
        assert "not a valid run manifest" in capsys.readouterr().err

    def test_report_without_path_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["report"])
        assert excinfo.value.code == 2

    def test_no_artifacts_without_flags(self, tmp_path, capsys, restore_engine_state):
        from repro.obs import tracer

        assert cli.main(["table1", "--cache-dir", str(tmp_path)]) == 0
        assert tracer.output_path() is None
        assert not tracer.is_enabled()
