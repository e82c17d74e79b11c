"""Unit tests for the simulator facade and its cache."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import Simulator, simulate_workload
from repro.cpu.workloads import get_benchmark
from repro.exec.engine import clear_memo

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


class TestSimulator:
    def test_run_produces_result(self):
        result = Simulator(get_benchmark("mst"), seed=3).run(2000)
        assert result.workload_name == "mst"
        assert result.num_instructions == 2000
        assert result.stats.committed_instructions == 2000
        assert result.ipc > 0

    def test_warmup_excluded_from_stats(self):
        result = Simulator(get_benchmark("mst")).run(
            2000, warmup_instructions=1000
        )
        # The warmup boundary lands within one commit group.
        assert 1996 <= result.stats.committed_instructions <= 2000
        assert result.warmup_instructions == 1000


class TestSimulateWorkloadCache:
    def test_cache_hit_returns_same_object(self):
        clear_memo()
        profile = get_benchmark("gzip")
        a = simulate_workload(profile, 1500)
        b = simulate_workload(profile, 1500)
        assert a is b

    def test_cache_distinguishes_configs(self):
        clear_memo()
        profile = get_benchmark("gzip")
        a = simulate_workload(profile, 1500)
        b = simulate_workload(profile, 1500, config=MachineConfig().with_int_fus(2))
        assert a is not b
        assert a.stats.num_int_fus == 4
        assert b.stats.num_int_fus == 2

    def test_cache_distinguishes_seed_and_warmup(self):
        clear_memo()
        profile = get_benchmark("gzip")
        a = simulate_workload(profile, 1500, seed=1)
        b = simulate_workload(profile, 1500, seed=2)
        c = simulate_workload(profile, 1500, seed=1, warmup_instructions=500)
        assert a is not b
        assert a is not c

    def test_cache_bypass(self):
        clear_memo()
        profile = get_benchmark("gzip")
        a = simulate_workload(profile, 1500, use_cache=False)
        b = simulate_workload(profile, 1500, use_cache=False)
        assert a is not b
        assert a.ipc == pytest.approx(b.ipc)  # deterministic regardless

    def test_determinism_across_instances(self):
        clear_memo()
        profile = get_benchmark("twolf")
        a = Simulator(profile, seed=5).run(1200)
        b = Simulator(profile, seed=5).run(1200)
        assert a.stats.total_cycles == b.stats.total_cycles
        assert a.stats.ipc == b.stats.ipc


class TestLayering:
    def test_cpu_imports_nothing_from_exec(self):
        """The engine owns caching; the simulator package stays below it."""
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        loaded = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cpu; "
                "print(sorted(m for m in sys.modules if m.startswith('repro.exec')))",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
            timeout=120,
        ).stdout
        assert loaded.strip() == "[]"
