"""The automatic kernel default: lazy choice, fallback, and ``-v``.

With no ``--kernel`` flag, simulations run the batch kernel whenever it
builds and loads, and the walk otherwise. The choice is made on the
first simulation, so a run that simulates nothing — a warm re-render —
must never compile or load either C library; the subprocess test pins
that, so kernel resolution cannot drift into import or argument
parsing. Every simulation counts itself per kernel in the metrics
registry, and ``-v`` prints those counts, with the reason when the
automatic choice fell back to the walk.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cpu import kernel as kernel_mod
from repro.cpu.kernel import (
    batch_kernel_available,
    count_run,
    set_default_kernel,
    telemetry_line,
)
from repro.cpu.simulator import Simulator
from repro.cpu.workloads import get_benchmark
from repro.obs import metrics as obs_metrics

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Re-renders the quick suite and reports whether either C library was
#: ever loaded (``_load_attempted`` flips on the first load call).
_WARM_CHILD = """
import json, sys
from repro import cli
from repro.cpu import _kernel_build, _trace_build

code = cli.main(["all", "--quick", "-v", "--cache-dir", sys.argv[1]])
with open(sys.argv[2], "w") as handle:
    json.dump(
        {
            "code": code,
            "kernel": _kernel_build._load_attempted,
            "trace": _trace_build._load_attempted,
        },
        handle,
    )
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_") or name == "REPRO_KERNEL_CACHE"
    }
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=600,
    )


@pytest.fixture
def fresh_registry(monkeypatch):
    monkeypatch.setattr(obs_metrics, "_registry", obs_metrics.MetricsRegistry())
    yield obs_metrics.registry()
    set_default_kernel(None)


class TestKernelLine:
    def test_no_line_when_nothing_simulated(self, fresh_registry):
        assert telemetry_line() is None

    def test_counts_per_kernel(self, fresh_registry):
        for kernel in ("batch", "batch", "walk"):
            count_run(kernel)
        assert telemetry_line() == "[repro] kernel: batch=2 walk=1"

    def test_automatic_fallback_names_the_reason(self, fresh_registry, monkeypatch):
        monkeypatch.setattr(
            kernel_mod, "batch_kernel_unavailable_reason", lambda: "no C compiler"
        )
        count_run("walk")
        assert telemetry_line() == (
            "[repro] kernel: batch=0 walk=1 "
            "(automatic choice fell back to the walk: no C compiler)"
        )
        set_default_kernel("walk")  # an explicit --kernel walk is no fallback
        assert telemetry_line() == "[repro] kernel: batch=0 walk=1"

    def test_unavailable_kernel_runs_the_walk(self, fresh_registry, monkeypatch):
        monkeypatch.setattr(kernel_mod, "batch_kernel_available", lambda: False)
        Simulator(get_benchmark("gzip"), seed=3).run(400)
        assert fresh_registry.counters["sim.kernel_walk"].value == 1
        assert "sim.kernel_batch" not in fresh_registry.counters


class TestLazySelection:
    def test_warm_run_never_loads_a_kernel(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = _python("-m", "repro.cli", "all", "--quick", "-v", "--cache-dir", cache)
        if batch_kernel_available():
            line = r"^\[repro\] kernel: batch=[1-9]\d* walk=0$"
        else:
            line = r"^\[repro\] kernel: batch=0 walk=\d+ \(automatic choice fell back"
        assert re.search(line, cold.stderr, re.MULTILINE), cold.stderr

        report = tmp_path / "loads.json"
        warm = _python("-c", _WARM_CHILD, cache, str(report))
        assert warm.stdout == cold.stdout
        assert json.loads(report.read_text()) == {
            "code": 0,
            "kernel": False,
            "trace": False,
        }
        assert "[repro] kernel:" not in warm.stderr
