"""Shared benchmark configuration.

The empirical benches run the full nine-benchmark suite at a medium
scale: large enough to reach each workload's steady state (the profiles
are sized for it), small enough to keep the whole harness to a few
minutes. Simulations are shared *within* a session through the engine's
in-process memo and a session-private persistent store, mirroring how
the paper derives Figures 7-9 and Table 3 from one set of runs. The
store is a fresh temporary directory, never ``~/.cache/repro``, so every
session starts cold and no bench number depends on an earlier run.
"""

import pytest

from repro.exec import cache as result_cache
from repro.experiments.common import ExperimentScale
from repro.obs import metrics
from repro.util.benchjson import record_benchmark

#: Scale used by the empirical benchmark harness.
MEDIUM_SCALE = ExperimentScale(window_instructions=20_000, warmup_instructions=15_000)


@pytest.fixture(scope="session", autouse=True)
def _session_result_cache(tmp_path_factory):
    """Point the persistent result cache at a session-private directory.

    Set at the environment level too, so code that calls
    ``configure(cache_dir=None)`` mid-session (the CLI's default path)
    stays inside it.
    """
    directory = tmp_path_factory.mktemp("bench-result-cache")
    patcher = pytest.MonkeyPatch()
    patcher.setenv(result_cache.ENV_CACHE_DIR, str(directory))
    result_cache.configure(cache_dir=directory)
    yield
    patcher.undo()


@pytest.fixture(autouse=True)
def _bench_metrics_scope():
    """Run each bench in its own metrics scope, so ``record_benchmark``
    stamps that bench's own stage split, not the whole run's totals."""
    with metrics.scope():
        yield


@pytest.fixture(scope="session")
def medium_scale():
    return MEDIUM_SCALE


@pytest.fixture(scope="session")
def bench_record():
    """Record a bench's numbers into the ``$REPRO_BENCH_JSON`` artifact.

    A thin alias for :func:`repro.util.benchjson.record_benchmark`:
    ``bench_record(name, ops_per_sec=..., speedup=..., **extra)``.
    No-op unless CI (or a curious developer) sets the env var.
    """
    return record_benchmark
