"""Shared fixtures.

Pipeline simulations are the expensive part of the suite, so the small
reference runs used by many tests are session-scoped and cached.
"""

from __future__ import annotations

import pytest

from repro.circuits.library import calibrated_device_parameters
from repro.core.parameters import TechnologyParameters
from repro.cpu.config import MachineConfig
from repro.cpu.simulator import simulate_workload
from repro.cpu.workloads import get_benchmark
from repro.exec import cache as result_cache


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="regenerate the committed golden files in tests/goldens/ "
        "from the current model instead of comparing against them",
    )


@pytest.fixture
def update_goldens(request) -> bool:
    """Whether this run should rewrite goldens rather than assert them."""
    return request.config.getoption("--update-goldens")


@pytest.fixture(scope="session", autouse=True)
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent result cache at a throwaway directory.

    Keeps the unit-test suite hermetic: no reads from (or writes to) the
    user's ``~/.cache/repro``, and no cross-run coupling between test
    sessions. The redirect is applied at the environment level so even
    code that calls ``configure(cache_dir=None)`` mid-session (the CLI's
    default path) stays inside the throwaway directory.
    """
    directory = tmp_path_factory.mktemp("result-cache")
    patcher = pytest.MonkeyPatch()
    patcher.setenv(result_cache.ENV_CACHE_DIR, str(directory))
    result_cache.configure(cache_dir=directory)
    yield
    patcher.undo()


@pytest.fixture
def preserve_cache_config():
    """Snapshot/restore the process-wide persistent-cache configuration.

    For tests that call ``repro.exec.cache.configure`` (directly or via
    CLI flags) so they cannot leak cache state into later tests.
    """
    previous = result_cache.snapshot()
    yield
    result_cache.restore(previous)


@pytest.fixture
def restore_backend_default():
    """Reset the process-wide backend spec after a test that sets it."""
    from repro.exec.backends import set_default_backend

    yield
    set_default_backend(None)


@pytest.fixture(scope="session")
def device_params():
    """The Table 1-calibrated device parameters."""
    return calibrated_device_parameters()


@pytest.fixture(scope="session")
def tech_low():
    """The near-term technology point (p = 0.05)."""
    return TechnologyParameters(leakage_factor_p=0.05)


@pytest.fixture(scope="session")
def tech_high():
    """The projected high-leakage point (p = 0.50)."""
    return TechnologyParameters(leakage_factor_p=0.50)


@pytest.fixture(scope="session")
def small_gzip_run():
    """A small gzip simulation shared by pipeline/stats/energy tests."""
    return simulate_workload(
        get_benchmark("gzip"), 6_000, warmup_instructions=2_000
    )


@pytest.fixture(scope="session")
def small_mcf_run():
    """A small memory-bound run (long idle intervals)."""
    return simulate_workload(
        get_benchmark("mcf"),
        5_000,
        config=MachineConfig().with_int_fus(2),
        warmup_instructions=2_000,
    )
