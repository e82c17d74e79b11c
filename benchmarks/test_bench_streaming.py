"""Bounded-memory gate: peak RSS is independent of instruction count.

The streaming trace engine's whole claim is that scenario *length* costs
time, never memory. This bench runs the same sampled scenario streaming
through the per-instruction walk (pinned: the batch kernel ignores
``streaming``) in fresh subprocesses at 100k and at 10M instructions — a
100x growth — and asserts the children's peak RSS (``ru_maxrss``) stays
flat. A materialized 10M-instruction trace alone would occupy well over
a gigabyte; under streaming the large run must fit in a small multiple
of the small run's footprint (interpreter + model + a few resident
chunks).

Runs in subprocesses on purpose: ``ru_maxrss`` is a process-lifetime
high-water mark, so in-process measurement would be polluted by
whatever the suite allocated before this test.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

SMALL = 100_000
#: The acceptance point: a 10M-instruction scenario (100x the small run).
LARGE = 10_000_000

#: Flatness bound: the large run may use at most this multiple of the
#: small run's peak RSS. Measured headroom is ~3x (the real ratio is
#: ~1.1-1.3: interpreter baseline dominates, plus slow histogram
#: growth); a materialized run would blow past 20x.
MAX_RSS_RATIO = 1.5

_CHILD_SCRIPT = """
import json, resource, sys

from repro.cpu.simulator import Simulator
from repro.scenarios import sample_scenarios

n = int(sys.argv[1])
scenario = sample_scenarios(1, seed=5, families=["ilp_rich"])[0]
result = Simulator(scenario.profile, streaming=True, kernel="walk").run(
    n, record_sequences=False
)
assert result.stats.committed_instructions == n
print(json.dumps({
    "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "total_cycles": result.stats.total_cycles,
    "ipc": result.stats.ipc,
}))
"""


def _measure(num_instructions: int) -> dict:
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT, str(num_instructions)],
        capture_output=True,
        text=True,
        check=True,
        timeout=1_800,
        env={"PYTHONPATH": _SRC_DIR},
    )
    return json.loads(completed.stdout)


@pytest.mark.benchmark(group="streaming")
def test_peak_rss_flat_across_100x_instruction_growth():
    small = _measure(SMALL)
    large = _measure(LARGE)
    # The 10M-instruction scenario completed (committed == n is asserted
    # in the child) and did useful work.
    assert large["total_cycles"] > small["total_cycles"]
    assert large["ipc"] > 0
    ratio = large["rss_kb"] / small["rss_kb"]
    assert ratio <= MAX_RSS_RATIO, (
        f"streaming peak RSS grew {ratio:.2f}x "
        f"({small['rss_kb']} kB -> {large['rss_kb']} kB) over a 100x "
        f"instruction-count growth; bound is {MAX_RSS_RATIO}x"
    )
