"""Differential harness: streaming vs materialized in fresh processes.

``tests/test_streaming.py`` proves in-process equivalence; this harness
closes the remaining gap for the exec layer, which ships jobs to
*worker processes*. Randomized profiles (stdlib ``random``, fixed
seeds) are simulated twice in separate subprocesses — one streaming,
one materialized — and the resulting :class:`SimulationResult` payloads
are compared field by field, together with the committed-trace digests
(the :func:`repro.cpu.trace.trace_digest` machinery the scenario
subsystem's determinism gate introduced). Any divergence reports the
exact field path that broke.
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cpu.workloads import WorkloadProfile, get_benchmark

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: The child: rebuild the profile, simulate in the requested mode, and
#: emit the full result (stats tree + trace digest) as canonical JSON.
_CHILD_SCRIPT = """
import dataclasses, json, sys

from repro.cpu.simulator import Simulator
from repro.cpu.sleep import SleepRuntimeSpec
from repro.cpu.stream import MIN_CHUNK_SIZE
from repro.cpu.trace import trace_digest
from repro.cpu.workloads import WorkloadProfile, generate_trace, iter_trace

spec = json.loads(sys.stdin.read())
profile = WorkloadProfile(**spec["profile"])
streaming = spec["streaming"]
sleep = (
    SleepRuntimeSpec(**spec["sleep"]) if spec["sleep"] is not None else None
)
# The walk: the batch kernel ignores ``streaming``.
result = Simulator(
    profile,
    sleep=sleep,
    streaming=streaming,
    chunk_size=MIN_CHUNK_SIZE if streaming else None,
    kernel="walk",
).run(spec["window"], warmup_instructions=spec["warmup"])

total = spec["window"] + spec["warmup"]
if streaming:
    digest = trace_digest(
        instr
        for chunk in iter_trace(profile, total, chunk_size=MIN_CHUNK_SIZE)
        for instr in chunk.instructions
    )
else:
    digest = trace_digest(generate_trace(profile, total))

payload = {
    "trace_digest": digest,
    "workload_name": result.workload_name,
    "num_instructions": result.num_instructions,
    "warmup_instructions": result.warmup_instructions,
    "seed": result.seed,
    "stats": dataclasses.asdict(result.stats),
}
print(json.dumps(payload, sort_keys=True))
"""


def _random_profile(seed: int) -> WorkloadProfile:
    """A randomized-but-valid profile derived from a seed benchmark.

    Stdlib ``random`` with a fixed seed: the draws perturb the mix,
    control structure, dataflow, and locality knobs across their legal
    ranges, so each case exercises a different pipeline regime.
    """
    rng = random.Random(seed)
    base = get_benchmark(rng.choice(["gzip", "mcf", "gcc", "health"]))
    frac_load = rng.uniform(0.10, 0.30)
    frac_store = rng.uniform(0.02, 0.12)
    frac_int_mult = rng.uniform(0.0, 0.10)
    return dataclasses.replace(
        base,
        name=f"differential-{seed}",
        frac_load=frac_load,
        frac_store=frac_store,
        frac_int_mult=frac_int_mult,
        mean_block_size=rng.uniform(4.0, 10.0),
        loop_branch_fraction=rng.uniform(0.2, 0.6),
        mean_loop_trips=rng.uniform(4.0, 20.0),
        mean_dep_distance=rng.uniform(2.0, 12.0),
        load_chain_prob=rng.uniform(0.0, 0.6),
        stack_prob=rng.uniform(0.05, 0.35),
        stream_prob=rng.uniform(0.05, 0.45),
        heap_hot_prob=rng.uniform(0.85, 0.99),
    )


def _run_child(spec: dict, hash_seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    # Different hash seeds per mode: equality must not ride on dict
    # iteration accidents.
    env["PYTHONHASHSEED"] = hash_seed
    completed = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        input=json.dumps(spec),
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=600,
    )
    return json.loads(completed.stdout)


def _assert_same(streamed, materialized, path="result"):
    """Recursive field-by-field comparison with exact equality.

    Floats included: the streaming contract is ``==``, not approx.
    """
    assert type(streamed) is type(materialized), (
        f"{path}: type {type(streamed).__name__} != "
        f"{type(materialized).__name__}"
    )
    if isinstance(streamed, dict):
        assert streamed.keys() == materialized.keys(), f"{path}: key sets differ"
        for key in streamed:
            _assert_same(streamed[key], materialized[key], f"{path}.{key}")
    elif isinstance(streamed, list):
        assert len(streamed) == len(materialized), f"{path}: lengths differ"
        for index, (mine, theirs) in enumerate(zip(streamed, materialized)):
            _assert_same(mine, theirs, f"{path}[{index}]")
    else:
        assert streamed == materialized, (
            f"{path}: {streamed!r} != {materialized!r}"
        )


def _differential_case(seed: int, sleep: dict = None) -> None:
    profile = _random_profile(seed)
    spec = {
        "profile": dataclasses.asdict(profile),
        "window": 2_500,
        "warmup": 500,
        "sleep": sleep,
        "streaming": None,
    }
    streamed = _run_child({**spec, "streaming": True}, hash_seed="1")
    materialized = _run_child({**spec, "streaming": False}, hash_seed="2")
    assert streamed["trace_digest"] == materialized["trace_digest"]
    _assert_same(streamed, materialized)


class TestStreamingDifferential:
    @pytest.mark.parametrize("seed", [101, 202, 303])
    def test_open_loop_randomized_profiles(self, seed):
        _differential_case(seed)

    def test_closed_loop_randomized_profile(self):
        _differential_case(
            404, sleep={"policy": "GradualSleep", "wakeup_latency": 3}
        )
