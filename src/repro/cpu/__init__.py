"""Microarchitectural substrate: a trace-driven out-of-order simulator.

The paper evaluates its policies on a SimpleScalar model of the Alpha
21264 (Table 2), modified to have split reorder-buffer / integer-queue /
floating-point-queue / load-store-queue structures. This package rebuilds
that machine from scratch:

* :mod:`repro.cpu.config` — Table 2's architectural parameters,
* :mod:`repro.cpu.isa` — micro-op classes and latencies,
* :mod:`repro.cpu.branch` — the combining (bimodal + gshare) predictor
  with return-address stack and BTB,
* :mod:`repro.cpu.caches` — set-associative caches and TLBs,
* :mod:`repro.cpu.memory` — the two-level hierarchy of Table 2,
* :mod:`repro.cpu.trace` / :mod:`repro.cpu.workloads` — synthetic
  benchmark traces standing in for the SPEC/Olden binaries (see
  DESIGN.md, Substitutions),
* :mod:`repro.cpu.fu` — the integer FU pool with round-robin allocation
  and per-unit idle-interval tracking,
* :mod:`repro.cpu.sleep` — the closed-loop sleep-controller runtime
  (per-unit power states, wakeup latency, energy-state tallies),
* :mod:`repro.cpu.pipeline` — fetch/rename/issue/execute/commit timing,
* :mod:`repro.cpu.kernel` — the array-batched C engine that runs every
  simulation by default whenever it builds, with the walk as the
  fallback and ``--kernel walk|batch`` as the override (walk-exact;
  built lazily by :mod:`repro.cpu._kernel_build` from
  ``_pipeline_kernel.c``),
* :mod:`repro.cpu.simulator` — the façade the experiments drive.
"""

from repro.cpu.config import MachineConfig
from repro.cpu.fu import PowerState
from repro.cpu.isa import OpClass
from repro.cpu.simulator import SimulationResult, Simulator, simulate_workload
from repro.cpu.sleep import ControlledFunctionalUnitPool, SleepRuntimeSpec
from repro.cpu.trace import TraceInstruction
from repro.cpu.workloads import (
    BENCHMARKS,
    WorkloadProfile,
    benchmark_names,
    generate_trace,
    get_benchmark,
)

__all__ = [
    "BENCHMARKS",
    "ControlledFunctionalUnitPool",
    "MachineConfig",
    "OpClass",
    "PowerState",
    "SimulationResult",
    "Simulator",
    "SleepRuntimeSpec",
    "TraceInstruction",
    "WorkloadProfile",
    "benchmark_names",
    "generate_trace",
    "get_benchmark",
    "simulate_workload",
]
