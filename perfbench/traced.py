"""Traced launcher: run one ``repro`` command with per-layer timing.

Usage (inside a hermetic run directory, as the harness does it)::

    python3 perfbench/traced.py REPORT.json setup
    python3 perfbench/traced.py REPORT.json cli ARGS...

``cli`` times ``import repro.cli``, wraps the public functions of each
layer where their callers look them up (the defining module and every
``repro`` module that imported the same function object, or the class
for methods), then runs ``repro.cli.main(ARGS)`` in this process. For
``repro serve`` that hosts :class:`~repro.serve.service.EvaluationService`
here, so the harness drives the same load at it. ``setup`` only builds
and loads the two C kernels, so compile time is attributed to set-up.

Wrappers sit on coarse calls only: per trace (and per chunk drawn from
an ``iter_trace`` iterator, which counts as generation even inside a
kernel's ``run``), per simulation, store operation, batch, pricing call
and experiment. A layer's self time is its spans' duration minus the
time of the child spans they contain. On exit the launcher writes the
per-layer totals, the counters, and how much time any span covered to
``REPORT.json``.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable, Dict, List

EVALUATE_MODULES = (
    "figure3", "figure4", "figure5", "figure7", "figure8", "figure9",
    "table1", "table3", "sweep", "perf_impact", "robustness",
)
ABLATIONS = (
    "slice_count", "duty_cycle", "sleep_overhead", "fu_count",
    "predictive_policy", "l2_latency",
)


class Recorder:
    """Per-thread span stacks feeding per-layer self-time totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Calls per layer that were not nested inside the same layer.
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        self.trace_ids: set = set()
        #: (start, end) of every span, on every thread.
        self.intervals: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, layer: str) -> list:
        stack = self._stack()
        outermost = all(frame[0] != layer for frame in stack)
        frame = [layer, time.perf_counter(), 0.0, outermost]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[1]
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[frame[0]] += duration - frame[2]
            if frame[3]:
                self.calls[frame[0]] += 1
            self.intervals.append((frame[1], end))

    def inside(self, layer: str) -> bool:
        return any(frame[0] == layer for frame in self._stack())

    def count(self, **amounts: float) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self.counters[name] += amount


REC = Recorder()


def _span(layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = REC.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            REC.exit(frame)

    return wrapper


def _timed_draws(layer: str, iterator) -> Any:
    """Re-yield ``iterator``, timing every ``next`` as a ``layer`` span."""
    iterator = iter(iterator)
    while True:
        frame = REC.enter(layer)
        try:
            item = next(iterator)
        except StopIteration:
            return
        finally:
            REC.exit(frame)
        yield item


def _patch(owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``owner.name`` everywhere callers look it up."""
    original = getattr(owner, name)
    wrapped = make(original)
    setattr(owner, name, wrapped)
    if not isinstance(owner, ModuleType):
        return
    for module in list(sys.modules.values()):
        if not isinstance(module, ModuleType) or not module.__name__.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


# -- layer wrappers ------------------------------------------------------------


def _trace_source(kind: str) -> Callable[[Callable], Callable]:
    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(profile, num_instructions, seed=1, *args, **kwargs):
            if not REC.inside("generate"):
                REC.count(traces=1, instructions=num_instructions)
                with REC._lock:
                    REC.trace_ids.add((profile, num_instructions, seed))
            frame = REC.enter("generate")
            try:
                produced = fn(profile, num_instructions, seed, *args, **kwargs)
            finally:
                REC.exit(frame)
            return _timed_draws("generate", produced) if kind == "iter" else produced

        return wrapper

    return make


def _simulator_run(fn: Callable) -> Callable:
    from repro.cpu.kernel import KERNEL_BATCH, resolve_kernel

    @functools.wraps(fn)
    def wrapper(self, num_instructions, warmup_instructions=0, *args, **kwargs):
        frame = REC.enter("sim")
        try:
            result = fn(self, num_instructions, warmup_instructions, *args, **kwargs)
        finally:
            REC.exit(frame)
        REC.count(
            sim_runs=1,
            sim_instructions=num_instructions + warmup_instructions,
            sim_batch_runs=int(resolve_kernel(self.kernel) == KERNEL_BATCH),
            sim_cycles=result.stats.total_cycles,
            sim_committed=result.stats.committed_instructions,
        )
        return result

    return wrapper


def _run_jobs(fn: Callable) -> Callable:
    from repro.exec.engine import BatchReport

    @functools.wraps(fn)
    def wrapper(jobs, *args, report=None, **kwargs):
        report = report if report is not None else BatchReport()
        frame = REC.enter("engine")
        try:
            return fn(jobs, *args, report=report, **kwargs)
        finally:
            REC.exit(frame)
            REC.count(
                batches=1,
                submitted=report.submitted,
                unique=report.unique,
                executed=report.executed,
            )

    return wrapper


def _submit_batch(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, jobs):
        return _timed_draws("backend", fn(self, jobs))

    return wrapper


def _store_get(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, key):
        frame = REC.enter("store.get")
        try:
            value = fn(self, key)
        finally:
            REC.exit(frame)
        size = self._path(key).stat().st_size if value is not None else 0
        REC.count(gets=1, get_hits=int(value is not None), get_bytes=size)
        return value

    return wrapper


def _store_put(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(self, key, value):
        frame = REC.enter("store.put")
        try:
            fn(self, key, value)
        finally:
            REC.exit(frame)
        REC.count(puts=1, put_bytes=self._path(key).stat().st_size)

    return wrapper


def install() -> None:
    """Wrap every layer's public entry points (after ``import repro.cli``)."""
    import importlib

    from repro.core import accounting
    from repro.cpu import _kernel_build, _trace_build, simulator, workloads
    from repro.exec import backends, cache, engine
    from repro.experiments import ablations, sweep

    _patch(workloads, "iter_trace", _trace_source("iter"))
    _patch(workloads, "generate_trace", _trace_source("list"))
    _patch(simulator.Simulator, "run", _simulator_run)
    _patch(_kernel_build, "kernel_library", functools.partial(_span, "kernel.load"))
    _patch(_trace_build, "trace_library", functools.partial(_span, "kernel.load"))
    _patch(_kernel_build, "_compile", functools.partial(_span, "kernel.compile"))
    # Pricing enters repro.core per functional unit (evaluate_many for
    # open-loop policies, evaluate_runtime for closed-loop tallies) and
    # per policy grid (evaluate_grid, the batched pass over
    # repro.core.vectorized); finer calls would cost more than they show.
    for method in ("evaluate_many", "evaluate_runtime"):
        _patch(accounting.EnergyAccountant, method, functools.partial(_span, "pricing"))
    _patch(sweep, "evaluate_grid", functools.partial(_span, "pricing"))
    _patch(engine, "run_jobs", _run_jobs)
    _patch(backends.ProcessPoolBackend, "submit_batch", _submit_batch)
    _patch(backends.SerialBackend, "submit_batch", _submit_batch)
    _patch(cache.ResultCache, "get", _store_get)
    _patch(cache.ResultCache, "put", _store_put)
    for name in EVALUATE_MODULES:
        module = importlib.import_module(f"repro.experiments.{name}")
        _patch(module, "run", functools.partial(_span, "evaluate"))
        _patch(module, "render", functools.partial(_span, "render"))
    for name in ABLATIONS:
        _patch(ablations, name, functools.partial(_span, "evaluate"))
    _patch(ablations, "render_all", functools.partial(_span, "render"))


def covered_seconds(intervals: List[tuple]) -> float:
    """Length of the union of all span intervals, across threads."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def report(import_s: float) -> Dict[str, Any]:
    counters = dict(REC.counters)
    counters["unique_traces"] = len(REC.trace_ids)
    return {
        "import_s": import_s,
        "covered_s": covered_seconds(REC.intervals),
        "self_s": dict(REC.self_s),
        "calls": dict(REC.calls),
        "counters": counters,
    }


def main(argv: List[str]) -> int:
    report_path, mode, *rest = argv
    started = time.perf_counter()
    import repro.cli

    import_s = time.perf_counter() - started
    install()
    if mode == "setup":
        from repro.cpu import _kernel_build, _trace_build

        _kernel_build.kernel_library()
        _trace_build.trace_library()
        code = 0
    else:
        code = repro.cli.main(rest)
        sys.stdout.flush()
    with open(report_path, "w") as handle:
        json.dump(report(import_s), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
