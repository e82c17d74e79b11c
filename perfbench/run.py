"""End-to-end benchmark of the ``repro`` CLI and service.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quick-cold --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 1

Each workload is measured from outside the program: every invocation is
a fresh child process with default flags in a hermetic run directory
(see :mod:`hermetic`). ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reports the per-layer split from the traced launcher
(:mod:`traced`), next to an untraced run of the same work so the
tracing overhead is measured too. Outputs are checked on every run:
pinned stdout digests, batch-kernel references, serve duplicates and
local renders. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``perfbench/spec.json`` holds
the pinned digests, each workload's rationale and the layer to
end-to-end metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hermetic import (  # noqa: E402
    BenchError,
    Outcome,
    RunDir,
    Usage,
    checked,
    kernel_setup_argv,
    run_timed,
    spawn,
    stop,
    user_cache_state,
    wait_for_line,
)
import serveload  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
#: Per-layer metric names and units, in BENCHMARK.json's order.
LAYER_UNITS = {
    metric["name"]: metric["unit"]
    for metric in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
}
SETUPS = 3
SERVE_CLIENTS = 2
TRACED = str(HERE / "traced.py")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: List[float], share: float) -> float:
    """Nearest-rank quantile of ``values`` (which must be non-empty)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, int(share * len(ordered) + 0.5) - 1))]


@dataclass
class Operation:
    """One timed unit of work: a CLI invocation or a serve episode."""

    wall_s: float
    usage: Usage
    attempted: int
    failed: int
    report: Optional[Dict[str, Any]] = None
    extra: Dict[str, Any] = field(default_factory=dict)


class Failures:
    """Counts output-check mismatches and prints each one."""

    def __init__(self) -> None:
        self.count = 0

    def add(self, message: str) -> None:
        self.count += 1
        print(f"[perfbench] FAILED: {message}")


# -- workloads -----------------------------------------------------------------


class Workload:
    """Set-up plus one repeatable operation, with its output checks."""

    name = ""

    def __init__(self, seed: int, failures: Failures):
        self.seed = seed
        self.failures = failures

    def setup(self, run: RunDir, traced_report: Optional[Path] = None) -> None:
        argv = [TRACED, str(traced_report), "setup"] if traced_report else kernel_setup_argv()
        checked(run_timed(run, argv, "setup"), "kernel set-up")

    def operation(self, run: RunDir, traced_report: Optional[Path] = None) -> Operation:
        raise NotImplementedError

    def finish(self, run: RunDir, ops: List[Operation]) -> None:
        """Post-timing checks that need a reference computation."""

    def sim_reference(self, run: RunDir, report: Path) -> Optional[Dict[str, Any]]:
        """A traced batch-kernel run of the same simulations, or None."""
        return None


class CliWorkload(Workload):
    warm = False

    def cli_args(self) -> List[str]:
        return ["all", "--quick"]

    def store(self, run: RunDir) -> Path:
        return self.warm_store if self.warm else run.new_store()

    def argv(self, run: RunDir, traced_report: Optional[Path], *extra: str) -> List[str]:
        tail = [*self.cli_args(), *extra, "--cache-dir", str(self.store(run))]
        if traced_report is not None:
            return [TRACED, str(traced_report), "cli", *tail]
        return ["-m", "repro.cli", *tail]

    def expected_digest(self, run: RunDir) -> Optional[str]:
        return SPEC["digests"]["quick"]

    def operation(self, run: RunDir, traced_report: Optional[Path] = None) -> Operation:
        outcome = run_timed(run, self.argv(run, traced_report), self.name)
        failed = self.check(outcome, self.expected_digest(run))
        report = None
        if traced_report is not None and traced_report.exists():
            report = json.loads(traced_report.read_text())
        return Operation(
            outcome.wall_s, outcome.usage, 1, failed, report,
            {"digest": sha256(outcome.stdout_bytes())},
        )

    def check(self, outcome: Outcome, expected: Optional[str]) -> int:
        if outcome.code != 0:
            self.failures.add(
                f"{self.name} exited {outcome.code}: "
                + outcome.stderr.read_text(errors="replace")[-1500:]
            )
            return 1
        digest = sha256(outcome.stdout_bytes())
        if expected is not None and digest != expected:
            self.failures.add(f"{self.name} stdout sha256 {digest[:16]} != {expected[:16]}")
            return 1
        return 0

    def sim_reference(self, run: RunDir, report: Path) -> Optional[Dict[str, Any]]:
        outcome = run_timed(run, self.argv(run, report, "--kernel", "batch"), "reference")
        checked(outcome, f"{self.name} batch-kernel reference")
        return json.loads(report.read_text())


class QuickCold(CliWorkload):
    name = "quick-cold"


class QuickWarm(CliWorkload):
    name = "quick-warm"
    warm = True

    def setup(self, run: RunDir, traced_report: Optional[Path] = None) -> None:
        super().setup(run, traced_report)
        self.warm_store = run.new_store()
        fill = run_timed(
            run,
            ["-m", "repro.cli", "all", "--quick", "--kernel", "batch",
             "--cache-dir", str(self.warm_store)],
            "fill",
        )
        checked(fill, "store fill")
        if self.check(fill, SPEC["digests"]["quick"]):
            raise BenchError("the store fill printed unexpected output")

    def sim_reference(self, run: RunDir, report: Path) -> Optional[Dict[str, Any]]:
        # A warm run simulates nothing: the reference totals are zero.
        return {"counters": {"sim_cycles": 0, "sim_committed": 0}}


class RobustnessLong(CliWorkload):
    name = "robustness-long"

    def __init__(self, seed: int, failures: Failures):
        super().__init__(seed, failures)
        self.scenario_seed = seed & 0x7FFFFFFF

    def cli_args(self) -> List[str]:
        return [
            "robustness", "--quick", "--scenarios", "12", "--instructions", "100000",
            "--scenario-seed", str(self.scenario_seed),
        ]

    def expected_digest(self, run: RunDir) -> Optional[str]:
        return None  # checked in finish() against the batch-kernel reference

    def finish(self, run: RunDir, ops: List[Operation]) -> None:
        reference = run_timed(run, self.argv(run, None, "--kernel", "batch"), "reference")
        checked(reference, "robustness batch-kernel reference")
        expected = sha256(reference.stdout_bytes())
        pinned = SPEC["digests"]["robustness-long@scenario-seed=1"]
        if self.scenario_seed == 1 and expected != pinned:
            self.failures.add(f"robustness reference sha256 {expected[:16]} != pinned {pinned[:16]}")
        for op in ops:
            if op.failed == 0 and op.extra["digest"] != expected:
                self.failures.add(
                    f"robustness stdout sha256 {op.extra['digest'][:16]} != "
                    f"batch-kernel reference {expected[:16]}"
                )
                op.failed = 1


class ServeOverlap(Workload):
    name = "serve-overlap"

    def __init__(self, seed: int, failures: Failures):
        super().__init__(seed, failures)
        self.payloads = serveload.build_mix(seed)

    def operation(self, run: RunDir, traced_report: Optional[Path] = None) -> Operation:
        tail = ["serve", "--port", "0", "--cache-dir", str(run.new_store())]
        argv = [TRACED, str(traced_report), "cli", *tail] if traced_report else ["-m", "repro.cli", *tail]
        started = time.perf_counter()
        proc, _out, err = spawn(run, argv, self.name)
        try:
            line = wait_for_line(err, "serving on http://", proc, timeout=120.0)
            host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
            records = serveload.drive(host, int(port), self.payloads, SERVE_CLIENTS, timeout=170.0)
            wall = max(record.done for record in records) - started
            metrics = serveload.fetch_metrics(host, int(port))
        finally:
            code, usage = stop(proc)
        failed = sum(1 for record in records if record.error is not None)
        for record in records:
            if record.error is not None:
                self.failures.add(f"serve {record.payload['kind']}: {record.error}")
        if code != 0:
            self.failures.add(f"repro serve exited {code}")
            failed += 1
        report = None
        if traced_report is not None and traced_report.exists():
            report = json.loads(traced_report.read_text())
        return Operation(
            wall, usage, len(records), failed, report,
            {"records": records, "metrics": metrics},
        )

    def finish(self, run: RunDir, ops: List[Operation]) -> None:
        first_of_kind: Dict[str, int] = {}
        for index, payload in enumerate(self.payloads):
            first_of_kind.setdefault(payload["kind"], index)
        spec_path = run.path / "servecheck.json"
        spec_path.write_text(json.dumps({
            "payloads": self.payloads, "render": sorted(first_of_kind.values()),
        }))
        outcome = run_timed(
            run, [str(HERE / "servecheck.py"), str(spec_path), str(run.new_store())],
            "servecheck",
        )
        checked(outcome, "serve local reference")
        local = json.loads(outcome.stdout_bytes())
        self.unique_sims = local["unique_sims"]
        for op in ops:
            texts: Dict[str, str] = {}
            for index, record in enumerate(op.extra["records"]):
                if record.text is None:
                    continue
                identity = json.dumps(record.payload, sort_keys=True)
                if texts.setdefault(identity, record.text) != record.text:
                    self.failures.add(f"serve duplicate {record.payload['kind']} answered differently")
                    op.failed += 1
                expected = local["renders"].get(str(index))
                if expected is not None and record.text != expected:
                    self.failures.add(f"serve {record.payload['kind']} differs from the local render")
                    op.failed += 1


WORKLOADS: Dict[str, Callable[[int, Failures], Workload]] = {
    "quick-cold": QuickCold,
    "quick-warm": QuickWarm,
    "robustness-long": RobustnessLong,
    "serve-overlap": ServeOverlap,
}


# -- end-to-end measurement ----------------------------------------------------


def keep_going(started: float, walls: List[float], seconds: float) -> bool:
    """Start another operation only if it should end within the budget."""
    return time.perf_counter() - started + median(walls) <= seconds


def measure(workload: Workload, root: Path, seconds: float) -> Dict[str, Any]:
    setups: List[float] = []
    run: Optional[RunDir] = None
    try:
        for _ in range(SETUPS):
            if run is not None:
                run.remove()
            started = time.perf_counter()
            run = RunDir(root, workload.name)
            workload.setup(run)
            setups.append(time.perf_counter() - started)
        ops: List[Operation] = []
        started = time.perf_counter()
        while not ops or keep_going(started, [op.wall_s for op in ops], seconds):
            ops.append(workload.operation(run))
        workload.finish(run, ops)
    finally:
        if run is not None:
            run.remove()
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([op.wall_s for op in ops]), "s"),
        "cpu_s": (median([op.usage.cpu_s for op in ops]), "s"),
        "peak_rss_mb": (median([op.usage.peak_rss_mb for op in ops]), "MB"),
    }
    print(f"[perfbench] {workload.name}: {len(ops)} operations, {SETUPS} set-ups")
    return {
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }


# -- traced per-layer measurement ----------------------------------------------


def serve_client_metrics(workload: ServeOverlap, op: Operation) -> Dict[str, float]:
    """The serve layer as its clients see it, from one untraced episode.

    The three phase times are medians of the gaps between a request's
    send, its ``accepted`` event, its path event (``warm``, ``scheduled``
    or ``coalesced``) and its ``result``.
    """
    records = [r for r in op.extra["records"] if r.error is None]
    histograms = op.extra["metrics"].get("histograms", {})
    batch = histograms.get("serve.batch_jobs", {})
    executed = int(histograms.get("job_seconds", {}).get("count", 0))
    latencies = [r.latency for r in records]
    drive_s = max(r.done for r in records) - min(r.sent for r in records)
    return {
        "serve.accept_s": median([r.events["accepted"] - r.sent for r in records]),
        "serve.probe_s": median([r.events[r.path] - r.events["accepted"] for r in records]),
        "serve.execute_s": median([r.done - r.events[r.path] for r in records]),
        "serve.warm": sum(r.path == "warm" for r in records),
        "serve.coalesced": sum(r.path == "coalesced" for r in records),
        "serve.scheduled": sum(r.path == "scheduled" for r in records),
        "serve.batch_jobs_mean": batch["sum"] / batch["count"] if batch.get("count") else 0.0,
        "serve.executed": executed,
        "serve.unique_sims": workload.unique_sims,
        "serve.reexecution_ratio": executed / workload.unique_sims,
        "serve.attribution_gap": abs(sum(r.executed for r in records) - executed),
        # p95 is the highest percentile with >= 10 samples beyond it at
        # serveload.REQUESTS = 240.
        "serve.latency_p50_s": quantile(latencies, 0.50),
        "serve.latency_p95_s": quantile(latencies, 0.95),
        "serve.requests_per_s": len(records) / drive_s,
    }


def layer_metrics(op: Operation, setup: Dict[str, Any]) -> Dict[str, float]:
    rep = op.report
    self_s, calls, counters = rep["self_s"], rep["calls"], rep["counters"]

    def s(layer: str) -> float:
        return self_s.get(layer, 0.0)

    def c(name: str) -> float:
        return counters.get(name, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "cli.import_s": rep["import_s"],
        "cpu.workloads.generate_s": s("generate"),
        "cpu.workloads.traces": c("traces"),
        "cpu.workloads.unique_traces": c("unique_traces"),
        "cpu.workloads.reuse_ratio": ratio(c("unique_traces"), c("traces")),
        "cpu.workloads.instructions": c("instructions"),
        "cpu.sim.kernel_s": s("sim"),
        "cpu.sim.runs": c("sim_runs"),
        "cpu.sim.minstr_per_s": ratio(c("sim_instructions"), s("sim")) / 1e6,
        "cpu.sim.batch_share": ratio(c("sim_batch_runs"), c("sim_runs")),
        # Kernel compile and load are set-up costs: the set-up launcher's
        # share plus whatever leaked into the run itself.
        "cpu.kernel.load_s": s("kernel.load") + setup["self_s"].get("kernel.load", 0.0),
        "cpu.kernel.compile_s": s("kernel.compile") + setup["self_s"].get("kernel.compile", 0.0),
        "sim.cycles": c("sim_cycles"),
        "sim.committed": c("sim_committed"),
        "core.pricing_s": s("pricing"),
        "core.pricing.calls": calls.get("pricing", 0),
        "exec.engine.self_s": s("engine"),
        "exec.engine.batches": c("batches"),
        "exec.engine.submitted": c("submitted"),
        "exec.engine.unique": c("unique"),
        "exec.engine.executed": c("executed"),
        "exec.engine.dedup_ratio": ratio(c("unique"), c("submitted")),
        "exec.backend.overhead_s": s("backend"),
        "exec.store.get_s": s("store.get"),
        "exec.store.gets": c("gets"),
        "exec.store.hit_ratio": ratio(c("get_hits"), c("gets")),
        "exec.store.get_bytes": c("get_bytes"),
        "exec.store.put_s": s("store.put"),
        "exec.store.puts": c("puts"),
        "exec.store.put_bytes": c("put_bytes"),
        "experiments.evaluate_s": s("evaluate"),
        "experiments.render_s": s("render"),
        # Time no layer span covered, on any thread. Under concurrency
        # (serve) self times overlap and do not sum to wall time.
        "unattributed_s": op.wall_s - rep["import_s"] - rep["covered_s"],
    }


def check_layers(workload: Workload, op: Operation) -> None:
    """No vacuous layers: every expected wrapper must have fired."""
    spec = SPEC["workloads"][workload.name]
    calls = op.report["calls"]
    for layer in spec["expect_layers"]:
        if not calls.get(layer):
            workload.failures.add(f"{workload.name}: traced layer {layer!r} never fired")
            op.failed += 1
    for layer in spec["idle_layers"]:
        if calls.get(layer):
            print(f"[perfbench] note: {workload.name}: layer {layer!r} fired {calls[layer]} times")


def trace(workload: Workload, root: Path, seconds: float) -> Dict[str, Any]:
    run = RunDir(root, workload.name)
    try:
        setup_report = run.path / "setup-trace.json"
        workload.setup(run, setup_report)
        setup = json.loads(setup_report.read_text())
        pairs = []
        started = time.perf_counter()
        while not pairs or keep_going(started, [a.wall_s + b.wall_s for a, b in pairs], seconds):
            plain = workload.operation(run)
            report = run.path / f"trace-{len(pairs)}.json"
            pairs.append((plain, workload.operation(run, report)))
        ops = [op for pair in pairs for op in pair]
        workload.finish(run, ops)
        reference = workload.sim_reference(run, run.path / "reference-trace.json")
        rows = []
        for plain, traced in pairs:
            if traced.report is None:
                workload.failures.add(f"{workload.name}: the traced launcher wrote no report")
                traced.failed += 1
                continue
            check_layers(workload, traced)
            row = layer_metrics(traced, setup)
            row["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
            if isinstance(workload, ServeOverlap):
                row.update(serve_client_metrics(workload, plain))
            rows.append(row)
        totals = {(row["sim.cycles"], row["sim.committed"]) for row in rows}
        if reference is not None:
            counters = reference["counters"]
            totals.add((counters.get("sim_cycles", 0), counters.get("sim_committed", 0)))
        if len(totals) > 1:
            workload.failures.add(f"{workload.name}: simulated totals differ across traced runs: {sorted(totals)}")
            pairs[0][1].failed += 1
    finally:
        run.remove()
    # Layers a workload never reaches (serve.* outside serve-overlap,
    # the kernel on quick-warm) read 0.
    metrics = {
        name: (median([row.get(name, 0.0) for row in rows]), unit)
        for name, unit in LAYER_UNITS.items()
    }
    print(f"[perfbench] {workload.name}: {len(pairs)} traced + {len(pairs)} untraced operations")
    return {
        "attempted": sum(op.attempted for op in ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }


# -- entry point ---------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool, root: Path) -> Dict[str, Any]:
    failures = Failures()
    workload = WORKLOADS[name](seed, failures)
    measured = (trace if traced else measure)(workload, root, seconds)
    for metric, (value, unit) in measured["metrics"].items():
        print(f"[perfbench] {name} {metric} = {value:.6g} {unit}")
    return {
        "correct": failures.count == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit) in measured["metrics"].items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("perfbench: no program source at src/repro; run from a checkout root", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"[perfbench] seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    before = user_cache_state()
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        except BenchError as error:
            print(f"[perfbench] {name}: {error}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps({name: results[name]}))
    if user_cache_state() != before:
        print("[perfbench] FAILED: the user's ~/.cache/repro or ~/.cache/repro-kernel changed")
        for result in results.values():
            result["correct"] = False
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
