"""Command-line interface: ``python -m repro.cli <experiment> [--quick]``.

``repro`` is the package's one command-line entry point. It lists and
runs the paper's experiments by name, from one table
(:data:`repro.experiments.runner.EXPERIMENTS`); ``all`` runs the full
set as one simulation batch; ``sweep`` evaluates a policy grid
(``--p-grid`` x ``--alpha-grid`` x ``--policies``) over the benchmark
suite with the vectorized engine;
``perf`` runs the closed-loop study — policies inside the pipeline,
sleeping units stalling issue on the wakeup latency — and reports
energy savings against the measured IPC slowdown; ``robustness``
samples the parametric scenario space (``--scenarios`` workloads from
``--families``, deterministic under ``--scenario-seed``) and reports
per-policy savings distributions, per-family ranking stability, and
worst cases. These three render through the evaluation service's
request schema (:mod:`repro.serve.schema`), locally or with
``--server``, so their flags are normalized and validated in one place:
a malformed value is a one-line usage error (exit 2) before anything
is simulated.

Execution-engine flags apply to every subcommand. ``--jobs N`` sets
the worker count of a bare ``pool`` backend, whether that spec comes
from ``--backend pool``, ``$REPRO_BACKEND`` or the default (``0`` means
every CPU this process may use); ``pool:N``, ``serial`` and
``ssh:...`` ignore it. Without ``--jobs`` a bare ``pool`` reads
``$REPRO_JOBS``, else takes every CPU this process may use. The kernel
picks the workers: the C kernel and the trace walker release the GIL,
so a batch-kernel batch runs in-process on one thread per trace group,
up to N; the walk holds it, so a walk batch forks up to N worker
processes. ``--cache-dir`` points the persistent result cache somewhere
other than ``~/.cache/repro``, and ``--no-cache`` disables the
persistent layer (the in-process memo still applies). Both kernels
stream every trace chunk by chunk, in bounded memory, which is what
lets ``repro robustness --instructions 10000000`` run 10M+-instruction
scenarios.
``--kernel walk|batch`` overrides the simulation engine: ``walk`` is
the per-instruction reference pipeline, ``batch`` the array-batched C
kernel (~10x faster on long traces, compiled on first use). Without the
flag, simulations run on ``batch`` whenever it builds and on the walk
otherwise (``-v`` says which ran, and why it fell back); an explicit
``--kernel batch`` without a C compiler fails with the build error. The
two are float-for-float identical — the kernel-equivalence CI gate
asserts ``==`` across the benchmark suite — so the knob changes speed
only, never results or cache keys. ``repro --version`` reports the
installed package version.

``--backend serial|pool[:N]|ssh:host,...`` selects *where* simulation
batches execute (in-process, the local pool, or an SSH fleet
speaking the ``repro.exec.worker`` wire protocol) and ``--store
local|shared:DIR|layered:DIR`` selects the persistent result store —
``layered`` backs the per-host cache with a write-once shared directory
so a fleet deduplicates globally. Both are outcome-neutral: the
backend-equivalence CI gate asserts byte-identical reports across
backends and stores. ``--verbose`` prints per-backend
hit/miss/executed/failed counters, and the simulations run per kernel,
to stderr after any subcommand.

``repro cache [stats|verify|gc]`` inspects and maintains the configured
store tier by tier: ``stats`` reports entry counts and bytes,
``verify`` unpickles every entry and removes corrupt ones, and
``gc --older-than DAYS`` prunes entries by age (content-addressed keys
make pruning purely a disk-space lever — never a correctness risk).
``--json`` switches ``stats``/``verify`` to one machine-readable JSON
document on stdout.

Observability (``docs/observability.md``): ``--trace-out FILE`` records
spans across the whole run — CLI dispatch, batch scheduling, backend
submission, per-job and per-stage work, including spans relayed back
from pool and SSH workers — as Chrome trace-event JSON loadable in
Perfetto; ``--run-manifest FILE`` writes a JSON provenance artifact
(argv, model fingerprint, backend/store config, cache stats, counters,
latency quantiles, metrics snapshot) that ``repro report FILE`` renders
for humans.

``repro serve`` (``docs/serving.md``) runs the long-running evaluation
service: an asyncio HTTP/JSON server that answers sweep/perf/robustness
/simulate requests from warm caches, coalesces duplicate concurrent
requests onto one execution, and folds concurrent cache misses into
single engine batches. ``--server URL`` turns the sweep/perf/robustness
subcommands into thin clients of such a service; their stdout stays
byte-identical to a local run.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro import package_version
from repro.cpu import kernel as kernel_mod
from repro.exec import backends, engine
from repro.exec import cache as result_cache
from repro.experiments import perf_impact, robustness, runner, sweep
from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE
from repro.obs import tracer
from repro.scenarios import family_names, write_catalog
from repro.scenarios.space import PHASED_FAMILY
from repro.serve import service as serve_defaults

#: Subcommands the ``--server URL`` thin-client mode can run remotely.
SERVABLE = ("sweep", "perf", "robustness")


def _experiment_names() -> List[str]:
    return sorted(name for name, _, _ in runner.EXPERIMENTS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Regenerate the tables and figures of Dropsho et al., "
            "'Managing Static Leakage Energy in Microprocessor "
            "Functional Units' (MICRO 2002)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    parser.add_argument(
        "experiment",
        choices=_experiment_names()
        + sorted(SERVABLE)
        + ["all", "cache", "report", "serve", "list"],
        help="experiment to run, 'sweep' for a policy-grid sweep, 'perf' "
        "for the closed-loop energy-vs-slowdown study, 'robustness' for "
        "the sampled-scenario policy-robustness study, 'all' for "
        "everything, 'cache' to inspect/maintain the result store, "
        "'report' to render a --run-manifest file, 'serve' to run the "
        "evaluation service, 'list' to enumerate",
    )
    parser.add_argument(
        "action",
        nargs="?",
        default=None,
        help="cache subcommand action (stats|verify|gc, default: stats) "
        "or the manifest path for 'repro report'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="reduced simulation windows (smoke-test scale)",
    )
    group = parser.add_argument_group("sweep/perf options")
    group.add_argument(
        "--p-grid",
        default=None,
        metavar="SPEC",
        help="technology (leakage factor) grid: 'lo:hi:n' for n evenly "
        "spaced points, or a comma list like '0.05,0.5' (default: "
        f"{sweep.DEFAULT_P_SPEC} for sweep, "
        f"{','.join(str(p) for p in perf_impact.DEFAULT_P_VALUES)} for perf)",
    )
    group.add_argument(
        "--alpha-grid",
        default=sweep.DEFAULT_ALPHA_SPEC,
        metavar="SPEC",
        help="activity-factor grid, same syntax (sweep only; "
        "default: %(default)s)",
    )
    group.add_argument(
        "--policies",
        default=None,
        metavar="NAMES",
        help="comma list of policies from: "
        + ", ".join(sorted([*sweep.POLICY_FACTORIES, "PredictiveSleep"]))
        + " (PredictiveSleep: perf only; default: "
        + ",".join(sweep.DEFAULT_POLICIES)
        + " for sweep, "
        + ",".join(perf_impact.DEFAULT_PERF_POLICIES)
        + " for perf, "
        + ",".join(robustness.DEFAULT_ROBUSTNESS_POLICIES)
        + " for robustness)",
    )
    group.add_argument(
        "--benchmarks",
        default="",
        metavar="NAMES",
        help="comma list of benchmarks (default: the full nine-benchmark suite)",
    )
    group.add_argument(
        "--alpha",
        type=float,
        default=None,
        metavar="A",
        help="activity factor (perf and robustness; defaults: "
        f"{perf_impact.DEFAULT_ALPHA:g} for perf, "
        f"{robustness.DEFAULT_ROBUSTNESS_ALPHA:g} for robustness)",
    )
    group.add_argument(
        "--wakeup-latencies",
        default=",".join(str(w) for w in perf_impact.DEFAULT_WAKEUP_LATENCIES),
        metavar="CYCLES",
        help="comma list of wakeup latencies in cycles (perf only; "
        "default: %(default)s)",
    )
    robust = parser.add_argument_group("robustness options")
    robust.add_argument(
        "--scenarios",
        type=int,
        default=robustness.DEFAULT_SCENARIO_COUNT,
        metavar="N",
        help="number of sampled scenarios (default: %(default)s)",
    )
    robust.add_argument(
        "--scenario-seed",
        type=int,
        default=robustness.DEFAULT_SCENARIO_SEED,
        metavar="SEED",
        help="scenario-space sampling seed (default: %(default)s)",
    )
    robust.add_argument(
        "--families",
        default="",
        metavar="NAMES",
        help="comma list of scenario families from: "
        + ", ".join(family_names() + [PHASED_FAMILY])
        + " (default: all)",
    )
    robust.add_argument(
        "--instructions",
        type=int,
        default=None,
        metavar="N",
        help="measured window per scenario, overriding the scale "
        "(long horizons stream their traces in bounded memory, so 10M+ "
        "is a time cost, not a memory cost; default: the scale's window)",
    )
    robust.add_argument(
        "--p",
        type=float,
        default=robustness.DEFAULT_P,
        metavar="P",
        help="leakage factor for the robustness study (default: %(default)s)",
    )
    robust.add_argument(
        "--catalog",
        default=None,
        metavar="PATH",
        help="write the sampled scenario catalog (JSON) to this path",
    )
    serve_group = parser.add_argument_group("serving options")
    serve_group.add_argument(
        "--serve-host",
        default=serve_defaults.DEFAULT_HOST,
        metavar="HOST",
        help="'repro serve': interface to bind (default: %(default)s)",
    )
    serve_group.add_argument(
        "--port",
        type=int,
        default=serve_defaults.DEFAULT_PORT,
        metavar="PORT",
        help="'repro serve': TCP port to listen on; 0 picks a free port "
        "(default: %(default)s)",
    )
    serve_group.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help="run sweep/perf/robustness on a 'repro serve' instance "
        "instead of locally (e.g. http://fleet-head:8765); output is "
        "byte-identical to the local run",
    )
    cache_group = parser.add_argument_group("cache maintenance options")
    cache_group.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="DAYS",
        help="'repro cache gc': remove entries not written in the last "
        "DAYS days (fractions allowed)",
    )
    cache_group.add_argument(
        "--json",
        action="store_true",
        help="'repro cache stats|verify': emit one machine-readable JSON "
        "document on stdout instead of the per-tier text lines",
    )
    _add_execution_arguments(parser)
    return parser


def _jobs_count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 = every CPU), got {value}")
    return value


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    """The execution-engine flags every subcommand takes."""
    parser.add_argument(
        "--jobs",
        type=_jobs_count,
        default=None,
        metavar="N",
        help="workers of a bare 'pool' backend, whether from --backend "
        "pool, $REPRO_BACKEND or the default (0 = every CPU this process "
        "may use): threads, one per trace group, on the C batch kernel; "
        "processes, one per job, on the walk. 'pool:N', 'serial' and "
        "'ssh:...' ignore it (default: $REPRO_JOBS, else every CPU this "
        "process may use)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persistent result-cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent result cache for this run",
    )
    parser.add_argument(
        "--kernel",
        choices=kernel_mod.KERNELS,
        default=None,
        help="simulation engine: 'walk' is the per-instruction reference "
        "pipeline, 'batch' the array-batched C kernel (compiled on first "
        "use; needs a C compiler, and fails with the build error without "
        "one). The kernels are float-for-float identical — the choice "
        "affects speed only, never results or cache keys (default: "
        "batch when it builds, else walk; -v reports which ran and why)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help="execution backend for simulation batches: 'serial' "
        "(in-process, one thread, for debugging), 'pool[:N]' (N local "
        "workers: in-process threads on the C batch kernel, worker "
        "processes on the walk; a bare 'pool' takes N from --jobs or "
        "$REPRO_JOBS, else every CPU this process may use), or "
        "'ssh:host1,host2,...' (remote workers over SSH; the pseudo-host "
        "'localhost' spawns a local worker without sshd). Results are "
        "byte-identical across backends (default: $REPRO_BACKEND or pool)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="SPEC",
        help="persistent result store: 'local' (per-host --cache-dir), "
        "'shared:DIR' (write-once shared-filesystem store), or "
        "'layered:DIR' (read-through/write-back: local tier backed by "
        "the shared DIR, so a fleet deduplicates globally; default: "
        "$REPRO_STORE or local)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="collect spans across the run (CLI dispatch, batch "
        "scheduling, backend submission, per-job and per-stage work — "
        "including spans relayed back from pool and SSH workers) and "
        "write them as Chrome trace-event JSON, loadable in Perfetto "
        "(https://ui.perfetto.dev) or chrome://tracing "
        "(default: $REPRO_TRACE_OUT or disabled — disabled tracing "
        "costs nothing)",
    )
    parser.add_argument(
        "--run-manifest",
        default=None,
        metavar="FILE",
        help="write a JSON run manifest (argv, model fingerprint, "
        "backend/store configuration, cache tier stats, per-backend "
        "counters, stage times, metrics snapshot) after the run; render "
        "it later with 'repro report FILE'",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="print per-backend execution counters "
        "(submitted/hits/misses/executed/failed) and the simulations run "
        "per kernel to stderr after the run",
    )


def _apply_execution_arguments(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> None:
    """Configure the process-wide engine state from parsed CLI flags.

    The backend and store specs in effect, from a flag or the
    environment, are parsed here, so a bad one is a usage error before
    anything runs.
    """
    try:
        result_cache.configure(
            cache_dir=args.cache_dir, enabled=not args.no_cache, store=args.store
        )
        backends.set_default_backend(backends.fill_pool_workers(args.backend, args.jobs))
        backends.resolve_backend(None)
    except ValueError as error:
        parser.error(str(error))
    kernel_mod.set_default_kernel(args.kernel)
    tracer.configure(args.trace_out or os.environ.get(tracer.ENV_TRACE_OUT) or None)


def _finalize_observability(
    args: argparse.Namespace, argv: Optional[List[str]], exit_code: int, started: float
) -> None:
    """Write the Chrome trace when ``--trace-out``/``$REPRO_TRACE_OUT``
    configured a path, and the run manifest when ``--run-manifest`` did."""
    if tracer.output_path():
        tracer.export_chrome_trace()
    if args.run_manifest:
        from repro.obs import manifest as manifest_mod

        manifest_mod.write_run_manifest(
            args.run_manifest, argv=argv, exit_code=exit_code, started=started
        )


def _print_telemetry() -> None:
    """The ``--verbose`` report on stderr: per-backend execution counters,
    then the per-kernel simulation counts when anything was simulated.
    Stdout stays byte-identical with and without ``--verbose``."""
    lines = engine.telemetry_lines()
    if not lines:
        print("[repro] no simulation batches were submitted", file=sys.stderr)
    kernel_line = kernel_mod.telemetry_line()
    if kernel_line is not None:
        lines.append(kernel_line)
    for line in lines:
        print(line, file=sys.stderr)


#: The machine-readable ``repro cache --json`` document schema tag.
CACHE_REPORT_SCHEMA = "repro.cache-report/1"


def _run_cache(args: argparse.Namespace) -> int:
    """The ``repro cache [stats|verify|gc]`` operator subcommand."""
    from repro.exec.stores import store_layers
    from repro.obs.manifest import to_json

    store = result_cache.active()
    if store is None:
        print(
            "repro cache: the persistent result store is disabled "
            "(--no-cache / REPRO_NO_CACHE)",
            file=sys.stderr,
        )
        return 2
    action = args.action or "stats"
    if action == "gc" and args.older_than is None:
        print("repro cache gc: --older-than DAYS is required", file=sys.stderr)
        return 2
    tiers = []
    for name, layer in store_layers(store):
        tier = {"tier": name, "directory": str(layer.directory)}
        if action == "stats":
            stats = layer.stats()
            tier.update(entries=stats.entries, total_bytes=stats.total_bytes)
            text = (
                f"{name}: {stats.entries} entries, {stats.total_bytes} bytes"
                f"  ({layer.directory})"
            )
        elif action == "verify":
            verdict = layer.verify()
            tier.update(
                checked=verdict.checked, ok=verdict.ok, corrupt_removed=verdict.corrupt
            )
            text = (
                f"{name}: {verdict.checked} checked, {verdict.ok} ok, "
                f"{verdict.corrupt} corrupt removed  ({layer.directory})"
            )
        else:
            removed = layer.gc(args.older_than * 86_400.0)
            tier.update(removed=removed, older_than_days=args.older_than)
            text = (
                f"{name}: removed {removed} entries older than "
                f"{args.older_than:g} days  ({layer.directory})"
            )
        tiers.append(tier)
        if not args.json:
            print(text)
    if args.json:
        document = {
            "schema": CACHE_REPORT_SCHEMA,
            "action": action,
            "store": store.describe(),
            "tiers": tiers,
        }
        print(to_json(document), end="")
    return 0


def _run_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Render a ``--run-manifest`` artifact for humans."""
    from repro.obs import manifest as manifest_mod

    if not args.action:
        parser.error("repro report requires a run-manifest path")
    try:
        document = manifest_mod.load_manifest(args.action)
    except FileNotFoundError:
        print(f"repro report: no such file: {args.action}", file=sys.stderr)
        return 2
    except ValueError as error:
        print(f"repro report: {error}", file=sys.stderr)
        return 2
    print(manifest_mod.render_manifest(document))
    return 0


def _run_servable(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """sweep/perf/robustness: one serve payload from the flags, rendered
    here or shipped to ``--server``. :mod:`repro.serve.schema` is the one
    normalizer and validator of these flags either way."""
    from repro.serve import client
    from repro.serve.schema import RequestError, build_request, payload_from_args

    payload = payload_from_args(args.experiment, args)
    if args.server is None:
        try:
            request = build_request(payload)
        except RequestError as error:
            parser.error(str(error))
        text = request.render()
        if args.catalog is not None:
            write_catalog(request.scenarios, args.catalog)
        print(text)
        return 0

    def progress(event):
        name = event.get("event")
        if name == "coalesced":
            print("[repro] coalesced onto an in-flight request", file=sys.stderr)
        elif name == "warm":
            print(f"[repro] warm: all {event['jobs']} simulations cached", file=sys.stderr)
        elif name == "scheduled":
            print(
                f"[repro] scheduled: {event['pending']} of {event['jobs']} "
                "simulations pending",
                file=sys.stderr,
            )

    try:
        result = client.run_remote(args.server, payload, on_event=progress)
    except client.ServeClientError as error:
        print(f"repro --server: {error}", file=sys.stderr)
        return 2
    print(result["text"])
    return 0


def _dispatch(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    scale = QUICK_SCALE if args.quick else DEFAULT_SCALE
    if args.experiment == "serve":
        from repro.serve.service import run_service

        return run_service(host=args.serve_host, port=args.port)
    if args.experiment in SERVABLE:
        return _run_servable(args, parser)
    if args.experiment == "cache":
        return _run_cache(args)
    if args.experiment == "all":
        runner.run_all(scale)
        return 0
    renderers = {name: render for name, _, render in runner.EXPERIMENTS}
    print(renderers[args.experiment](scale))
    return 0


def _validate_action(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Per-subcommand validation of the free-form ``action`` positional."""
    if args.server is not None:
        if args.experiment not in SERVABLE:
            parser.error(
                f"--server only applies to {', '.join(SERVABLE)}, "
                f"not {args.experiment!r}"
            )
        if args.catalog is not None:
            parser.error(
                "--catalog writes the locally-sampled scenarios; "
                "it is not supported with --server"
            )
    if args.experiment == "cache":
        if args.action not in (None, "stats", "verify", "gc"):
            parser.error(
                f"unknown cache action {args.action!r} "
                "(choose from stats, verify, gc)"
            )
    elif args.experiment == "report":
        pass  # the action is the manifest path; _run_report checks it
    elif args.action is not None:
        parser.error(
            f"'{args.action}' only applies to 'repro cache' and "
            f"'repro report', not {args.experiment!r}"
        )


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:  # pragma: no cover - depends on a closed pipe
        # stdout went away mid-render (e.g. `repro report run.json | head`).
        # Devnull the stream so the interpreter's shutdown flush cannot
        # raise a second traceback, and exit with the conventional
        # 128+SIGPIPE status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _main(argv=None) -> int:
    started = time.time()
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_action(args, parser)
    if args.experiment == "list":
        for name in _experiment_names() + sorted(SERVABLE):
            print(name)
        return 0
    if args.experiment == "report":
        return _run_report(args, parser)
    _apply_execution_arguments(args, parser)
    with tracer.span(f"cli.{args.experiment}", category="cli"):
        code = _dispatch(args, parser)
    if args.verbose:
        _print_telemetry()
    _finalize_observability(
        args, list(argv) if argv is not None else sys.argv[1:], code, started
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
