"""Command-line interface: ``python -m repro.cli <experiment> [--quick]``.

Lists and runs the paper's experiments by name. ``all`` runs the full
set (equivalent to ``python -m repro.experiments.runner``); ``sweep``
evaluates a policy grid (``--p-grid`` x ``--alpha-grid`` x
``--policies``) over the benchmark suite with the vectorized engine;
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

Execution-engine flags apply to every experiment: ``--jobs N`` fans
simulation batches out across N worker processes, ``--cache-dir`` points
the persistent result cache somewhere other than ``~/.cache/repro``, and
``--no-cache`` disables the persistent layer (the in-process memo still
applies). Traces stream in bounded memory (on the walk, from 500k
total instructions), which is what lets ``repro robustness
--instructions 10000000`` run 10M+-instruction scenarios.
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
batches execute (in-process, local worker processes, or an SSH fleet
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
from typing import Callable, Dict

from repro import package_version
from repro.obs import tracer
from repro.experiments import (
    ablations,
    figure3,
    figure4,
    figure5,
    figure7,
    figure8,
    figure9,
    perf_impact,
    robustness,
    runner,
    sweep,
    table1,
    table3,
)
from repro.experiments.common import DEFAULT_SCALE, QUICK_SCALE, ExperimentScale
from repro.scenarios import family_names, write_catalog
from repro.scenarios.space import PHASED_FAMILY
from repro.serve import service as serve_defaults


def _registry(scale: ExperimentScale) -> Dict[str, Callable[[], str]]:
    return {
        "table1": lambda: table1.render(table1.run()),
        "figure3": lambda: figure3.render(figure3.run()),
        "figure4": lambda: figure4.render(figure4.run()),
        "figure5": lambda: figure5.render(figure5.run()),
        "figure7": lambda: figure7.render(figure7.run(scale=scale)),
        "figure8": lambda: figure8.render(figure8.run(scale=scale)),
        "figure9": lambda: figure9.render(figure9.run(scale=scale)),
        "table3": lambda: table3.render(table3.run(scale=scale)),
        "ablations": lambda: ablations.render_all(scale=scale),
    }


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
        choices=sorted(_registry(DEFAULT_SCALE))
        + ["perf", "robustness", "sweep", "all", "cache", "report", "serve", "list"],
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
    runner.add_execution_arguments(parser)
    return parser


#: The machine-readable ``repro cache --json`` document schema tag.
CACHE_REPORT_SCHEMA = "repro.cache-report/1"


def _run_cache(args: argparse.Namespace) -> int:
    """The ``repro cache [stats|verify|gc]`` operator subcommand."""
    from repro.exec import cache as result_cache
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


#: Subcommands the ``--server URL`` thin-client mode can run remotely.
SERVABLE = ("sweep", "perf", "robustness")


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
            write_catalog(request.scenarios(), args.catalog)
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
        runner.run_all(scale, jobs=args.jobs)
        return 0
    print(_registry(scale)[args.experiment]())
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
        for name in sorted(_registry(DEFAULT_SCALE)) + ["perf", "robustness", "sweep"]:
            print(name)
        return 0
    if args.experiment == "report":
        return _run_report(args, parser)
    runner.apply_execution_arguments(args)
    with tracer.span(f"cli.{args.experiment}", category="cli"):
        code = _dispatch(args, parser)
    if args.verbose:
        runner.print_telemetry()
    runner.finalize_observability(
        args, list(argv) if argv is not None else sys.argv[1:], code, started
    )
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
