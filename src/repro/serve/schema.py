"""The evaluation service's request schema and normalization.

A serve request is JSON::

    {"kind": "sweep" | "perf" | "robustness" | "simulate",
     "quick": false,
     "params": {...}}

:func:`build_request` validates the payload and normalizes it into a
:class:`ServeRequest`. It is the one normalizer of sweep/perf/robustness
parameters: the local CLI builds the same payload from its flags
(:func:`payload_from_args`) and prints :meth:`ServeRequest.render`, so a
``--server`` run renders byte-identical text. Normalization also gives
every request a canonical identity: :attr:`ServeRequest.key` hashes the
normalized parameters together with the sorted cache keys of every
simulation the request needs (which already fold in the model
fingerprint), so two requests coalesce exactly when they would hit the
same cache entries and render the same report.

``params`` by kind (all optional unless noted):

* ``sweep`` — ``p_grid``/``alpha_grid`` (grid spec string or number
  list), ``policies``, ``benchmarks`` (comma string or list).
* ``perf`` — ``p_grid``, ``policies``, ``alpha``, ``wakeup_latencies``,
  ``benchmarks``.
* ``robustness`` — ``scenarios``, ``scenario_seed``, ``families``,
  ``policies``, ``p``, ``alpha``, ``instructions``.
* ``simulate`` — ``benchmark`` (required), ``instructions`` (required),
  ``warmup``, ``seed``, ``fus``.

Any other top-level field or ``params`` name is rejected, so a typo can
never fall back to a default and share another request's key. So is
any value the request's experiment or jobs would refuse (an unknown
policy, benchmark or family, an out-of-range ``p`` or ``alpha``, a
window too short): every check runs before a simulation is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Tuple

from repro.cpu.config import MachineConfig
from repro.cpu.workloads import benchmark_names, get_benchmark
from repro.exec.hashing import canonical_key
from repro.exec.jobs import SimulationJob
from repro.experiments import perf_impact, robustness, sweep
from repro.experiments.common import (
    DEFAULT_SCALE,
    MIN_WINDOW_INSTRUCTIONS,
    QUICK_SCALE,
    ExperimentScale,
)

#: Schema tag stamped into every canonical request key and health reply.
SERVE_SCHEMA = "repro.serve/1"

KINDS = ("sweep", "perf", "robustness", "simulate")


class RequestError(ValueError):
    """A serve payload that cannot be normalized into a request."""


def _names(value: Any, what: str) -> Tuple[str, ...]:
    """A comma string or list of strings -> a tuple of names."""
    if value is None:
        return ()
    if isinstance(value, str):
        return tuple(token.strip() for token in value.split(",") if token.strip())
    if isinstance(value, (list, tuple)):
        if not all(isinstance(item, str) for item in value):
            raise RequestError(f"{what} must be strings, got {value!r}")
        return tuple(value)
    raise RequestError(f"{what} must be a comma string or list, got {value!r}")


def _grid(value: Any, what: str) -> Tuple[float, ...]:
    """A grid spec string ('lo:hi:n' / comma list) or number list."""
    if isinstance(value, str):
        try:
            return sweep.parse_grid(value)
        except ValueError as error:
            raise RequestError(f"{what}: {error}") from None
    if isinstance(value, (list, tuple)) and value:
        try:
            return tuple(float(item) for item in value)
        except (TypeError, ValueError):
            raise RequestError(f"{what} must be numbers, got {value!r}") from None
    raise RequestError(f"{what} must be a grid spec or number list, got {value!r}")


def _number(value: Any, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestError(f"{what} must be a number, got {value!r}")
    return float(value)


def _integer(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{what} must be an integer, got {value!r}")
    return value


@dataclass(frozen=True)
class ServeRequest:
    """One normalized evaluation request.

    ``params`` is the fully-defaulted, JSON-ready parameter set;
    ``key`` is the canonical coalescing identity. :meth:`jobs` and
    :meth:`render` are the two halves of execution: the simulations the
    request needs (for warm probing and batch folding), and the text
    the CLI prints for it, locally or through ``--server``.
    """

    kind: str
    quick: bool
    params: Mapping[str, Any] = field(hash=False)
    key: str
    #: The scenarios a robustness request evaluates (what ``--catalog``
    #: writes), sampled once by :func:`build_request`; empty otherwise.
    scenarios: Tuple[Any, ...] = field(default=(), hash=False, compare=False, repr=False)

    @property
    def scale(self) -> ExperimentScale:
        return QUICK_SCALE if self.quick else DEFAULT_SCALE

    def jobs(self) -> List[SimulationJob]:
        return _JOB_BUILDERS[self.kind](self)

    def render(self) -> str:
        return _RENDERERS[self.kind](self)


# --- sweep ---------------------------------------------------------------


def _sweep_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    normalized = {
        "p_values": list(
            _grid(params.get("p_grid") or sweep.DEFAULT_P_SPEC, "p_grid")
        ),
        "alphas": list(
            _grid(params.get("alpha_grid") or sweep.DEFAULT_ALPHA_SPEC, "alpha_grid")
        ),
        "policies": list(
            _names(params.get("policies"), "policies") or sweep.DEFAULT_POLICIES
        ),
        "benchmarks": list(_names(params.get("benchmarks"), "benchmarks")),
    }
    _sweep_grid(normalized)  # rejects bad policies, alphas and p values
    return normalized


def _sweep_grid(params: Mapping[str, Any]) -> sweep.SweepGrid:
    return sweep.SweepGrid(
        p_values=tuple(params["p_values"]),
        alphas=tuple(params["alphas"]),
        policies=tuple(params["policies"]),
    )


def _sweep_jobs(request: ServeRequest):
    benchmarks = request.params["benchmarks"] or None
    return sweep.sweep_jobs(scale=request.scale, benchmarks=benchmarks)


def _sweep_render(request: ServeRequest) -> str:
    return sweep.render(
        sweep.run(
            scale=request.scale,
            grid=_sweep_grid(request.params),
            benchmarks=tuple(request.params["benchmarks"]),
        )
    )


# --- perf ----------------------------------------------------------------


def _wakeup_latencies(value: Any) -> List[int]:
    if value is None:
        return list(perf_impact.DEFAULT_WAKEUP_LATENCIES)
    if isinstance(value, str):
        try:
            return [int(token) for token in _names(value, "wakeup_latencies")]
        except ValueError:
            raise RequestError(
                f"wakeup_latencies must be integers, got {value!r}"
            ) from None
    if isinstance(value, (list, tuple)):
        return [_integer(latency, "wakeup_latencies") for latency in value]
    raise RequestError(
        f"wakeup_latencies must be a comma string or list, got {value!r}"
    )


def _perf_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    p_grid = params.get("p_grid")
    return {
        "p_values": list(
            _grid(p_grid, "p_grid") if p_grid else perf_impact.DEFAULT_P_VALUES
        ),
        "policies": list(
            _names(params.get("policies"), "policies")
            or perf_impact.DEFAULT_PERF_POLICIES
        ),
        "alpha": _number(
            params.get("alpha", perf_impact.DEFAULT_ALPHA), "alpha"
        ),
        "wakeup_latencies": _wakeup_latencies(params.get("wakeup_latencies")),
        "benchmarks": list(_names(params.get("benchmarks"), "benchmarks")),
    }


def _perf_args(params: Mapping[str, Any]) -> Dict[str, Any]:
    """Keyword arguments shared by ``perf_jobs`` and ``perf_impact.run``."""
    return {
        "policies": tuple(params["policies"]),
        "p_values": tuple(params["p_values"]),
        "alpha": params["alpha"],
        "wakeup_latencies": tuple(params["wakeup_latencies"]),
        "benchmarks": tuple(params["benchmarks"]) or None,
    }


def _perf_jobs(request: ServeRequest):
    return perf_impact.perf_jobs(scale=request.scale, **_perf_args(request.params))


def _perf_render(request: ServeRequest) -> str:
    return perf_impact.render(
        perf_impact.run(scale=request.scale, **_perf_args(request.params))
    )


# --- robustness ----------------------------------------------------------


def _robustness_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    instructions = params.get("instructions")
    normalized = {
        "scenarios": _integer(
            params.get("scenarios", robustness.DEFAULT_SCENARIO_COUNT), "scenarios"
        ),
        "scenario_seed": _integer(
            params.get("scenario_seed", robustness.DEFAULT_SCENARIO_SEED),
            "scenario_seed",
        ),
        "families": list(_names(params.get("families"), "families")),
        "policies": list(
            _names(params.get("policies"), "policies")
            or robustness.DEFAULT_ROBUSTNESS_POLICIES
        ),
        "p": _number(params.get("p", robustness.DEFAULT_P), "p"),
        "alpha": _number(
            params.get("alpha", robustness.DEFAULT_ROBUSTNESS_ALPHA), "alpha"
        ),
        "instructions": (
            None if instructions is None else _integer(instructions, "instructions")
        ),
    }
    if normalized["scenarios"] < 1:
        raise RequestError(f"scenarios must be >= 1, got {normalized['scenarios']}")
    if instructions is not None and instructions < MIN_WINDOW_INSTRUCTIONS:
        raise RequestError(
            f"instructions must be >= {MIN_WINDOW_INSTRUCTIONS}, got {instructions}"
        )
    robustness.check_suite(
        normalized["policies"], normalized["p"], normalized["alpha"]
    )
    return normalized


def _robustness_scenarios(params: Mapping[str, Any]) -> Tuple[Any, ...]:
    from repro.scenarios.space import sample_scenarios

    return tuple(
        sample_scenarios(
            params["scenarios"],
            seed=params["scenario_seed"],
            families=tuple(params["families"]) or None,
        )
    )


def _robustness_jobs(request: ServeRequest):
    return robustness.robustness_jobs(
        request.scenarios,
        scale=robustness.window_scale(request.scale, request.params["instructions"]),
    )


def _robustness_render(request: ServeRequest) -> str:
    params = request.params
    return robustness.render(
        robustness.run(
            scale=request.scale,
            count=params["scenarios"],
            seed=params["scenario_seed"],
            families=tuple(params["families"]) or None,
            policies=tuple(params["policies"]),
            p=params["p"],
            alpha=params["alpha"],
            instructions=params["instructions"],
            scenarios=request.scenarios,
        )
    )


# --- simulate ------------------------------------------------------------


def _simulate_params(params: Mapping[str, Any]) -> Dict[str, Any]:
    name = params.get("benchmark")
    if not isinstance(name, str) or name not in benchmark_names():
        raise RequestError(
            f"simulate needs 'benchmark', one of {', '.join(benchmark_names())}; "
            f"got {name!r}"
        )
    instructions = _integer(params.get("instructions"), "instructions")
    if instructions < 1:
        raise RequestError(f"instructions must be >= 1, got {instructions}")
    warmup = _integer(params.get("warmup", 0), "warmup")
    if warmup < 0:
        raise RequestError(f"warmup must be >= 0, got {warmup}")
    fus = params.get("fus")
    return {
        "benchmark": name,
        "instructions": instructions,
        "warmup": warmup,
        "seed": _integer(params.get("seed", 1), "seed"),
        "fus": None if fus is None else _integer(fus, "fus"),
    }


def _simulate_job(params: Mapping[str, Any]) -> SimulationJob:
    config = MachineConfig()
    if params["fus"] is not None:
        config = config.with_int_fus(params["fus"])
    return SimulationJob(
        profile=get_benchmark(params["benchmark"]),
        num_instructions=params["instructions"],
        warmup_instructions=params["warmup"],
        seed=params["seed"],
        config=config,
        record_sequences=False,
    )


def _simulate_jobs(request: ServeRequest):
    return [_simulate_job(request.params)]


def _simulate_render(request: ServeRequest) -> str:
    from repro.exec.engine import run_jobs

    params = request.params
    result = run_jobs([_simulate_job(params)])[0]
    stats = result.stats
    return (
        f"simulate {params['benchmark']}: "
        f"instructions={params['instructions']} "
        f"cycles={stats.total_cycles} ipc={stats.ipc:.6f}"
    )


_NORMALIZERS = {
    "sweep": _sweep_params,
    "perf": _perf_params,
    "robustness": _robustness_params,
    "simulate": _simulate_params,
}
#: The ``params`` names each kind reads; any other name is a 400, never
#: silently dropped into another request's key.
_PARAM_NAMES = {
    "sweep": "p_grid alpha_grid policies benchmarks",
    "perf": "p_grid policies alpha wakeup_latencies benchmarks",
    "robustness": "scenarios scenario_seed families policies p alpha instructions",
    "simulate": "benchmark instructions warmup seed fus",
}
_PAYLOAD_FIELDS = "kind quick params"
_JOB_BUILDERS = {
    "sweep": _sweep_jobs,
    "perf": _perf_jobs,
    "robustness": _robustness_jobs,
    "simulate": _simulate_jobs,
}
_RENDERERS = {
    "sweep": _sweep_render,
    "perf": _perf_render,
    "robustness": _robustness_render,
    "simulate": _simulate_render,
}


def _reject_unknown(given: Mapping, known: str, what: str) -> None:
    unknown = sorted(str(name) for name in given if name not in known.split())
    if unknown:
        raise RequestError(f"unknown {what} {', '.join(unknown)}; expected some of {known}")


def build_request(payload: Any) -> ServeRequest:
    """Validate and normalize a JSON payload into a :class:`ServeRequest`.

    Raises :class:`RequestError` for anything malformed — unknown kind,
    unknown fields or parameter names, wrong types, unparseable grids,
    and any value the request's experiment or jobs refuse (unknown
    policy, benchmark or family, out-of-range ``p``/``alpha``/FU count,
    too short a window) — so the service can answer 400, and the CLI
    exit 2, before any work is scheduled.
    """
    if not isinstance(payload, Mapping):
        raise RequestError(f"request body must be a JSON object, got {payload!r}")
    _reject_unknown(payload, _PAYLOAD_FIELDS, "request fields")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise RequestError(f"unknown kind {kind!r}; expected one of {KINDS}")
    quick = payload.get("quick", False)
    if not isinstance(quick, bool):
        raise RequestError(f"'quick' must be a boolean, got {quick!r}")
    raw = payload.get("params") or {}
    if not isinstance(raw, Mapping):
        raise RequestError(f"'params' must be a JSON object, got {raw!r}")
    _reject_unknown(raw, _PARAM_NAMES[kind], f"{kind} params")
    try:
        params = _NORMALIZERS[kind](raw)
        scenarios = _robustness_scenarios(params) if kind == "robustness" else ()
        request = ServeRequest(
            kind=kind, quick=quick, params=params, key="", scenarios=scenarios
        )
        jobs = sorted(job.cache_key() for job in request.jobs())
    except (KeyError, ValueError) as error:
        # Whatever the experiment or its jobs refuse is the client's
        # error, answered before anything is scheduled. ``args[0]``:
        # ``str(KeyError)`` would quote the message.
        raise RequestError(error.args[0]) from None
    # The key folds the normalized parameters AND every needed
    # simulation's cache key (already model-fingerprint-versioned): two
    # requests share a key exactly when they share cache entries and
    # render identically.
    key = canonical_key(
        {
            "schema": SERVE_SCHEMA,
            "kind": kind,
            "quick": quick,
            "params": dict(params),
            "jobs": jobs,
        },
        versioned=False,
    )
    return replace(request, key=key)


def payload_from_args(kind: str, args: Any) -> Dict[str, Any]:
    """Build a serve payload from parsed ``repro`` CLI arguments.

    Carries the *raw* CLI values (grid spec strings, comma lists, None
    for defaulted flags), so :func:`build_request` decides every
    default. A local run renders this payload's request in-process and
    ``--server`` ships it, which is what keeps remote output
    byte-identical to a local run of the same argv.
    """
    if kind not in ("sweep", "perf", "robustness"):
        raise RequestError(f"--server does not support the {kind!r} subcommand")
    # Each param is the same-named CLI flag's attribute.
    params = {name: getattr(args, name) for name in _PARAM_NAMES[kind].split()}
    return {
        "kind": kind,
        "quick": bool(getattr(args, "quick", False)),
        # None and "" both mean "defaulted" to the normalizer; drop them
        # so equivalent invocations produce identical payloads.
        "params": {
            name: value
            for name, value in params.items()
            if value is not None and value != ""
        },
    }
