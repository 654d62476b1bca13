"""Command-line interface for the placement tool and the GreenNebula emulation.

Four subcommands mirror the library's main workflows; all of them build a
:class:`~repro.scenarios.spec.ScenarioSpec` from their arguments and run it
through the :class:`~repro.scenarios.runner.ExperimentRunner`, so a CLI
invocation and a registered scenario are the same thing underneath.

``plan``
    Site and provision a green datacenter network (Sections II-IV)::

        python -m repro.cli plan --capacity-mw 50 --green 0.5 --storage net_metering

``single-site``
    Price a single datacenter at a named catalogue location (Fig. 6 / Table II)::

        python -m repro.cli single-site --location "Nairobi, Kenya" --green 0.5

``emulate``
    Run the GreenNebula follow-the-renewables emulation for a day (Section V)::

        python -m repro.cli emulate --hours 24 --vms 9

``sweep``
    Reproduce a registered paper scenario (``--list`` shows them), or sweep a
    spec file, with results cached on disk by content hash::

        python -m repro.cli sweep --scenario fig06
        python -m repro.cli sweep --spec my_scenario.json --set min_green_fraction=1.0
        python -m repro.cli sweep --scenario sec3d --executor process --workers 4

``operate``
    Replay an operating run of a provisioned plan — traffic synthesis,
    rolling re-forecasts, incremental sliding-window dispatch, oracle-vs-
    forecast regret (Section V at fleet scale)::

        python -m repro.cli operate --scenario operate-fig06 --steps 168
        python -m repro.cli operate --scenario operate-forecast --json

``serve``
    Run the planning-as-a-service daemon: ScenarioSpec JSON in, point
    records out, over HTTP (``POST /plan``, ``GET /metrics``,
    ``GET /healthz``) or newline-delimited JSON on stdin/stdout.  Identical
    in-flight requests dedup onto one solve; a persistent worker pool keeps
    compiled-skeleton/problem/catalogue caches warm across requests::

        python -m repro.cli serve --port 8734 --executor process --workers 4
        python -m repro.cli serve --stdin --executor serial < requests.ndjson

``cache``
    Inspect or clear the on-disk artifact cache (``--server`` asks a running
    serve daemon for its worker-cache hit rates instead)::

        python -m repro.cli cache info
        python -m repro.cli cache info --server http://127.0.0.1:8734
        python -m repro.cli cache clear

All subcommands accept ``--locations`` (catalogue size) and ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis import case_study_breakdown, format_table
from repro.core import EnergySources, GreenEnforcement, StorageMode
from repro.parallel import EXECUTOR_KINDS
from repro.scenarios import (
    ExperimentRunner,
    ParameterSweep,
    ScenarioSpec,
    get_scenario,
    scenario_names,
)
from repro.scenarios.runner import clear_artifact_cache

_SOURCES = {
    "wind": EnergySources.WIND_ONLY.value,
    "solar": EnergySources.SOLAR_ONLY.value,
    "both": EnergySources.SOLAR_AND_WIND.value,
    "none": EnergySources.NONE.value,
}
_STORAGE = {
    "net_metering": StorageMode.NET_METERING.value,
    "batteries": StorageMode.BATTERIES.value,
    "none": StorageMode.NONE.value,
}

#: Default on-disk artifact cache of the ``sweep`` subcommand.
DEFAULT_CACHE_DIR = ".repro-cache"


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Green datacenter siting/provisioning and GreenNebula emulation",
    )
    parser.add_argument("--locations", type=int, default=90, help="catalogue size")
    parser.add_argument("--seed", type=int, default=2014, help="catalogue / search seed")
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan = subparsers.add_parser("plan", help="site and provision a datacenter network")
    plan.add_argument("--capacity-mw", type=float, default=50.0, help="compute power to serve")
    plan.add_argument("--green", type=float, default=0.5, help="minimum green fraction [0-1]")
    plan.add_argument("--sources", choices=sorted(_SOURCES), default="both")
    plan.add_argument("--storage", choices=sorted(_STORAGE), default="net_metering")
    plan.add_argument("--migration-factor", type=float, default=1.0)
    plan.add_argument("--net-meter-credit", type=float, default=1.0)
    plan.add_argument("--strict-green", action="store_true",
                      help="enforce the green fraction in every epoch instead of annually")
    plan.add_argument("--iterations", type=int, default=25, help="SA iterations per chain")
    plan.add_argument("--keep", type=int, default=10, help="locations kept after filtering")
    plan.add_argument("--chains", type=int, default=2, help="SA chains")
    plan.add_argument("--survive-n1", action="store_true",
                      help="additionally compute an N-1 survivable sizing: unserved energy "
                           "within the epsilon budget under every single-site outage")
    plan.add_argument("--survivability-epsilon", type=float, default=0.05,
                      help="N-1 unserved-energy budget as a fraction of annual demand "
                           "(default: 0.05)")

    single = subparsers.add_parser("single-site", help="price one datacenter at a location")
    single.add_argument("--location", required=True, help="catalogue location name")
    single.add_argument("--capacity-mw", type=float, default=25.0)
    single.add_argument("--green", type=float, default=0.5)
    single.add_argument("--sources", choices=sorted(_SOURCES), default="both")
    single.add_argument("--storage", choices=sorted(_STORAGE), default="net_metering")

    emulate = subparsers.add_parser("emulate", help="run the GreenNebula emulation")
    emulate.add_argument("--hours", type=int, default=24)
    emulate.add_argument("--vms", type=int, default=9)
    emulate.add_argument(
        "--sites",
        nargs="+",
        default=["Mexico City, Mexico", "Andersen, Guam", "Harare, Zimbabwe"],
        help="catalogue locations hosting the emulated datacenters",
    )
    emulate.add_argument("--solar-factor", type=float, default=7.0,
                         help="installed solar as a multiple of the fleet IT power")
    emulate.add_argument("--wind-factor", type=float, default=0.4,
                         help="installed wind as a multiple of the fleet IT power")

    sweep = subparsers.add_parser(
        "sweep", help="run a registered paper scenario or a scenario-spec sweep"
    )
    sweep.add_argument("--scenario", help="registered scenario name (see --list)")
    sweep.add_argument("--spec", help="path to a ScenarioSpec JSON file")
    sweep.add_argument("--list", action="store_true", help="list registered scenarios and exit")
    sweep.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                       help="override a spec field (dotted paths reach search/emulation knobs)")
    sweep.add_argument("--axis", action="append", default=[], metavar="FIELD=V1,V2,...",
                       help="sweep a field over comma-separated values (cartesian with other axes)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="sweep points evaluated concurrently "
                            "(default: CPUs available to this process; results are identical)")
    sweep.add_argument("--executor", choices=EXECUTOR_KINDS, default="thread",
                       help="how sweep points execute: thread (default), process "
                            "(true multi-core scaling) or serial; results are identical")
    sweep.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"artifact-cache directory (default: {DEFAULT_CACHE_DIR})")
    sweep.add_argument("--no-cache", action="store_true", help="disable the artifact cache")
    sweep.add_argument("--json", action="store_true", help="print the ResultSet as JSON")

    operate = subparsers.add_parser(
        "operate", help="replay an operating run of a provisioned plan (rolling horizon)"
    )
    operate.add_argument("--scenario", default="operate-fig06",
                         help="registered operate-* scenario name (default: operate-fig06)")
    operate.add_argument("--spec", help="path to an operate-workflow ScenarioSpec JSON file")
    operate.add_argument("--steps", type=int, default=None,
                         help="operating steps to replay (overrides the scenario)")
    operate.add_argument("--horizon", type=int, default=None,
                         help="dispatch look-ahead window in hours")
    operate.add_argument("--forecast-error", type=float, default=None,
                         help="noisy-oracle forecast error level")
    operate.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                         help="override a spec field (dotted paths reach operate knobs)")
    operate.add_argument("--workers", type=int, default=None)
    operate.add_argument("--executor", choices=EXECUTOR_KINDS, default="thread")
    operate.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help=f"artifact-cache directory (default: {DEFAULT_CACHE_DIR})")
    operate.add_argument("--no-cache", action="store_true", help="disable the artifact cache")
    operate.add_argument("--json", action="store_true", help="print the ResultSet as JSON")

    stress = subparsers.add_parser(
        "stress",
        help="score a scenario against weather/demand ensembles and injected faults",
    )
    stress.add_argument("--scenario", default="robust-fig06",
                        help="registered scenario with an ensemble and/or faults block "
                             "(default: robust-fig06)")
    stress.add_argument("--spec", help="path to a ScenarioSpec JSON file")
    stress.add_argument("--draws", type=int, default=None,
                        help="ensemble size (overrides the scenario's ensemble.draws)")
    stress.add_argument("--alpha", type=float, default=None,
                        help="CVaR tail level (overrides ensemble.alpha)")
    stress.add_argument("--mode", choices=("saa", "stochastic"), default=None,
                        help="ensemble mode (overrides ensemble.mode)")
    stress.add_argument("--set", action="append", default=[], metavar="FIELD=VALUE",
                        help="override a spec field (dotted paths reach ensemble/faults knobs)")
    stress.add_argument("--fail-on", action="append", default=[], metavar="METRIC=THRESHOLD",
                        help="exit non-zero when a flattened record metric exceeds the "
                             "threshold (e.g. stress_unserved_kwh=1000 or stress_degraded=0); "
                             "repeatable — CI gates build on this")
    stress.add_argument("--workers", type=int, default=None)
    stress.add_argument("--executor", choices=EXECUTOR_KINDS, default="thread")
    stress.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help=f"artifact-cache directory (default: {DEFAULT_CACHE_DIR})")
    stress.add_argument("--no-cache", action="store_true", help="disable the artifact cache")
    stress.add_argument("--json", action="store_true", help="print the ResultSet as JSON")

    serve = subparsers.add_parser(
        "serve", help="run the planning daemon (HTTP or newline-delimited-JSON stdin)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="HTTP bind address")
    serve.add_argument("--port", type=int, default=8734,
                       help="HTTP port (0 picks a free one; default: 8734)")
    serve.add_argument("--stdin", action="store_true",
                       help="serve newline-delimited JSON on stdin/stdout instead of HTTP")
    serve.add_argument("--executor", choices=EXECUTOR_KINDS, default="process",
                       help="how requests solve: process (default; persistent warm worker "
                            "pool), thread or serial; records are identical")
    serve.add_argument("--workers", type=int, default=None,
                       help="pool size (default: CPUs available to this process)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="distinct in-flight solves admitted before requests are "
                            "answered 'overloaded' (deduped waiters are free; default: 64)")
    serve.add_argument("--timeout", type=float, default=300.0,
                       help="per-request wait in seconds before a typed 'timeout' "
                            "response (the solve continues; 0 disables; default: 300)")
    serve.add_argument("--drain-grace", type=float, default=30.0,
                       help="seconds SIGTERM waits for in-flight solves (default: 30)")
    serve.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"artifact-cache directory shared with sweeps "
                            f"(default: {DEFAULT_CACHE_DIR})")
    serve.add_argument("--no-cache", action="store_true", help="disable the artifact cache")

    cache = subparsers.add_parser("cache", help="inspect or clear the sweep artifact cache")
    cache.add_argument("action", choices=("info", "clear"),
                       help="info: show the cache location and size; clear: delete stored points")
    cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"artifact-cache directory (default: {DEFAULT_CACHE_DIR})")
    cache.add_argument("--server", metavar="URL",
                       help="with info: also query a running serve daemon's /metrics for "
                            "worker-cache hit rates (e.g. http://127.0.0.1:8734)")
    return parser


def _print(lines: Sequence[str], stream) -> None:
    for line in lines:
        print(line, file=stream)


def _print_plan_solution(solution, stream) -> int:
    if not solution.feasible or solution.plan is None:
        _print([f"no feasible plan found: {solution.message}"], stream)
        return 1
    plan = solution.plan
    _print(
        [
            plan.describe(),
            "",
            f"achieved green fraction: {100 * plan.green_fraction:.1f} %",
            f"network availability   : {100 * plan.availability:.4f} %",
            f"LP evaluations         : {solution.evaluations}",
            "",
            format_table(case_study_breakdown(plan)),
        ],
        stream,
    )
    return 0


def run_plan(args: argparse.Namespace, stream) -> int:
    spec = ScenarioSpec(
        name="cli-plan",
        num_locations=args.locations,
        catalog_seed=args.seed,
        total_capacity_kw=args.capacity_mw * 1000.0,
        min_green_fraction=args.green,
        sources=_SOURCES[args.sources],
        storage=_STORAGE[args.storage],
        migration_factor=args.migration_factor,
        net_meter_credit=args.net_meter_credit,
        green_enforcement=(
            GreenEnforcement.PER_EPOCH.value if args.strict_green
            else GreenEnforcement.ANNUAL.value
        ),
        search={
            "keep_locations": args.keep,
            "max_iterations": args.iterations,
            "num_chains": args.chains,
            "seed": args.seed,
        },
        contingency=(
            {"survivability_epsilon": args.survivability_epsilon}
            if args.survive_n1
            else {}
        ),
    )
    point = ExperimentRunner().run_point(spec)
    code = _print_plan_solution(point.solution, stream)
    report = point.record.get("contingency")
    if code == 0 and report:
        worst = report["worst_case"]
        _print(
            [
                "",
                f"N-1 survivability (epsilon {report['epsilon']:.3f}, "
                f"budget {report['budget_unserved_kwh']:,.0f} kWh/yr):",
                f"  survivable sizing premium: {report['cost_premium_pct']:+.2f} %",
                f"  deterministic worst case : {worst['det']['unserved_kwh']:,.0f} kWh unserved "
                f"(site {worst['det']['site']} dark, "
                f"{report['det_violations']} contingency violation(s))",
                f"  N-1 worst case           : {worst['n1']['unserved_kwh']:,.0f} kWh unserved "
                f"({report['n1_violations']} contingency violation(s))",
                f"  most critical site       : {report['criticality'][0]['site']}",
            ],
            stream,
        )
    return code


def run_single_site(args: argparse.Namespace, stream) -> int:
    spec = ScenarioSpec(
        name="cli-single-site",
        workflow="single_site",
        num_locations=args.locations,
        catalog_seed=args.seed,
        candidate_names=(args.location,),
        total_capacity_kw=args.capacity_mw * 1000.0,
        min_green_fraction=args.green,
        sources=_SOURCES[args.sources],
        storage=_STORAGE[args.storage],
    )
    runner = ExperimentRunner()
    try:
        point = runner.run_point(spec)
    except KeyError:
        _print([f"unknown location {args.location!r}; known anchors include:"], stream)
        catalog = runner.tool_for(spec.with_updates(candidate_names=None)).catalog
        anchors = [loc.name for loc in catalog.locations if loc.is_anchor]
        _print([f"  {name}" for name in anchors], stream)
        return 1
    costs = point.solution
    result = costs[0]
    if not result.feasible:
        _print([f"a {args.capacity_mw:.0f} MW datacenter is not feasible at {args.location}"], stream)
        return 1
    _print([format_table([result.table_row()])], stream)
    return 0


def run_emulate(args: argparse.Namespace, stream) -> int:
    spec = ScenarioSpec(
        name="cli-emulate",
        workflow="emulate",
        num_locations=max(args.locations, 30),
        catalog_seed=args.seed,
        hours_per_epoch=1,
        emulation={
            "sites": tuple(args.sites),
            "num_vms": args.vms,
            "duration_hours": args.hours,
            "seed": args.seed,
            "solar_factor": args.solar_factor,
            "wind_factor": args.wind_factor,
        },
    )
    try:
        point = ExperimentRunner().run_point(spec)
    except KeyError as error:
        _print([f"unknown emulation site: {error}"], stream)
        return 1
    record = point.record
    # A wall-clock reading, so it is not in the record: the live cloud has it.
    summary = point.solution.summary()
    _print(
        [
            f"emulated {args.hours} hours over {len(record['sites'])} datacenters "
            f"with {args.vms} VMs",
            f"migrations          : {record['total_migrations']}",
            f"migrated state      : {record['migrated_state_mb']:.0f} MB",
            f"green fraction      : {100 * record['green_fraction']:.1f} %",
            f"mean scheduling time: {1000 * summary.mean_schedule_time_s:.0f} ms",
        ],
        stream,
    )
    for name in record["sites"]:
        series = " ".join(f"{value:5.2f}" for value in record["load_series"][name])
        _print([f"  {name:<28} {series}"], stream)
    return 0


def _parse_value(text: str) -> Any:
    """Parse an override value: JSON when it looks like it, else a string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_assignments(pairs: Sequence[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected FIELD=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = _parse_value(value.strip())
    return overrides


def _parse_axes(pairs: Sequence[str]) -> dict:
    axes = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"expected FIELD=V1,V2,..., got {pair!r}")
        key, _, values = pair.partition("=")
        axes[key.strip()] = [_parse_value(value.strip()) for value in values.split(",")]
    return axes


def _load_sweep(
    args: argparse.Namespace, flags: Dict[str, Any], stream
) -> Union[ParameterSweep, int]:
    """The ``--spec`` or ``--scenario`` sweep with its overrides applied, or an exit code.

    ``flags`` maps spec fields to a subcommand's own override flags (``None``
    when unset); ``--set`` assignments apply after them and ``--axis`` values
    (``sweep`` only) widen the axes.  Every point is resolved here, so a bad
    field or value fails cleanly: 1 for a sweep that cannot be loaded, 2 for
    an invalid override.
    """
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                base = ScenarioSpec.from_json(handle.read())
        except (OSError, ValueError, KeyError) as error:
            _print([f"cannot load spec {args.spec!r}: {error}"], stream)
            return 1
        sweep = ParameterSweep(base=base)
    else:
        try:
            sweep = get_scenario(args.scenario).build()
        except KeyError as error:
            _print([str(error.args[0])], stream)
            return 1
    try:
        overrides = {name: value for name, value in flags.items() if value is not None}
        overrides.update(_parse_assignments(args.set))
        axes = _parse_axes(getattr(args, "axis", []))
        if overrides or axes:
            sweep = ParameterSweep(
                base=sweep.base.with_updates(**overrides),
                axes={**sweep.axes, **axes},
                mode=sweep.mode,
                name=sweep.name,
            )
        sweep.points()  # resolve every override now, so bad fields/values fail cleanly
    except (ValueError, KeyError) as error:
        _print([f"invalid scenario override: {error}"], stream)
        return 2
    return sweep


def _runner(args: argparse.Namespace) -> ExperimentRunner:
    return ExperimentRunner(
        cache_dir=None if args.no_cache else args.cache_dir,
        workers=args.workers,
        executor=args.executor,
    )


def run_sweep(args: argparse.Namespace, stream) -> int:
    if args.list:
        rows = []
        for name in scenario_names():
            definition = get_scenario(name)
            sweep = definition.build()
            rows.append(
                {
                    "scenario": name,
                    "workflow": sweep.base.workflow,
                    "points": len(sweep),
                    "description": definition.description,
                }
            )
        _print([format_table(rows)], stream)
        return 0
    if bool(args.scenario) == bool(args.spec):
        _print(["exactly one of --scenario or --spec is required (or --list)"], stream)
        return 2
    sweep = _load_sweep(args, {}, stream)
    if isinstance(sweep, int):
        return sweep
    results = _runner(args).run(sweep)

    if args.json:
        _print([results.to_json()], stream)
        return 0
    title = sweep.name or "sweep"
    _print(
        [
            f"scenario {title}: {len(results)} points "
            f"({results.computed} computed, {results.cache_hits} from cache)",
            "",
            format_table(results.rows()),
        ],
        stream,
    )
    return 0


def run_operate(args: argparse.Namespace, stream) -> int:
    flags = {
        "operate.steps": args.steps,
        "operate.horizon_hours": args.horizon,
        "operate.forecast_error": args.forecast_error,
    }
    sweep = _load_sweep(args, flags, stream)
    if isinstance(sweep, int):
        return sweep
    # Checked after --set overrides: `--set workflow=plan` must be rejected
    # too, not just a non-operate --scenario.
    if sweep.base.workflow != "operate":
        _print([f"scenario {sweep.name!r} is not an operate-workflow scenario"], stream)
        return 2
    results = _runner(args).run(sweep)
    if args.json:
        _print([results.to_json()], stream)
        return 0

    exit_code = 0
    for point in results:
        record = point.record
        if not record.get("feasible", False):
            _print([f"no feasible plan to operate: {record.get('message', '')}"], stream)
            exit_code = 1
            continue
        label = ", ".join(f"{k}={v}" for k, v in point.overrides.items()) or sweep.name
        _print(
            [
                f"[{label}] operated {record['num_sites']} sites over "
                f"{record['steps']} x {record['step_hours']:g} h steps "
                f"(horizon {record['horizon_steps']} steps, "
                f"{record['load_forecast']}/{record['energy_forecast']} forecasts)",
                f"  forecast-driven cost : ${record['forecast_cost_usd']:,.2f}",
                f"  oracle cost          : ${record['oracle_cost_usd']:,.2f}",
                f"  regret               : ${record['regret_cost_usd']:,.2f} "
                f"({record['regret_cost_pct']:+.2f} %)",
                f"  green fraction       : {100 * record['forecast_green_fraction']:.1f} % "
                f"(oracle {100 * record['oracle_green_fraction']:.1f} %)",
                f"  SLA violation steps  : {record['sla_violation_steps']}",
                f"  dispatch LPs         : {record['lp_solves']} solves, "
                f"{record['cold_loads']} cold load(s), {record['slides']} window slides, "
                f"{100 * record['warm_start_rate']:.0f} % warm-started",
            ],
            stream,
        )
    _print(
        [
            "",
            f"scenario {sweep.name}: {len(results)} point(s) "
            f"({results.computed} computed, {results.cache_hits} from cache)",
        ],
        stream,
    )
    return exit_code


def run_stress(args: argparse.Namespace, stream) -> int:
    flags = {"ensemble.draws": args.draws, "ensemble.alpha": args.alpha, "ensemble.mode": args.mode}
    sweep = _load_sweep(args, flags, stream)
    if isinstance(sweep, int):
        return sweep
    if not sweep.base.ensemble and not sweep.base.faults:
        _print(
            [
                f"scenario {sweep.name!r} has neither an ensemble nor a faults block; "
                "nothing to stress (set ensemble.draws or faults.* via --set)"
            ],
            stream,
        )
        return 2
    results = _runner(args).run(sweep)
    if args.json:
        _print([results.to_json()], stream)
        # Gates still apply (the output stays pure JSON; only the exit code
        # reports violations).
        try:
            gates = _parse_assignments(args.fail_on)
        except ValueError:
            return 2
        return 3 if _gate_violations(gates, results, None) else 0

    exit_code = 0
    for point in results:
        record = point.record
        if not record.get("feasible", True):
            _print([f"no feasible plan to stress: {record.get('message', '')}"], stream)
            exit_code = 1
            continue
        label = ", ".join(f"{k}={v}" for k, v in point.overrides.items()) or sweep.name
        lines = [f"[{label}] workflow {record.get('workflow', '?')}"]
        robustness = record.get("robustness")
        if robustness:
            lines += [
                f"  ensemble             : {robustness['draws']} draws, "
                f"mode {robustness['mode']}, seed {robustness['seed']}",
                f"  expected cost        : ${robustness['expected_cost']:,.2f} / month",
                f"  CVaR@{robustness['alpha']:.2f}            : "
                f"${robustness['cvar_cost']:,.2f} / month",
                f"  plan regret          : ${robustness['regret_mean']:,.2f} mean, "
                f"${robustness['regret_max']:,.2f} worst draw "
                f"({robustness['regret_mean_pct']:+.2f} % mean)",
                f"  draws with unserved  : {robustness['draws_with_unserved']} "
                f"of {robustness['draws']}",
            ]
            if "stochastic_expected_cost" in robustness:
                lines.append(
                    f"  stochastic sizing    : "
                    f"${robustness['stochastic_expected_cost']:,.2f} expected "
                    f"({robustness['stochastic_saving_pct']:+.2f} % vs deterministic plan)"
                )
        stress_block = record.get("stress")
        if stress_block:
            fragility_score = stress_block["fragility"]
            lines += [
                f"  faulted replay cost  : ${fragility_score['cost_usd']:,.2f} "
                f"({fragility_score['cost_blowup_pct']:+.2f} % vs nominal)",
                f"  unserved demand      : {fragility_score['unserved_kwh']:,.1f} kWh "
                f"(+{fragility_score['unserved_delta_kwh']:,.1f} vs nominal)",
                f"  SLA violation steps  : {fragility_score['sla_violation_steps']} "
                f"(+{fragility_score['sla_delta_steps']} vs nominal)",
                f"  solver resilience    : {fragility_score['slide_retries']} retries, "
                f"{fragility_score['fallback_rebuilds']} cold-rebuild fallbacks, "
                f"{fragility_score['forecast_blackout_steps']} blackout steps",
            ]
            if fragility_score.get("greedy_fallback_steps", 0):
                lines.append(
                    f"  DEGRADED             : {fragility_score['greedy_fallback_steps']} "
                    "greedy fallback step(s) committed without an LP optimum"
                )
        contingency = record.get("contingency")
        if contingency:
            worst = contingency["worst_case"]
            lines += [
                f"  N-1 sizing premium   : {contingency['cost_premium_pct']:+.2f} % "
                f"(epsilon {contingency['epsilon']:.3f})",
                f"  worst-case unserved  : deterministic {worst['det']['unserved_kwh']:,.1f} kWh "
                f"({contingency['det_violations']} violations) vs "
                f"N-1 {worst['n1']['unserved_kwh']:,.1f} kWh "
                f"({contingency['n1_violations']} violations)",
            ]
        survivability = record.get("survivability")
        if survivability:
            det_plan = survivability["plans"]["deterministic"]
            n1_plan = survivability["plans"]["n1"]
            lines += [
                f"  survivability replay : N-1 within epsilon: {n1_plan['within_epsilon']}, "
                f"deterministic: {det_plan['within_epsilon']}",
                f"  outage unserved delta: deterministic worst "
                f"{det_plan['worst_unserved_delta_kwh']:,.1f} kWh "
                f"(site {det_plan['worst_site']}), "
                f"N-1 worst {n1_plan['worst_unserved_delta_kwh']:,.1f} kWh",
            ]
        if len(lines) == 1:
            lines.append("  (no robustness data on this record)")
        _print(lines, stream)
    _print(
        [
            "",
            f"scenario {sweep.name}: {len(results)} point(s) "
            f"({results.computed} computed, {results.cache_hits} from cache)",
        ],
        stream,
    )
    try:
        gates = _parse_assignments(args.fail_on)
    except ValueError as error:
        _print([f"invalid --fail-on gate: {error}"], stream)
        return 2
    gate_failures = _gate_violations(gates, results, stream)
    if gate_failures:
        _print([f"{gate_failures} fail-on gate violation(s)"], stream)
        return 3
    if gates:
        _print([f"all {len(gates)} fail-on gate(s) passed"], stream)
    return exit_code


def _gate_violations(gates: dict, results, stream) -> int:
    """Count ``--fail-on`` violations: a flattened record metric above its
    threshold (or missing entirely) fails the gate.  Booleans coerce the
    usual way, so ``stress_degraded=0`` fails exactly when a replay
    degraded."""
    failures = 0
    for metric, threshold in gates.items():
        try:
            limit = float(threshold)
        except (TypeError, ValueError):
            if stream is not None:
                _print(
                    [f"invalid --fail-on gate: {metric}={threshold!r} is not numeric"],
                    stream,
                )
            failures += 1
            continue
        for point in results:
            value = point.record.get(metric)
            if value is None:
                if stream is not None:
                    _print([f"FAIL {metric}: metric missing from the record"], stream)
                failures += 1
            elif float(value) > limit:
                if stream is not None:
                    _print([f"FAIL {metric}: {float(value):g} > {limit:g}"], stream)
                failures += 1
    return failures


def run_serve(args: argparse.Namespace, stream) -> int:
    import asyncio

    from repro.serve import PlanServer, ServeConfig, serve_http, serve_stdio

    try:
        config = ServeConfig(
            executor=args.executor,
            workers=args.workers,
            queue_limit=args.queue_limit,
            timeout_s=None if args.timeout == 0 else args.timeout,
            drain_grace_s=args.drain_grace,
            cache_dir=None if args.no_cache else args.cache_dir,
        )
    except ValueError as error:
        _print([str(error)], stream)
        return 2
    server = PlanServer(config)
    if args.stdin:
        return asyncio.run(
            serve_stdio(server, sys.stdin, stream, install_signals=True)
        )
    return asyncio.run(
        serve_http(server, args.host, args.port, stream=stream, install_signals=True)
    )


def _server_cache_lines(url: str) -> List[str]:
    """Fetch a serve daemon's /metrics and format its worker-cache hit rates."""
    import urllib.error
    import urllib.request

    if "://" not in url:
        url = f"http://{url}"
    try:
        with urllib.request.urlopen(f"{url.rstrip('/')}/metrics", timeout=10) as response:
            metrics = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as error:
        return [f"cannot reach serve daemon at {url}: {error}"]

    def rate(value: Any) -> str:
        return f"{100 * value:.1f} %" if isinstance(value, float) and value == value else "n/a"

    caches = metrics.get("worker_caches", {})
    latency = metrics.get("latency", {})
    return [
        "",
        f"serve daemon  : {url} (executor {metrics.get('executor')}, "
        f"{metrics.get('workers')} workers, up {metrics.get('uptime_s', 0):.0f} s)",
        f"requests      : {metrics.get('requests_total', 0)} total, "
        f"{metrics.get('responses_ok', 0)} ok, "
        f"{metrics.get('dedup_hits', 0)} dedup hits, "
        f"{metrics.get('artifact_cache_hits', 0)} artifact hits",
        f"latency       : p50 {latency.get('p50_s', float('nan')):.3f} s, "
        f"p99 {latency.get('p99_s', float('nan')):.3f} s "
        f"over {latency.get('count', 0)} responses",
        f"worker caches : {caches.get('workers_reporting', 0)} worker(s) reporting",
        f"  skeleton warm rate : {rate(caches.get('skeleton_warm_rate'))}",
        f"  problem warm rate  : {rate(caches.get('problem_warm_rate'))}",
        f"  catalog warm rate  : {rate(caches.get('catalog_warm_rate'))}",
        f"  artifact hit rate  : {rate(caches.get('artifact_hit_rate'))}",
    ]


def run_cache(args: argparse.Namespace, stream) -> int:
    from repro.scenarios.runner import list_artifacts

    cache_dir = args.cache_dir
    artifacts = list_artifacts(cache_dir)
    if args.action == "info":
        total_bytes = sum(os.path.getsize(path) for path in artifacts)
        lines = [
            f"artifact cache: {cache_dir}",
            f"stored points : {len(artifacts)}",
            f"total size    : {total_bytes / 1024:.1f} KiB",
        ]
        if args.server:
            lines += _server_cache_lines(args.server)
        _print(lines, stream)
        return 0
    removed = clear_artifact_cache(cache_dir)
    _print([f"removed {removed} cached points from {cache_dir}"], stream)
    return 0


def main(argv: Optional[List[str]] = None, stream=None) -> int:
    """CLI entry point; returns the process exit code."""
    stream = stream or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "plan":
        return run_plan(args, stream)
    if args.command == "single-site":
        return run_single_site(args, stream)
    if args.command == "emulate":
        return run_emulate(args, stream)
    if args.command == "sweep":
        return run_sweep(args, stream)
    if args.command == "operate":
        return run_operate(args, stream)
    if args.command == "stress":
        return run_stress(args, stream)
    if args.command == "serve":
        return run_serve(args, stream)
    if args.command == "cache":
        return run_cache(args, stream)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover - run as ``python -m repro.cli``
    sys.exit(main())
