"""Program side of the benchmark: one task against ``repro``, reported as JSON lines.

``run.py`` starts this file in a fresh interpreter with the program's ``src``
directory on ``PYTHONPATH`` and the task as one JSON argument::

    PYTHONPATH=src python3 perfbench/worker.py '{"task": "plan", "catalog_seed": 2014}'

The first line written is ``{"ready": true}``, once ``repro`` is imported, so
the parent can time interpreter start plus import.  Every later line is one
JSON object; the last one is the task's result.  The program's own output goes
to standard error so it cannot corrupt the protocol.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from typing import Any, Dict, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from hostspeed import Host  # noqa: E402
from tracing import LAYERS, Tracer, wrapper_cost_s  # noqa: E402

#: The paper's full candidate catalogue (Section III-D).
PAPER_LOCATIONS = 1373

#: The three cost-vs-green figures of the ``sweep_figs`` workload.
SWEEP_FIGURES = ("fig08", "fig09", "fig10")

#: Registered planning scenarios the ``serve_mixed`` requests are drawn from.
SERVE_SCENARIOS = (
    "smoke", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "table2",
)

#: Distinct registered points the daemon is asked for.
SERVE_DISTINCT = 24

_out = None


def emit(message: Dict[str, Any]) -> None:
    _out.write(json.dumps(message) + "\n")
    _out.flush()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(record: Dict[str, Any]) -> str:
    """Digest of a record's canonical JSON (what bit-identity is checked on)."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


def plan_summary(record: Dict[str, Any]) -> Dict[str, Any]:
    """Siting and cost of a plan record, as the reference stores them."""
    return {
        "siting": sorted([dc["name"], dc["size_class"]] for dc in record.get("datacenters", [])),
        "monthly_cost": record.get("monthly_cost"),
        "feasible": record.get("feasible"),
    }


# -- inputs -------------------------------------------------------------------


def plan_cold_spec(catalog_seed: int):
    from repro.scenarios import get_scenario

    base = get_scenario("sec3d").build().base
    return base.with_updates(num_locations=PAPER_LOCATIONS, catalog_seed=catalog_seed)


def figure_sweep(order_seed: int):
    """The Fig. 8-10 points as one sweep, in a seeded order.

    One sweep rather than three keeps the thread pool busy to the end: the
    per-figure tails, whose length depends on the order, would otherwise
    dominate the run-to-run spread.
    """
    import random

    from repro.scenarios import ParameterSweep, get_scenario

    points = [point for name in SWEEP_FIGURES for point in get_scenario(name).build().points()]
    random.Random(order_seed).shuffle(points)
    fields = ("name", "storage", "sources", "min_green_fraction")
    axes = {field: [getattr(point.spec, field) for point in points] for field in fields}
    return ParameterSweep(base=points[0].spec, axes=axes, mode="zip", name="sweep_figs")


def serve_specs():
    """A fixed set of distinct registered planning points, round-robin by scenario."""
    from repro.scenarios import get_scenario

    columns = [
        [point.spec for point in get_scenario(name).build().points()] for name in SERVE_SCENARIOS
    ]
    specs, seen = [], set()
    for row in range(max(len(column) for column in columns)):
        for column in columns:
            if row < len(column) and column[row].content_hash() not in seen:
                seen.add(column[row].content_hash())
                specs.append(column[row])
    return specs[:SERVE_DISTINCT]


# -- tracing ------------------------------------------------------------------


def _count(name: str):
    def hook(tracer: Tracer, args, kwargs, result, outermost) -> None:
        tracer.add(name)
    return hook


def _profiles_built(tracer, args, kwargs, result, outermost) -> None:
    if outermost:
        tracer.add("profiles.locations", len(result))


def _screened(tracer, args, kwargs, result, outermost) -> None:
    tracer.add("screen.candidates", len(result.names))


def _priced(tracer, args, kwargs, result, outermost) -> None:
    tracer.add("pricing.calls")
    tracer.add("pricing.sitings", len(args[1]))


def _solved(tracer, args, kwargs, result, outermost) -> None:
    # The adaptive path nests a solver in a solver; only the outermost
    # solution's counters cover the whole search without double counting.
    if outermost:
        tracer.add("anneal.lps", result.evaluations)
        tracer.add("anneal.memo_hits", result.cache_hits)
        tracer.add("screen.priced", result.stats.get("filter_priced", 0.0))


def _refined(tracer, args, kwargs, result, outermost) -> None:
    tracer.add("refine.rounds", result[1].rounds)


def _lp_solved(tracer, args, kwargs, result, outermost) -> None:
    tracer.add("lp.solves")
    tracer.add("lp.iterations", result.iterations)


def install_layers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see the README's layer table)."""
    from repro.core import adaptive_grid, heuristic, tool
    from repro.energy.profiles import ProfileBuilder
    from repro.lpsolver import highs_backend
    from repro.operator import dispatch, forecast, traffic
    from repro.scenarios.spec import ScenarioSpec
    from repro.weather.locations import WorldCatalog

    tracer.wrap(ScenarioSpec, "build_catalog", "catalogue")
    tracer.wrap(WorldCatalog, "tmy", "weather", hook=_count("weather.tmy_calls"))
    for attr in ("distance_to_power_km", "distance_to_network_km", "near_plant_capacity_kw"):
        tracer.wrap(WorldCatalog, attr, "geo", hook=_count("geo.nearest_calls"))
    tracer.wrap(ProfileBuilder, "build_all", "profiles", hook=_profiles_built)
    tracer.wrap(ProfileBuilder, "build", "profiles")
    tracer.wrap(tool.PlacementTool, "build_problem", "problem")
    tracer.wrap(heuristic, "screen_lower_bounds", "screen", hook=_screened)
    tracer.wrap(heuristic.HeuristicSolver, "filter_locations", "filter")
    # The filter thread waits here while pool threads price; counting the
    # wait as pricing keeps it out of the filter's self time.
    tracer.wrap(heuristic, "priced_in_chunks", "pricing", busy=False)
    tracer.wrap(heuristic, "price_batch", "pricing", hook=_priced)
    tracer.wrap(heuristic, "price_per_site", "pricing", hook=_priced)
    tracer.wrap(heuristic.HeuristicSolver, "solve", "solve", span=False, hook=_solved)
    tracer.wrap(heuristic.HeuristicSolver, "evaluate", "anneal")
    tracer.wrap(adaptive_grid.AdaptiveGridRefiner, "refine", "refine", hook=_refined)
    tracer.wrap(highs_backend, "solve_row_form", "lp", hook=_lp_solved)
    tracer.wrap(highs_backend.MutableHighsModel, "solve", "lp", hook=_lp_solved)
    tracer.wrap(dispatch.RollingDispatcher, "start", "dispatch", hook=_count("dispatch.steps"))
    tracer.wrap(dispatch.RollingDispatcher, "advance", "dispatch", hook=_count("dispatch.steps"))
    for value in vars(forecast).values():
        if isinstance(value, type) and "forecast" in vars(value):
            tracer.wrap(value, "forecast", "forecast")
    tracer.wrap(traffic.TrafficModel, "synthesize", "traffic")


def layer_report(tracer: Tracer, begin: float, end: float) -> Dict[str, float]:
    """Busy and self times per layer, the filter's wall time and the hook counters, flat."""
    busy = tracer.busy()
    report = {f"{layer}.busy_s": busy.get(layer, 0.0) for layer in LAYERS}
    own = tracer.self_times(begin, end)
    report.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS + ("other",)})
    report.update(tracer.counts)
    report["filter.wall_s"] = tracer.wall("filter")
    report["trace.wall_s"] = end - begin
    report["trace.overhead_s"] = len(tracer.spans) * wrapper_cost_s()
    return report


class Traced:
    """Context manager: layers wrapped inside, a layer report afterwards."""

    def __init__(self, enabled: bool) -> None:
        self.tracer = Tracer() if enabled else None
        self.report: Optional[Dict[str, float]] = None

    def __enter__(self) -> "Traced":
        if self.tracer is not None:
            install_layers(self.tracer)
        self.begin = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.restore()
            self.report = layer_report(self.tracer, self.begin, self.end)

    @property
    def wall_s(self) -> float:
        return self.end - self.begin


# -- tasks --------------------------------------------------------------------


def task_plan(task: Dict[str, Any]) -> Dict[str, Any]:
    """One cold paper-scale plan, catalogue and profiles inside the timed region."""
    from repro.scenarios import ExperimentRunner

    spec = plan_cold_spec(task["catalog_seed"])
    runner = ExperimentRunner(cache_dir=None)
    with Traced(task.get("trace", False)) as traced:
        record = runner.run_point(spec).record
    return {
        "op_s": traced.wall_s,
        "summary": plan_summary(record),
        "runner": runner.cache_stats(),
        "process_fallbacks": runner.process_fallbacks,
        "layers": traced.report,
        "peak_rss_mb": peak_rss_mb(),
    }


def task_sweep(task: Dict[str, Any]) -> Dict[str, Any]:
    """The Fig. 8-10 sweeps through one runner with the ``repro sweep`` defaults."""
    from repro.scenarios import ExperimentRunner

    sweep = figure_sweep(task["order_seed"])
    runner = ExperimentRunner(cache_dir=task["cache_dir"])
    with Traced(task.get("trace", False)) as traced:
        points = list(runner.run(sweep))
    return {
        "op_s": traced.wall_s,
        "points": [[point.spec.content_hash(), plan_summary(point.record)] for point in points],
        "runner": runner.cache_stats(),
        "process_fallbacks": runner.process_fallbacks,
        "layers": traced.report,
        "peak_rss_mb": peak_rss_mb(),
    }


def _replay(plan, knobs, capacity_kw, traffic_seed, start_hour, trace) -> Dict[str, Any]:
    from repro.operator.replay import OperateConfig, operate_plan

    config = OperateConfig(**dict(knobs, traffic_seed=traffic_seed, start_hour=start_hour))
    outcome: Dict[str, Any] = {"traffic_seed": traffic_seed, "start_hour": start_hour}
    with Traced(trace) as traced:
        try:
            record = operate_plan(plan, config, total_capacity_kw=capacity_kw)
        except Exception as error:  # noqa: BLE001 - a failed replay is counted, not fatal
            record = None
            outcome["error"] = f"{type(error).__name__}: {error}"
    outcome["wall_s"] = traced.wall_s
    outcome["layers"] = traced.report
    if record is not None:
        outcome["costs"] = [record["forecast_cost_usd"], record["oracle_cost_usd"]]
        outcome["finite"] = all(math.isfinite(cost) for cost in outcome["costs"])
        outcome["steps"] = 2 * record["steps"]
        outcome["policies"] = {
            policy: {
                key: record[policy][key]
                for key in ("lp_solves", "cold_loads", "warm_start_rate",
                            "simplex_iterations", "slide_retries", "degraded")
            }
            for policy in ("forecast", "oracle")
        }
    return outcome


def task_operate(task: Dict[str, Any]) -> Dict[str, Any]:
    """Plan ``operate-fig06`` (set-up), then replay seeded operating weeks.

    Every week is replayed once.  With a time budget, the weeks that
    completed are then replayed again in turn while another replay is
    projected to end within it; a repeat whose outcome differs from the
    first ends that week's repeats.  The host is probed after every replay
    (``hostspeed.py``).
    """
    from repro.core.tool import PlacementTool
    from repro.scenarios import get_scenario

    spec = get_scenario("operate-fig06").build().base
    started = time.perf_counter()
    plan = PlacementTool.from_spec(spec).plan_spec(spec).plan
    emit({"planned_s": time.perf_counter() - started})
    if task.get("setup_only"):
        return {"peak_rss_mb": peak_rss_mb()}
    knobs = spec.operate_knobs()
    host = Host()

    def replay(week) -> Dict[str, Any]:
        outcome = _replay(plan, knobs, spec.total_capacity_kw, week[0], week[1],
                          task.get("trace", False))
        host.sample(1)
        outcome["times_s"] = [outcome["wall_s"]]
        return outcome

    started = time.perf_counter()
    replays = [replay(week) for week in task["replays"]]
    budget = task["seconds"]  # None: every week once
    runs = len(replays)
    again = [first for first in replays if "error" not in first and first["finite"]]
    turn = 0
    while budget is not None and again and (
        (time.perf_counter() - started) * (runs + 1) / runs <= budget
    ):
        first = again[turn % len(again)]
        turn += 1
        repeat = replay((first["traffic_seed"], first["start_hour"]))
        runs += 1
        if "error" in repeat or repeat["costs"] != first["costs"]:
            first["repeat_error"] = repeat.get("error") or (
                f"costs {repeat['costs']} differ from the first replay's {first['costs']}"
            )
            first["repeat_wrong"] = "error" not in repeat
            again.remove(first)
        else:
            first["times_s"] += repeat["times_s"]
    return {"replays": replays, "probes": host.probes, "peak_rss_mb": peak_rss_mb()}


def task_serve_reference(task: Dict[str, Any]) -> Dict[str, Any]:
    """The served points and their records computed directly by a serial runner."""
    from repro.scenarios import ExperimentRunner

    specs = serve_specs()
    runner = ExperimentRunner(cache_dir=None, workers=1, executor="serial")
    return {
        "specs": [spec.to_dict() for spec in specs],
        "hashes": [spec.content_hash() for spec in specs],
        "digests": [digest(runner.run_point(spec).record) for spec in specs],
    }


def task_reference(task: Dict[str, Any]) -> Dict[str, Any]:
    """Plan and sweep references, computed serially and cold."""
    from repro.scenarios import ExperimentRunner

    plans = {}
    for seed in task["catalog_seeds"]:
        record = ExperimentRunner(cache_dir=None).run_point(plan_cold_spec(seed)).record
        plans[str(seed)] = plan_summary(record)
    runner = ExperimentRunner(cache_dir=None, workers=1, executor="serial")
    sweep = {
        point.spec.content_hash(): plan_summary(point.record)
        for point in runner.run(figure_sweep(0))
    }
    return {"plan_cold": plans, "sweep_figs": sweep}


TASKS = {
    "import": lambda task: {},
    "plan": task_plan,
    "sweep": task_sweep,
    "operate": task_operate,
    "serve_reference": task_serve_reference,
    "reference": task_reference,
}


def main() -> int:
    global _out
    _out = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)  # native code writing to stdout must not corrupt the protocol
    sys.stdout = sys.stderr
    task = json.loads(sys.argv[1])
    import repro.core.tool  # noqa: F401
    import repro.operator.replay  # noqa: F401
    import repro.scenarios  # noqa: F401

    emit({"ready": True})
    emit({"result": TASKS[task["task"]](task)})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
