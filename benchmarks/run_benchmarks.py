"""Perf-trajectory harness: run the solver benchmarks, append to BENCH_solver.json.

Runs the Section III-D heuristic-solver scaling benchmark and the Section V-C
scheduler-timing benchmark without pytest and records wall-clock per stage,
LP counts and cache hit rates to ``BENCH_solver.json`` next to this file.

The record is a *trajectory*: each invocation appends one entry (git revision,
date, per-stage timings) to the ``entries`` list instead of overwriting the
file, so successive PRs accumulate a machine-readable perf history.  The
committed file additionally carries the measured numbers of the seed
implementation (``baseline_seed``) that every entry's speedup is computed
against.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py [--output PATH]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from bench_sec3d_solver_scaling import (  # noqa: E402
    CANDIDATE_COUNTS,
    EXTENDED_COUNTS,
    SYNTHETIC_COUNTS,
    run_heuristic,
)
from bench_sec5c_scheduler_timing import SCALES_MW, SETUPS, build_scheduler  # noqa: E402

from repro.parallel import available_cpu_count  # noqa: E402
from repro.scenarios import ExperimentRunner, ParameterSweep, get_scenario  # noqa: E402

#: Seed-implementation numbers (commit b4313fa), measured on the same
#: 1-CPU container this harness first ran on: sequential chains, dict-based
#: LinearExpression model assembly, dense linprog backend.
BASELINE_SEED = {
    "sec3d_heuristic_scaling": {
        "12": {"elapsed_s": 0.396, "evaluations": 9},
        "30": {"elapsed_s": 0.592, "evaluations": 8},
        "60": {"elapsed_s": 0.856, "evaluations": 9},
    },
    "sec5c_scheduler_timing_ms": {"50MW": 11.0, "200MW": 11.0},
}

#: Keys a trajectory entry carries besides the benchmark results.
_ENTRY_META_KEYS = ("revision", "date", "machine", "rounds", "harness_seconds")


def bench_sec3d(rounds: int = 2, extended: bool = True) -> dict:
    """Best-of-``rounds`` per scale point, to damp container CPU jitter.

    The ``EXTENDED_COUNTS`` points (240/600/1373 candidates — up to the
    paper's full set) run a single round each; their wall-clock is dominated
    by the 1000+ filter-pricing LPs, which are stable.
    """
    results = {}
    points = [(count, rounds) for count in CANDIDATE_COUNTS]
    if extended:
        points.extend((count, 1) for count in EXTENDED_COUNTS)
    for count, point_rounds in points:
        result = min(
            (run_heuristic(count) for _ in range(point_rounds)),
            key=lambda r: r["elapsed_s"],
        )
        results[str(count)] = _sec3d_record(result)
        print(
            f"sec3d {count:>4} candidates: {result['elapsed_s']:.3f}s "
            f"(filter {result['filter_seconds']:.3f}s / search {result['search_seconds']:.3f}s), "
            f"{result['evaluations']} LPs, {result['cache_hits']} cache hits, "
            f"filter priced {result['filter_priced']:.0f} "
            f"({100 * result['filter_screen_rate']:.1f} % survival)"
        )
    return results


def _sec3d_record(result: dict) -> dict:
    return {
        "elapsed_s": round(result["elapsed_s"], 4),
        "filter_seconds": round(result["filter_seconds"], 4),
        "search_seconds": round(result["search_seconds"], 4),
        "lps_solved": result["evaluations"],
        "cache_hits": result["cache_hits"],
        "cache_hit_rate": round(result["cache_hit_rate"], 4),
        "refine_rounds": result["refine_rounds"],
        "filter_priced": result["filter_priced"],
        "filter_screen_rate": round(result["filter_screen_rate"], 4),
        "cost_musd": round(result["cost_musd"], 4),
        "feasible": result["feasible"],
    }


def bench_catalogue_scale() -> dict:
    """The 5k/20k synthetic-grid points beyond the paper's 1373 candidates.

    One round each: the wall-clock is dominated by the vectorized screen and
    the near-constant number of exactly-priced survivors, both stable.
    Profile building (weather synthesis) happens outside the timed region.
    """
    results = {}
    for count in SYNTHETIC_COUNTS:
        result = run_heuristic(count, synthetic_grid=True)
        results[str(count)] = _sec3d_record(result)
        print(
            f"catalogue {count:>6} candidates: {result['elapsed_s']:.3f}s "
            f"(filter {result['filter_seconds']:.3f}s / search {result['search_seconds']:.3f}s), "
            f"filter priced {result['filter_priced']:.0f} "
            f"({100 * result['filter_screen_rate']:.1f} % survival)"
        )
    return results


#: The executor kinds the comparison measures, serial first (the reference
#: every other kind must reproduce bit for bit).
EXECUTOR_KINDS = ("serial", "thread", "process")


def bench_executor_comparison(workers: int = 4) -> dict:
    """Thread vs process vs serial wall-clock of runner sweep points at fixed results.

    Sweep points are the one unit that crosses a process boundary (a
    heuristic search runs in its caller's process), so the comparison runs
    an hourly-grid Fig. 6 pricing sweep through the experiment runner.
    Every executor must reproduce the serial costs bit for bit — the
    harness asserts it — so the comparison is purely about wall-clock.  On
    a single-CPU container the process rows mostly show the fork/pickle
    overhead; run on a multi-core box for the scaling numbers.
    """
    results = {"workers": workers, "cpus_available": available_cpu_count()}
    # An hourly-grid Fig. 6 pricing point through the experiment runner: the
    # three configurations (brown / 50 % solar / 50 % wind) fan out as sweep
    # points.  60 locations keeps the harness snappy; the hourly grid (96
    # epochs) makes each point CPU-bound enough for fan-out to matter.
    fig06 = get_scenario("fig06").build()
    sweep = ParameterSweep(
        base=fig06.base.with_updates(hours_per_epoch=1, num_locations=60),
        axes=fig06.axes,
        mode=fig06.mode,
        name="fig06-hourly-60loc",
    )
    point = {}
    medians = {}
    for executor in EXECUTOR_KINDS:
        runner = ExperimentRunner(workers=workers, executor=executor)
        started = time.perf_counter()
        result_set = runner.run(sweep)
        elapsed = time.perf_counter() - started
        point[executor] = {"elapsed_s": round(elapsed, 4)}
        medians[executor] = tuple(result_set.values("median_monthly_cost"))
        print(f"fig06 hourly 60 locations [{executor:>7}]: {elapsed:.3f}s")
    if len(set(medians.values())) != 1:
        raise AssertionError(f"executor kinds disagree on fig06: {medians}")
    point["median_monthly_cost"] = [round(v, 2) for v in medians["serial"]]
    results["fig06_hourly_60loc"] = point
    return results


def bench_operator(steps: int = 168, rounds: int = 2) -> dict:
    """Rolling-horizon operator throughput on the operate-fig06 scenario.

    The plan stage runs once through the experiment runner; the replay is
    then re-timed standalone (both policies over the same trace), reporting
    steps/second, LPs solved and the warm-start hit rate of the incremental
    dispatch path.
    """
    from repro.operator import OperateConfig, operate_plan

    sweep = get_scenario("operate-fig06").build()
    base = sweep.base.with_updates(**{"operate.steps": steps})
    runner = ExperimentRunner()
    point = runner.run_point(base)
    plan = point.solution.plan
    config = OperateConfig(**base.operate_knobs())
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        record = operate_plan(plan, config, total_capacity_kw=base.total_capacity_kw)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, record)
    elapsed, record = best
    replay_steps = 2 * steps  # forecast + oracle policies over the same trace
    result = {
        "steps": steps,
        "num_sites": record["num_sites"],
        "horizon_steps": record["horizon_steps"],
        "replay_seconds": round(elapsed, 4),
        "steps_per_second": round(replay_steps / elapsed, 1),
        "lps_solved": record["forecast"]["lp_solves"] + record["oracle"]["lp_solves"],
        "cold_loads": record["forecast"]["cold_loads"] + record["oracle"]["cold_loads"],
        "warm_start_rate": round(record["warm_start_rate"], 4),
        "simplex_iterations": record["forecast"]["simplex_iterations"]
        + record["oracle"]["simplex_iterations"],
        "regret_cost_pct": round(record["regret_cost_pct"], 3),
        "forecast_cost_usd": round(record["forecast_cost_usd"], 2),
        "oracle_cost_usd": round(record["oracle_cost_usd"], 2),
    }
    print(
        f"operator {steps} steps x {record['num_sites']} sites: {elapsed:.3f}s "
        f"({result['steps_per_second']:.0f} steps/s, {result['lps_solved']} LPs, "
        f"{result['cold_loads']} cold loads, "
        f"{100 * result['warm_start_rate']:.0f} % warm-started, "
        f"regret {result['regret_cost_pct']:+.2f} %)"
    )
    return result


def bench_stochastic_ensemble(draws: int = 8, rounds: int = 2) -> dict:
    """Joint stochastic-LP throughput and the full ensemble-report wall-clock.

    Plans the robust-saa base deterministically once, then times (a) the
    joint scenario LP (shared sizing, per-draw epoch blocks) across the
    weather/demand ensemble and (b) the complete regret report (per-draw
    fixed + clairvoyant solves).  Draws/second is the number the robustness
    sweeps are bounded by.
    """
    from repro.core.provisioning import ProvisioningCompiler
    from repro.robust import EnsembleConfig, ensemble_report, perturbed_problem, solve_ensemble_lp
    from repro.robust.stochastic import plan_siting_and_sizing
    from repro.scenarios import get_scenario

    base = get_scenario("robust-saa").build().base.with_updates(ensemble={})
    runner = ExperimentRunner()
    point = runner.run_point(base)
    plan = point.solution.plan
    problem, _ = runner._problem_for(base, runner.tool_for(base))
    siting, sizing = plan_siting_and_sizing(plan)
    config = EnsembleConfig(draws=draws, mode="stochastic")

    best_solve = None
    for _ in range(rounds):
        started = time.perf_counter()
        compilers = [
            ProvisioningCompiler(perturbed_problem(problem, config, draw))
            for draw in range(draws)
        ]
        joint = solve_ensemble_lp(compilers, siting, options=runner.solver_options)
        elapsed = time.perf_counter() - started
        if best_solve is None or elapsed < best_solve[0]:
            best_solve = (elapsed, joint)
    solve_seconds, joint = best_solve

    started = time.perf_counter()
    report = ensemble_report(problem, siting, sizing, config, options=runner.solver_options)
    report_seconds = time.perf_counter() - started

    result = {
        "draws": draws,
        "num_sites": len(siting),
        "num_cols": joint.num_cols,
        "num_rows": joint.num_rows,
        "simplex_iterations": joint.iterations,
        "joint_lp_seconds": round(solve_seconds, 4),
        "draws_per_second": round(draws / solve_seconds, 1),
        "report_seconds": round(report_seconds, 4),
        "expected_cost_musd": round(report["expected_cost"] / 1e6, 4),
        "cvar_cost_musd": round(report["cvar_cost"] / 1e6, 4),
        "regret_mean_pct": round(report["regret_mean_pct"], 3),
        "stochastic_saving_pct": round(report["stochastic_saving_pct"], 3),
    }
    print(
        f"stochastic ensemble {draws} draws x {result['num_sites']} sites: "
        f"joint LP {result['num_cols']}x{result['num_rows']} in {solve_seconds:.3f}s "
        f"({result['draws_per_second']:.1f} draws/s), report {report_seconds:.3f}s, "
        f"regret {result['regret_mean_pct']:+.2f} %, "
        f"stochastic saving {result['stochastic_saving_pct']:+.2f} %"
    )
    return result


def bench_contingency(rounds: int = 2, fallback_steps: int = 2000) -> dict:
    """N-1 contingency planning and failover-dispatch throughput.

    Plans the contingency-fig06 base deterministically once, then times
    (a) the joint N-1 LP — shared sizing with one replicated epoch block per
    single-site outage plus the epsilon budget rows — (b) the batched
    block-diagonal evaluation of a fixed sizing across every contingency,
    and (c) the greedy fallback dispatcher's pure-numpy step rate (the floor
    the operator degrades to when the solver is down entirely).
    """
    import numpy as np

    from repro.core.provisioning import ProvisioningCompiler
    from repro.operator import GreedyFallbackDispatcher, SiteAsset
    from repro.robust import ContingencyConfig, evaluate_contingencies, solve_contingency_lp
    from repro.robust.stochastic import plan_siting_and_sizing

    base = get_scenario("contingency-fig06").build().base.with_updates(contingency={})
    runner = ExperimentRunner()
    point = runner.run_point(base)
    plan = point.solution.plan
    problem, _ = runner._problem_for(base, runner.tool_for(base))
    siting, det_sizing = plan_siting_and_sizing(plan)
    compiler = ProvisioningCompiler(problem)
    config = ContingencyConfig(survivability_epsilon=0.05)

    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        joint = solve_contingency_lp(
            compiler, siting, config=config, options=runner.solver_options
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best[0]:
            best = (elapsed, joint)
    joint_seconds, joint = best

    started = time.perf_counter()
    evaluate_contingencies(
        compiler, siting, det_sizing, options=runner.solver_options, batched=True
    )
    eval_seconds = time.perf_counter() - started

    # Greedy fallback step rate: a 3-site fleet, no solver involved.
    steps = fallback_steps
    hours = np.arange(steps, dtype=float)
    sites = [
        SiteAsset(
            name=f"site-{index}",
            capacity_kw=600.0,
            battery_kwh=180.0,
            energy_price_per_kwh=0.1,
            pue=np.full(steps, 1.25),
            production_kw=np.clip(np.sin(2 * np.pi * (hours + 8.0 * index) / 24.0), 0, None)
            * 1080.0,
        )
        for index in range(3)
    ]
    dispatcher = GreedyFallbackDispatcher(sites)
    load = np.zeros(3)
    level = np.zeros(3)
    started = time.perf_counter()
    for step in range(steps):
        decision = dispatcher.decide(
            step,
            load,
            level,
            demand_kw=900.0 + 300.0 * np.sin(2 * np.pi * step / 24.0),
            production_kw=np.array([float(site.production_kw[step]) for site in sites]),
            wan_budget_kw=250.0,
        )
        load = decision.compute_kw
        level = decision.level_kwh
    fallback_seconds = time.perf_counter() - started

    result = {
        "num_sites": len(siting),
        "epsilon": config.survivability_epsilon,
        "num_cols": joint.num_cols,
        "num_rows": joint.num_rows,
        "simplex_iterations": joint.iterations,
        "joint_lp_seconds": round(joint_seconds, 4),
        "contingencies_per_second": round(len(siting) / joint_seconds, 1),
        "batched_eval_seconds": round(eval_seconds, 4),
        "worst_unserved_kwh": round(float(joint.worst_unserved_kwh), 1),
        "budget_unserved_kwh": round(float(joint.budget_unserved_kwh), 1),
        "greedy_fallback_steps_per_second": round(steps / fallback_seconds, 1),
    }
    print(
        f"contingency {len(siting)} sites: joint N-1 LP "
        f"{joint.num_cols}x{joint.num_rows} in {joint_seconds:.3f}s "
        f"({result['contingencies_per_second']:.1f} contingencies/s), "
        f"batched eval {eval_seconds:.3f}s, greedy fallback "
        f"{result['greedy_fallback_steps_per_second']:.0f} steps/s"
    )
    return result


def bench_serve(requests: int = 240) -> dict:
    """Sustained ``repro serve`` throughput over a mixed scenario replay.

    Delegates to :mod:`serve_load` (imported lazily: it imports this module
    for the trajectory helpers): a burst of ``requests`` over 12 distinct
    downsized registered scenarios from 8 keep-alive HTTP clients, with the
    server-vs-direct bit-identity check on every distinct spec.
    """
    from serve_load import run_load

    result = run_load(total_requests=requests)
    if result["differential_mismatches"]:
        raise AssertionError(
            f"serve differential mismatches: {result['differential_mismatches']}"
        )
    latency = result["client_latency"]
    print(
        f"serve {result['requests']} requests ({result['distinct_specs']} specs, "
        f"{result['clients']} clients): {result['plans_per_second']:.1f} plans/s, "
        f"p50 {1000 * latency['p50_s']:.1f} ms, p99 {1000 * latency['p99_s']:.1f} ms, "
        f"{100 * result['dedup_rate']:.0f} % dedup"
    )
    return result


def bench_sec5c(rounds: int = 3) -> dict:
    results = {}
    for scale in SCALES_MW:
        solar_share, wind_share = SETUPS["solar+wind"]
        scheduler = build_scheduler(scale, solar_share, wind_share)
        scheduler.schedule(12.0)  # warm-up
        times = []
        for _ in range(rounds):
            times.append(scheduler.schedule(12.0).solve_time_seconds)
        best_ms = 1000.0 * min(times)
        results[f"{scale:.0f}MW"] = round(best_ms, 3)
        print(f"sec5c solar+wind {scale:.0f} MW: {best_ms:.1f} ms per scheduling pass")
    return results


def git_revision() -> str:
    try:
        return (
            subprocess.check_output(
                ["git", "rev-parse", "--short", "HEAD"], cwd=BENCH_DIR, text=True
            ).strip()
        )
    except Exception:
        return "unknown"


def load_trajectory(path: Path) -> dict:
    """Existing trajectory, upgrading the pre-append single-record format."""
    if not path.exists():
        return {"baseline_seed": BASELINE_SEED, "entries": []}
    try:
        payload = json.loads(path.read_text())
    except ValueError:
        return {"baseline_seed": BASELINE_SEED, "entries": []}
    if "entries" in payload:
        payload.setdefault("baseline_seed", BASELINE_SEED)
        return payload
    # Legacy layout: one flat record with the baseline inline — keep the old
    # measurement as the trajectory's first entry.
    entry = {key: value for key, value in payload.items() if key != "baseline_seed"}
    return {"baseline_seed": payload.get("baseline_seed", BASELINE_SEED), "entries": [entry]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=BENCH_DIR / "BENCH_solver.json",
        help="where to append the benchmark record (default: benchmarks/BENCH_solver.json)",
    )
    args = parser.parse_args()

    started = time.perf_counter()
    entry = {
        "revision": git_revision(),
        "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "rounds": "best of 2 per scale point",
        "sec3d_heuristic_scaling": bench_sec3d(),
        "catalogue_scale": bench_catalogue_scale(),
        "sec5c_scheduler_timing_ms": bench_sec5c(),
        "parallel_executor_comparison": bench_executor_comparison(),
        "operator_rolling_horizon": bench_operator(),
        "stochastic_ensemble": bench_stochastic_ensemble(),
        "contingency_planning": bench_contingency(),
        "serve_throughput": bench_serve(),
    }
    entry["harness_seconds"] = round(time.perf_counter() - started, 2)

    # The seed baseline only covers the original 12/30/60 points, so the
    # speedup is pinned to the 60-candidate scale even though entries now
    # also carry the extended 240/600/1373 curve.
    largest = str(max(CANDIDATE_COUNTS))
    seed = BASELINE_SEED["sec3d_heuristic_scaling"][largest]["elapsed_s"]
    now = entry["sec3d_heuristic_scaling"][largest]["elapsed_s"]
    entry[f"speedup_vs_seed_at_{largest}_candidates"] = round(seed / now, 2)

    trajectory = load_trajectory(args.output)
    trajectory["entries"].append(entry)
    serialized = json.dumps(trajectory, indent=2) + "\n"
    args.output.write_text(serialized)
    # Tooling discovers perf trajectories as BENCH_*.json at the repo root, so
    # mirror the canonical benchmarks/ copy there on every append.
    if args.output.resolve() == (BENCH_DIR / "BENCH_solver.json").resolve():
        (BENCH_DIR.parent / "BENCH_solver.json").write_text(serialized)

    print(f"\nappended entry {len(trajectory['entries'])} ({entry['revision']}) to {args.output}")
    print("trajectory at the largest scale "
          f"({largest} candidates, seed {seed:.3f}s):")
    for past in trajectory["entries"]:
        point = past.get("sec3d_heuristic_scaling", {}).get(largest)
        if point:
            speedup = past.get(
                f"speedup_vs_seed_at_{largest}_candidates",
                past.get("speedup_vs_seed_at_largest_scale", "?"),  # legacy key
            )
            print(f"  {past.get('revision', '?'):>10}  {past.get('date', ''):<22}"
                  f"{point['elapsed_s']:.3f}s  ({speedup}x)")


if __name__ == "__main__":
    main()
