"""Replay harness: oracle vs forecast-driven operation of a provisioned plan.

A replay runs the rolling-horizon dispatcher over a synthesized traffic
trace under one policy, against the *same* demand and production actuals
as every other replay of its record:

* the **oracle** policy sees the actual series over its whole look-ahead
  window (perfect forecasts — the paper's assumption), and
* the **forecast** policy sees the configured forecasters' output (with the
  current step nowcast exactly, like a real operator would observe it).

Both policies realize their committed first step against the actuals, so the
difference between their operating costs is pure forecast regret: the money,
brown energy and SLA violations imperfect foresight costs.  The replay is
deterministic for a fixed spec — traffic, forecasts and LP solves all derive
from seeds and counters, never from wall-clock or process identity — which
is what lets the experiment runner cache replay records by content hash and
the determinism tests compare records bit for bit across executors.

The replays of one record are independent (each has its own dispatcher,
HiGHS handle and forecasters), so :func:`run_replays` runs them at the same
time on a thread pool: HiGHS releases the GIL while it solves.  A record is
the same bits on any number of threads, inline included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.operator.dispatch import (
    DispatchConfig,
    DispatchDecision,
    RollingDispatcher,
    SiteAsset,
)
from repro.operator.faults import FaultSpec, SiteOutage
from repro.operator.forecast import RollingForecast, make_forecaster
from repro.operator.traffic import TrafficModel, TrafficTrace, default_regions
from repro.parallel.executors import ExecutorFactory
from repro.simulation.workload import VMSpec, migration_state_mb

#: Operating policies a replay can run.
POLICIES = ("forecast", "oracle")


@dataclass
class OperateConfig:
    """Everything one operating replay needs besides the plan itself."""

    steps: int = 168                      #: operating steps to replay
    step_hours: float = 1.0
    start_hour: float = 0.0
    horizon_hours: int = 24               #: dispatch look-ahead window
    reforecast_every: int = 1             #: rolling re-forecast cadence (steps)
    energy_forecast: str = "persistence"  #: per-site green-production forecaster
    load_forecast: str = "seasonal-naive"  #: global demand forecaster
    forecast_error: float = 0.0           #: noisy-oracle error level
    forecast_seed: int = 0
    traffic_seed: int = 0
    num_regions: int = 3
    base_utilization: float = 0.55
    peak_utilization: float = 0.95
    traffic_noise: float = 0.02
    flash_crowds_per_week: float = 1.0
    outages_per_week: float = 0.5
    wan_move_fraction_per_hour: float = 0.25  #: service share movable per hour
    unserved_penalty: float = 10.0
    shed_tiers: Optional[Sequence[Sequence[float]]] = None  #: priority classes [(fraction, penalty), ...]
    migration_penalty_per_kw: float = 1e-3
    export_credit: float = 1.0
    allow_export: bool = True
    battery_efficiency: float = 0.75
    migration_factor: float = 1.0
    greedy_fallback: bool = True          #: commit greedy steps when the solver is down

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("a replay needs at least one step")
        if self.step_hours <= 0 or self.horizon_hours < 2 * self.step_hours:
            raise ValueError("need a positive step and a horizon of at least two steps")
        if self.reforecast_every < 1:
            raise ValueError("the re-forecast cadence must be at least one step")
        if self.forecast_error < 0:
            raise ValueError("the forecast error cannot be negative")
        if not 0.0 < self.wan_move_fraction_per_hour:
            raise ValueError("the WAN move fraction must be positive")
        if self.shed_tiers is not None:
            # JSON-friendly [[fraction, penalty], ...] -> canonical tuples;
            # DispatchConfig validates fractions/penalties on construction.
            self.shed_tiers = tuple(
                (float(fraction), float(penalty)) for fraction, penalty in self.shed_tiers
            )

    @property
    def horizon_steps(self) -> int:
        return max(2, int(round(self.horizon_hours / self.step_hours)))

    def dispatch_config(self, total_capacity_kw: float) -> DispatchConfig:
        return DispatchConfig(
            horizon=self.horizon_steps,
            step_hours=self.step_hours,
            migration_factor=self.migration_factor,
            battery_efficiency=self.battery_efficiency,
            allow_export=self.allow_export,
            export_credit=self.export_credit,
            wan_move_kw=self.wan_move_fraction_per_hour * total_capacity_kw * self.step_hours,
            unserved_penalty=self.unserved_penalty,
            shed_tiers=self.shed_tiers,
            migration_penalty_per_kw=self.migration_penalty_per_kw,
            greedy_fallback=self.greedy_fallback,
        )


@dataclass
class ReplayResult:
    """Aggregate outcome of one policy's replay."""

    policy: str
    steps: int
    step_hours: float
    cost_usd: float
    brown_kwh: float
    green_kwh: float
    export_kwh: float
    unserved_kwh: float
    moved_kw: float
    migrated_state_gb: float
    migration_stall_steps: int
    sla_violation_steps: int
    stats: Dict[str, int]
    site_names: List[str]
    site_brown_kwh: np.ndarray
    site_compute_kwh: np.ndarray
    decisions: List[DispatchDecision] = field(default_factory=list, repr=False)

    @property
    def green_fraction(self) -> float:
        total = self.green_kwh + self.brown_kwh
        return self.green_kwh / total if total > 0 else 0.0

    @property
    def degraded(self) -> bool:
        """Did any step commit a greedy fallback decision (no LP optimum)?"""
        return self.stats.get("greedy_fallback_steps", 0) > 0

    @property
    def warm_start_rate(self) -> float:
        solves = self.stats.get("lp_solves", 0)
        return self.stats.get("warm_solves", 0) / solves if solves else 0.0

    def to_record(self) -> Dict[str, Any]:
        """JSON-ready summary (what the experiment runner stores)."""
        return {
            "policy": self.policy,
            "cost_usd": float(self.cost_usd),
            "brown_kwh": float(self.brown_kwh),
            "green_kwh": float(self.green_kwh),
            "export_kwh": float(self.export_kwh),
            "unserved_kwh": float(self.unserved_kwh),
            "green_fraction": float(self.green_fraction),
            "moved_kw": float(self.moved_kw),
            "migrated_state_gb": float(self.migrated_state_gb),
            "migration_stall_steps": int(self.migration_stall_steps),
            "sla_violation_steps": int(self.sla_violation_steps),
            "lp_solves": int(self.stats.get("lp_solves", 0)),
            "cold_loads": int(self.stats.get("cold_loads", 0)),
            "slides": int(self.stats.get("slides", 0)),
            "warm_start_rate": float(self.warm_start_rate),
            "simplex_iterations": int(self.stats.get("simplex_iterations", 0)),
            "slide_retries": int(self.stats.get("slide_retries", 0)),
            "fallback_rebuilds": int(self.stats.get("fallback_rebuilds", 0)),
            "forecast_blackout_steps": int(self.stats.get("forecast_blackout_steps", 0)),
            "greedy_fallback_steps": int(self.stats.get("greedy_fallback_steps", 0)),
            "degraded": bool(self.degraded),
            "site_brown_kwh": {
                name: float(value)
                for name, value in zip(self.site_names, self.site_brown_kwh)
            },
            "site_compute_kwh": {
                name: float(value)
                for name, value in zip(self.site_names, self.site_compute_kwh)
            },
        }


class ReplayHarness:
    """Drives one policy over a trace with a rolling-horizon dispatcher."""

    def __init__(
        self,
        sites: Sequence[SiteAsset],
        trace: TrafficTrace,
        config: OperateConfig,
        total_capacity_kw: float,
        vm_spec: Optional[VMSpec] = None,
        faults: Optional[FaultSpec] = None,
    ) -> None:
        if not sites:
            raise ValueError("the replay needs at least one site")
        horizon = config.horizon_steps
        needed = config.steps + horizon + config.reforecast_every
        if trace.num_steps < needed:
            raise ValueError(
                f"the trace must cover steps + horizon + cadence ({needed}), "
                f"got {trace.num_steps}"
            )
        for site in sites:
            if len(site.pue) < needed:
                raise ValueError(f"site {site.name!r} series shorter than the replay")
        self.sites = list(sites)
        self.trace = trace
        self.config = config
        self.total_capacity_kw = total_capacity_kw
        self.vm_spec = vm_spec or VMSpec(name="template")
        self._production = np.stack([site.production_kw[:needed] for site in self.sites])
        self._demand = np.asarray(trace.demand_kw[:needed], dtype=float)
        # Held-out faults perturb the *actuals*: surges multiply realized
        # demand, outages zero a site's realized production (its capacity is
        # withdrawn per step through the dispatcher).  Forecasters read the
        # same actuals, so the operator observes faults only as they unfold.
        self.faults = faults if faults is not None and not faults.is_empty else None
        self._capacity_factor_matrix: Optional[np.ndarray] = None
        self._wan_factor_steps: Optional[np.ndarray] = None
        self._blackout_steps: Optional[np.ndarray] = None
        if self.faults is not None:
            site_names = [site.name for site in self.sites]
            self._demand = self._demand * self.faults.demand_multipliers(needed)
            self._production = np.where(
                self.faults.outage_mask(needed, site_names), 0.0, self._production
            )
            # Precompute every per-step fault query once per replay so the
            # hot loop only indexes arrays (the scalar queries scan the fault
            # list on every call).
            self._capacity_factor_matrix = self.faults.capacity_factor_matrix(
                needed, site_names
            )
            self._wan_factor_steps = self.faults.wan_factors(needed)
            self._blackout_steps = self.faults.blackout_mask(needed)

    def _forecasts(self, policy: str):
        config = self.config
        horizon = config.horizon_steps
        cadence = config.reforecast_every
        if policy == "oracle":
            load_kind = energy_kind = "oracle"
        elif policy == "forecast":
            load_kind, energy_kind = config.load_forecast, config.energy_forecast
        else:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        period_steps = max(1, int(round(24.0 / config.step_hours)))
        load = RollingForecast(
            make_forecaster(
                load_kind,
                key="demand",
                error=config.forecast_error,
                seed=config.forecast_seed,
                period=period_steps,
            ),
            horizon=horizon,
            cadence=cadence,
        )
        energy = [
            RollingForecast(
                make_forecaster(
                    energy_kind,
                    key=site.name,
                    error=config.forecast_error,
                    seed=config.forecast_seed,
                    period=period_steps,
                ),
                horizon=horizon,
                cadence=cadence,
            )
            for site in self.sites
        ]
        return load, energy

    def run(self, policy: str = "forecast") -> ReplayResult:
        config = self.config
        delta = config.step_hours
        horizon = config.horizon_steps
        N = len(self.sites)
        load_forecast, energy_forecasts = self._forecasts(policy)
        dispatcher = RollingDispatcher(
            self.sites,
            config=config.dispatch_config(self.total_capacity_kw),
        )
        if self.faults is not None:
            if self.faults.solver_faults:
                dispatcher.inject_solve_failures(self.faults.solver_faults)
            if self.faults.solver_outages:
                dispatcher.inject_solver_outages(
                    self.faults.solver_outage_steps(config.steps)
                )

        # Initial state: demand spread proportionally to capacity (clipped to
        # each site's cap — an overloaded first step surfaces as unserved
        # demand, not as an infeasible anchor), batteries empty.
        capacities = np.array([site.capacity_kw for site in self.sites])
        load_kw = np.minimum(self._demand[0] * capacities / capacities.sum(), capacities)
        level_kwh = np.zeros(N)
        prices = np.array([site.energy_price_per_kwh for site in self.sites])
        wan_mb_per_step = migration_state_mb(
            config.wan_move_fraction_per_hour * self.total_capacity_kw * delta,
            self.vm_spec,
        )

        tier_penalties = (
            np.array([penalty for _, penalty in config.shed_tiers])
            if config.shed_tiers is not None
            else None
        )
        cost = brown = green = export = unserved = moved = state_gb = 0.0
        stalls = sla_steps = blackout_steps = 0
        site_brown = np.zeros(N)
        site_compute = np.zeros(N)
        decisions: List[DispatchDecision] = []

        for step in range(config.steps):
            demand_hat = load_forecast.window(self._demand, step)
            production_hat = np.stack(
                [
                    forecast.window(self._production[d], step)
                    for d, forecast in enumerate(energy_forecasts)
                ]
            )
            # The operator observes the current step exactly (nowcast).
            demand_hat = demand_hat.copy()
            demand_hat[0] = self._demand[step]
            production_hat[:, 0] = self._production[:, step]

            capacity_now = None
            wan_factor = 1.0
            if self.faults is not None:
                capacity_now = capacities * self._capacity_factor_matrix[:, step]
                wan_factor = float(self._wan_factor_steps[step])
                if policy == "forecast" and self._blackout_steps[step]:
                    # Forecasting service down: degrade to persistence (flat
                    # continuation of the current observation).  The rolling
                    # forecasters were still advanced above, so their cadence
                    # state — and the replay's determinism — is unaffected.
                    blackout_steps += 1
                    demand_hat = np.full(horizon, float(self._demand[step]))
                    production_hat = np.repeat(
                        self._production[:, step : step + 1], horizon, axis=1
                    )

            if step == 0:
                decision = dispatcher.start(
                    0, load_kw, level_kwh, demand_hat, production_hat,
                    capacity_now=capacity_now, wan_factor=wan_factor,
                )
            else:
                decision = dispatcher.advance(
                    load_kw, level_kwh, demand_hat, production_hat,
                    capacity_now=capacity_now, wan_factor=wan_factor,
                )
            decisions.append(decision)

            # Realize the committed first step against the actuals (position 0
            # of the window already carries them, so the LP flows *are* the
            # realized flows).
            brown_step = decision.brown_kw * delta
            green_step = (decision.green_direct_kw + decision.discharge_kw) * delta
            export_step = decision.export_kw * delta
            cost += float(np.sum(prices * brown_step))
            cost -= config.export_credit * float(np.sum(prices * export_step))
            cost += config.migration_penalty_per_kw * decision.moved_kw
            brown += float(brown_step.sum())
            green += float(green_step.sum())
            export += float(export_step.sum())
            site_brown += brown_step
            site_compute += decision.compute_kw * delta
            unserved_step = decision.unserved_kw * delta
            unserved += unserved_step
            # The SLA penalty is part of the realized cost, exactly as the
            # dispatch LP prices it — otherwise a policy that simply fails
            # to serve demand would "beat" the oracle on headline regret.
            # With tiered shedding each priority class pays its own penalty.
            if tier_penalties is not None and decision.unserved_by_tier is not None:
                cost += float(tier_penalties @ decision.unserved_by_tier) * delta
            else:
                cost += config.unserved_penalty * unserved_step
            if unserved_step > 1e-6:
                sla_steps += 1
            moved += decision.moved_kw
            moved_state = migration_state_mb(decision.moved_kw, self.vm_spec)
            state_gb += moved_state / 1024.0
            if wan_mb_per_step > 0 and moved_state >= 0.999 * wan_mb_per_step:
                stalls += 1

            # The committed placement and battery trajectory become the next
            # step's anchors.
            load_kw = decision.compute_kw.copy()
            level_kwh = decision.level_kwh.copy()

        stats = dict(dispatcher.stats)
        stats["forecast_blackout_steps"] = blackout_steps
        return ReplayResult(
            policy=policy,
            steps=config.steps,
            step_hours=delta,
            cost_usd=cost,
            brown_kwh=brown,
            green_kwh=green,
            export_kwh=export,
            unserved_kwh=unserved,
            moved_kw=moved,
            migrated_state_gb=state_gb,
            migration_stall_steps=stalls,
            sla_violation_steps=sla_steps,
            stats=stats,
            site_names=[site.name for site in self.sites],
            site_brown_kwh=site_brown,
            site_compute_kwh=site_compute,
            decisions=decisions,
        )


def sites_from_plan(plan, hours: np.ndarray) -> List[SiteAsset]:
    """Operator site assets for every datacenter of a network plan."""
    return [
        SiteAsset.from_plan_datacenter(dc, hours)
        for dc in sorted(plan.datacenters, key=lambda d: d.name)
    ]


def run_replays(jobs: Sequence[Tuple[ReplayHarness, str]]) -> List[ReplayResult]:
    """Run independent ``(harness, policy)`` replays; results in job order.

    The pool takes ``jobs[1:]`` while the caller's thread runs ``jobs[0]``,
    so two replays start one new thread; with one CPU all run inline.
    """
    with ExecutorFactory(kind="thread").create(len(jobs)) as pool:
        rest = [pool.submit(harness.run, policy) for harness, policy in jobs[1:]]
        harness, policy = jobs[0]
        first = harness.run(policy)
        return [first] + [future.result() for future in rest]


def _operating_trace(
    config: OperateConfig, service_kw: float
) -> Tuple[np.ndarray, TrafficTrace]:
    """The hours and the synthesized traffic trace every replay of a record reads."""
    needed = config.steps + config.horizon_steps + config.reforecast_every
    traffic = TrafficModel(
        regions=default_regions(config.num_regions),
        seed=config.traffic_seed,
        base_utilization=config.base_utilization,
        peak_utilization=config.peak_utilization,
        noise_std=config.traffic_noise,
        flash_crowds_per_week=config.flash_crowds_per_week,
        outages_per_week=config.outages_per_week,
    )
    trace = traffic.synthesize(
        steps=needed,
        step_hours=config.step_hours,
        start_hour=config.start_hour,
        total_capacity_kw=service_kw,
        # The horizon/cadence padding must not change the operating period's
        # actuals: normalisation and events reference only the replayed steps.
        reference_steps=config.steps,
    )
    hours = config.start_hour + config.step_hours * np.arange(needed, dtype=float)
    return hours, trace


def fragility(faulted: ReplayResult, nominal: ReplayResult) -> Dict[str, float]:
    """Fragility score of a plan: the faulted replay against its nominal twin.

    The interesting quantities are the *deltas* — unserved demand and SLA
    hours the faults caused, and the cost blowup relative to the same policy
    on the unfaulted trace — plus the resilience counters showing how the LP
    runtime degraded (retries, cold rebuilds, persistence fallbacks) instead
    of crashing.
    """
    baseline = abs(nominal.cost_usd)
    cost_delta = faulted.cost_usd - nominal.cost_usd
    return {
        "cost_usd": float(faulted.cost_usd),
        "cost_blowup_usd": float(cost_delta),
        "cost_blowup_pct": float(100.0 * cost_delta / baseline) if baseline > 0 else 0.0,
        "unserved_kwh": float(faulted.unserved_kwh),
        "unserved_delta_kwh": float(faulted.unserved_kwh - nominal.unserved_kwh),
        "sla_violation_steps": int(faulted.sla_violation_steps),
        "sla_delta_steps": int(faulted.sla_violation_steps - nominal.sla_violation_steps),
        "slide_retries": int(faulted.stats.get("slide_retries", 0)),
        "fallback_rebuilds": int(faulted.stats.get("fallback_rebuilds", 0)),
        "forecast_blackout_steps": int(faulted.stats.get("forecast_blackout_steps", 0)),
        "greedy_fallback_steps": int(faulted.stats.get("greedy_fallback_steps", 0)),
        "degraded": bool(faulted.degraded),
    }


def operate_plan(
    plan,
    config: OperateConfig,
    total_capacity_kw: Optional[float] = None,
    faults: Optional[FaultSpec] = None,
) -> Dict[str, Any]:
    """Replay a provisioned plan under the forecast and oracle policies.

    Returns a JSON-ready record: both policies' summaries plus the regret —
    the cost/brown/SLA penalty the forecast-driven operator pays relative to
    perfect foresight over the same trace.

    With a non-empty ``faults`` program the plan is additionally
    stress-replayed (forecast policy, same trace, faults injected) and the
    record gains a ``stress`` block scoring its fragility against the
    unfaulted forecast replay.
    """
    service_kw = float(total_capacity_kw or plan.total_capacity_kw)
    hours, trace = _operating_trace(config, service_kw)
    sites = sites_from_plan(plan, hours)
    harness = ReplayHarness(sites, trace, config, total_capacity_kw=service_kw)
    jobs = [(harness, "forecast"), (harness, "oracle")]
    if faults is not None and not faults.is_empty:
        jobs.append((ReplayHarness(sites, trace, config, service_kw, faults=faults), "forecast"))
    forecast, oracle, *stressed = run_replays(jobs)
    record: Dict[str, Any] = {
        "steps": config.steps,
        "step_hours": config.step_hours,
        "horizon_steps": config.horizon_steps,
        "reforecast_every": config.reforecast_every,
        "num_sites": len(sites),
        "sites": [site.name for site in sites],
        "service_kw": service_kw,
        "load_forecast": config.load_forecast,
        "energy_forecast": config.energy_forecast,
        "forecast_error": config.forecast_error,
        "traffic_events": len(trace.events),
        "forecast": forecast.to_record(),
        "oracle": oracle.to_record(),
        "regret": regret(forecast, oracle),
    }
    # Flattened headline metrics so ResultSet.rows() picks them up.
    record.update(
        {
            "forecast_cost_usd": float(forecast.cost_usd),
            "oracle_cost_usd": float(oracle.cost_usd),
            "regret_cost_usd": record["regret"]["cost_usd"],
            "regret_cost_pct": record["regret"]["cost_pct"],
            "regret_brown_kwh": record["regret"]["brown_kwh"],
            "forecast_green_fraction": float(forecast.green_fraction),
            "oracle_green_fraction": float(oracle.green_fraction),
            "sla_violation_steps": int(forecast.sla_violation_steps),
            "lp_solves": int(forecast.stats.get("lp_solves", 0)),
            "cold_loads": int(forecast.stats.get("cold_loads", 0)),
            "slides": int(forecast.stats.get("slides", 0)),
            "warm_start_rate": float(forecast.warm_start_rate),
        }
    )
    if faults is not None and stressed:
        score = fragility(stressed[0], forecast)
        record["stress"] = {
            "faults": faults.to_dict(),
            "replay": stressed[0].to_record(),
            "fragility": score,
        }
        # Flattened headline fragility metrics, same convention as above.
        record.update(
            {
                "stress_cost_usd": score["cost_usd"],
                "stress_cost_blowup_pct": score["cost_blowup_pct"],
                "stress_unserved_kwh": score["unserved_kwh"],
                "stress_sla_violation_steps": score["sla_violation_steps"],
                "stress_slide_retries": score["slide_retries"],
                "stress_fallback_rebuilds": score["fallback_rebuilds"],
                "stress_blackout_steps": score["forecast_blackout_steps"],
                "stress_greedy_fallback_steps": score["greedy_fallback_steps"],
                "stress_degraded": score["degraded"],
            }
        )
    return record


def survivability_study(
    plan,
    n1_sizing: Dict[str, Dict[str, float]],
    config: OperateConfig,
    survivability_epsilon: float = 0.05,
    outage_start_step: int = 6,
    outage_duration_steps: int = 12,
    total_capacity_kw: Optional[float] = None,
) -> Dict[str, Any]:
    """Replay-level N-1 check: deterministic vs N-1 sizing under every outage.

    Both sizings are replayed (forecast policy) over the *same* synthesized
    trace — nominally, and once per site with that site knocked out for the
    configured window.  A sizing *survives* an outage when the unserved
    energy the outage adds stays within ``survivability_epsilon`` of the
    replayed service demand.  The study is the operational ground truth for
    the planner-level :func:`repro.robust.contingency.contingency_report`:
    the N-1 sizing should survive every contingency; the deterministic one
    typically fails its worst case.
    """
    from repro.robust.contingency import plan_with_sizing

    service_kw = float(total_capacity_kw or plan.total_capacity_kw)
    hours, trace = _operating_trace(config, service_kw)
    demand_kwh = float(np.sum(trace.demand_kw[: config.steps])) * config.step_hours
    budget_kwh = survivability_epsilon * demand_kwh
    tolerance = 1e-9 * max(budget_kwh, 1.0)
    site_names = [dc.name for dc in sorted(plan.datacenters, key=lambda d: d.name)]
    outages = [
        FaultSpec(site_outages=(SiteOutage(site, outage_start_step, outage_duration_steps),))
        for site in range(len(site_names))
    ]

    plans = {"deterministic": plan, "n1": plan_with_sizing(plan, n1_sizing)}
    summaries: Dict[str, Dict[str, Any]] = {}
    for label, candidate in plans.items():
        sites = sites_from_plan(candidate, hours)
        harnesses = [
            ReplayHarness(sites, trace, config, total_capacity_kw=service_kw, faults=faults)
            for faults in [None, *outages]
        ]
        nominal, *faulted_runs = run_replays([(harness, "forecast") for harness in harnesses])
        per_site: Dict[str, Dict[str, Any]] = {}
        for name, faulted in zip(site_names, faulted_runs):
            delta_kwh = faulted.unserved_kwh - nominal.unserved_kwh
            per_site[name] = {
                "unserved_kwh": float(faulted.unserved_kwh),
                "unserved_delta_kwh": float(delta_kwh),
                "cost_usd": float(faulted.cost_usd),
                "within_epsilon": bool(delta_kwh <= budget_kwh + tolerance),
                "degraded": bool(faulted.degraded),
            }
        worst_site = max(per_site, key=lambda name: per_site[name]["unserved_delta_kwh"])
        summaries[label] = {
            "nominal_cost_usd": float(nominal.cost_usd),
            "nominal_unserved_kwh": float(nominal.unserved_kwh),
            "worst_site": worst_site,
            "worst_unserved_delta_kwh": per_site[worst_site]["unserved_delta_kwh"],
            "within_epsilon": all(entry["within_epsilon"] for entry in per_site.values()),
            "per_site": per_site,
        }

    det, n1 = summaries["deterministic"], summaries["n1"]
    baseline = abs(det["nominal_cost_usd"])
    premium = n1["nominal_cost_usd"] - det["nominal_cost_usd"]
    return {
        "survivability_epsilon": float(survivability_epsilon),
        "budget_unserved_kwh": float(budget_kwh),
        "outage_start_step": int(outage_start_step),
        "outage_duration_steps": int(outage_duration_steps),
        "steps": int(config.steps),
        "num_sites": len(site_names),
        "sites": site_names,
        "plans": summaries,
        "cost_premium_pct": float(100.0 * premium / baseline) if baseline > 0 else 0.0,
        "unserved_reduction_kwh": float(
            det["worst_unserved_delta_kwh"] - n1["worst_unserved_delta_kwh"]
        ),
    }


def regret(policy: ReplayResult, oracle: ReplayResult) -> Dict[str, float]:
    """Forecast regret: what imperfect foresight cost, against the oracle."""
    cost_delta = policy.cost_usd - oracle.cost_usd
    baseline = abs(oracle.cost_usd)
    return {
        "cost_usd": float(cost_delta),
        "cost_pct": float(100.0 * cost_delta / baseline) if baseline > 0 else 0.0,
        "brown_kwh": float(policy.brown_kwh - oracle.brown_kwh),
        "unserved_kwh": float(policy.unserved_kwh - oracle.unserved_kwh),
        "migration_stall_steps": int(
            policy.migration_stall_steps - oracle.migration_stall_steps
        ),
        "sla_violation_steps": int(
            policy.sla_violation_steps - oracle.sla_violation_steps
        ),
    }
