"""Physical dispatch invariants must hold under every fault type.

Property-style checks: whatever the fault program — outages, WAN cuts,
forecast blackouts, surges, solver faults, full solver outages — every
committed decision (LP or greedy fallback) must respect capacity, conserve
demand, keep the battery inside its envelope, and stay under the WAN budget.
"""

import numpy as np
import pytest

from repro.operator import (
    DemandSurge,
    FaultSpec,
    ForecastBlackout,
    OperateConfig,
    ReplayHarness,
    SiteAsset,
    SiteOutage,
    SolverOutage,
    TrafficModel,
    WanDegradation,
)

SITE_NAMES = ("alpha", "beta", "gamma")
SITE_CAP_KW = 600.0
TOTAL_CAP_KW = 1000.0

FAULT_PROGRAMS = {
    "none": FaultSpec(),
    "site-outage": FaultSpec(
        site_outages=(SiteOutage(site="beta", start_step=5, duration_steps=4),)
    ),
    "fleet-outage": FaultSpec(
        site_outages=tuple(
            SiteOutage(site=index, start_step=8, duration_steps=2)
            for index in range(len(SITE_NAMES))
        )
    ),
    "wan-degradation": FaultSpec(
        wan_degradations=(WanDegradation(start_step=4, duration_steps=6, factor=0.25),)
    ),
    "wan-cut": FaultSpec(
        wan_degradations=(WanDegradation(start_step=4, duration_steps=6, factor=0.0),)
    ),
    "forecast-blackout": FaultSpec(
        forecast_blackouts=(ForecastBlackout(start_step=6, duration_steps=5),)
    ),
    "demand-surge": FaultSpec(
        demand_surges=(DemandSurge(start_step=3, duration_steps=8, multiplier=1.8),)
    ),
    "solver-fault": FaultSpec(solver_faults=(7, 13)),
    "solver-outage": FaultSpec(
        solver_outages=(SolverOutage(start_step=9, duration_steps=3),)
    ),
    "everything-at-once": FaultSpec(
        site_outages=(SiteOutage(site="alpha", start_step=5, duration_steps=3),),
        wan_degradations=(WanDegradation(start_step=4, duration_steps=6, factor=0.5),),
        forecast_blackouts=(ForecastBlackout(start_step=10, duration_steps=3),),
        demand_surges=(DemandSurge(start_step=2, duration_steps=10, multiplier=1.5),),
        solver_faults=(6,),
        solver_outages=(SolverOutage(start_step=15, duration_steps=2),),
    ),
}


def _harness(faults, steps=20, horizon=8, **config_kwargs):
    config = OperateConfig(
        steps=steps,
        horizon_hours=horizon,
        forecast_error=0.2,
        energy_forecast="noisy-oracle",
        load_forecast="noisy-oracle",
        **config_kwargs,
    )
    needed = steps + config.horizon_steps + config.reforecast_every
    hours = np.arange(needed, dtype=float)

    def site(name, phase):
        production = np.clip(np.sin(2 * np.pi * (hours + phase) / 24.0), 0, None)
        return SiteAsset(
            name=name,
            capacity_kw=SITE_CAP_KW,
            battery_kwh=0.3 * SITE_CAP_KW,
            energy_price_per_kwh=0.1,
            pue=np.full(needed, 1.25),
            production_kw=production * SITE_CAP_KW * 1.8,
        )

    sites = [site(name, phase) for name, phase in zip(SITE_NAMES, (0.0, 10.0, 18.0))]
    trace = TrafficModel(seed=3).synthesize(needed, total_capacity_kw=TOTAL_CAP_KW)
    return (
        ReplayHarness(sites, trace, config, total_capacity_kw=TOTAL_CAP_KW, faults=faults),
        trace,
        config,
    )


@pytest.mark.parametrize("name", sorted(FAULT_PROGRAMS))
def test_invariants_hold_under_fault_program(name):
    faults = FAULT_PROGRAMS[name]
    shed_tiers = [[0.6, 20.0], [0.4, 5.0]] if name == "everything-at-once" else None
    harness, trace, config = _harness(faults, shed_tiers=shed_tiers)
    outcome = harness.run("forecast")
    assert len(outcome.decisions) == config.steps

    battery_kwh = np.full(len(SITE_NAMES), 0.3 * SITE_CAP_KW)
    wan_move_kw = config.wan_move_fraction_per_hour * TOTAL_CAP_KW * config.step_hours
    for step, decision in enumerate(outcome.decisions):
        capacity_now = SITE_CAP_KW * faults.capacity_factors(step, SITE_NAMES)
        demand = float(trace.demand_kw[step]) * faults.demand_multiplier(step)
        atol = 1e-4 * max(demand, 1.0)

        # Capacity: nothing computes on a dead site or above its rating.
        assert np.all(decision.compute_kw >= -atol)
        assert np.all(decision.compute_kw <= capacity_now + atol)

        # Coverage: served plus shed is never short of realized demand
        # (anchored load may overshoot when demand drops faster than the WAN
        # lets it drain, but it can never silently under-serve).
        assert float(decision.compute_kw.sum()) + decision.unserved_kw >= demand - atol
        assert decision.unserved_kw >= -atol

        # WAN: migrations respect the (possibly degraded) budget.
        assert decision.moved_kw <= wan_move_kw * faults.wan_factor(step) + atol

        # Battery envelope: levels stay in [0, B], discharge is backed by
        # stored energy, charge never overfills.
        assert np.all(decision.level_kwh >= -atol)
        assert np.all(decision.level_kwh <= battery_kwh + atol)
        assert np.all(decision.discharge_kw >= -atol)
        assert np.all(decision.charge_kw >= -atol)

        # Energy: green + battery + brown covers the facility draw.
        facility = 1.25 * (
            decision.compute_kw + config.migration_factor * decision.migrate_kw
        )
        supplied = decision.green_direct_kw + decision.discharge_kw + decision.brown_kw
        assert np.all(supplied >= facility - atol)

        # Tier split, when present, reconciles with the total.
        if decision.unserved_by_tier is not None:
            assert float(decision.unserved_by_tier.sum()) == pytest.approx(
                decision.unserved_kw, abs=atol
            )
            assert np.all(decision.unserved_by_tier >= -atol)


def test_no_faults_means_no_unserved_demand():
    harness, _, _ = _harness(FaultSpec())
    outcome = harness.run("forecast")
    assert outcome.unserved_kwh == pytest.approx(0.0, abs=1e-6)
    assert not outcome.degraded


def test_battery_levels_chain_across_steps():
    """Each step's closing level is the next step's opening level."""
    faults = FAULT_PROGRAMS["everything-at-once"]
    harness, _, config = _harness(faults)
    outcome = harness.run("forecast")
    eff = config.battery_efficiency
    delta = config.step_hours
    previous = np.zeros(len(SITE_NAMES))
    for decision in outcome.decisions:
        expected = previous + delta * (eff * decision.charge_kw - decision.discharge_kw)
        assert decision.level_kwh == pytest.approx(expected, abs=1e-4)
        previous = decision.level_kwh
