"""Fault injection: spec semantics, faulted replays, solver resilience ladder."""

import json

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
    TrafficModel,
    WanDegradation,
    fragility,
)

SITE_NAMES = ("alpha", "beta", "gamma")


def _harness(faults=None, steps=24, horizon=8, **config_kwargs):
    config = OperateConfig(steps=steps, horizon_hours=horizon, **config_kwargs)
    needed = steps + config.horizon_steps + config.reforecast_every
    hours = np.arange(needed, dtype=float)

    def site(name, phase, cap):
        production = np.clip(np.sin(2 * np.pi * (hours + phase) / 24.0), 0, None)
        return SiteAsset(
            name=name,
            capacity_kw=cap,
            battery_kwh=0.3 * cap,
            energy_price_per_kwh=0.1,
            pue=np.full(needed, 1.25),
            production_kw=production * cap * 1.8,
        )

    sites = [site(name, phase, 600.0) for name, phase in zip(SITE_NAMES, (0.0, 10.0, 18.0))]
    trace = TrafficModel(seed=3).synthesize(needed, total_capacity_kw=1000.0)
    return ReplayHarness(sites, trace, config, total_capacity_kw=1000.0, faults=faults)


class TestFaultSpec:
    def test_round_trips_through_json(self):
        spec = FaultSpec(
            site_outages=(SiteOutage(site="beta", start_step=4, duration_steps=3),),
            wan_degradations=(WanDegradation(start_step=2, duration_steps=2, factor=0.5),),
            forecast_blackouts=(ForecastBlackout(start_step=8, duration_steps=4),),
            demand_surges=(DemandSurge(start_step=1, duration_steps=6, multiplier=1.4),),
            solver_faults=(7, 11),
        )
        rebuilt = FaultSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_empty_spec_round_trips_and_is_empty(self):
        assert FaultSpec().is_empty
        assert FaultSpec.from_dict({}).is_empty
        assert FaultSpec().to_dict() == {}

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultSpec.from_dict({"meteor_strikes": []})

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SiteOutage(site=0, start_step=-1, duration_steps=2)
        with pytest.raises(ValueError):
            ForecastBlackout(start_step=0, duration_steps=0)
        with pytest.raises(ValueError):
            WanDegradation(start_step=0, duration_steps=2, factor=1.0)
        with pytest.raises(ValueError):
            DemandSurge(start_step=0, duration_steps=2, multiplier=0.0)

    def test_per_step_queries(self):
        spec = FaultSpec(
            site_outages=(SiteOutage(site=1, start_step=4, duration_steps=2),),
            wan_degradations=(WanDegradation(start_step=3, duration_steps=4, factor=0.25),),
            forecast_blackouts=(ForecastBlackout(start_step=5, duration_steps=1),),
            demand_surges=(
                DemandSurge(start_step=0, duration_steps=10, multiplier=1.5),
                DemandSurge(start_step=5, duration_steps=2, multiplier=2.0),
            ),
        )
        assert list(spec.capacity_factors(4, SITE_NAMES)) == [1.0, 0.0, 1.0]
        assert list(spec.capacity_factors(6, SITE_NAMES)) == [1.0, 1.0, 1.0]
        assert spec.wan_factor(3) == 0.25
        assert spec.wan_factor(7) == 1.0
        assert spec.blackout(5) and not spec.blackout(6)
        assert spec.demand_multiplier(5) == pytest.approx(3.0)  # surges compound
        assert spec.demand_multiplier(12) == 1.0
        mask = spec.outage_mask(8, SITE_NAMES)
        assert mask.sum() == 2 and mask[1, 4] and mask[1, 5]

    def test_site_resolution_by_name_and_index(self):
        by_name = SiteOutage(site="gamma", start_step=0, duration_steps=1)
        by_index = SiteOutage(site=2, start_step=0, duration_steps=1)
        assert by_name.resolve(SITE_NAMES) == by_index.resolve(SITE_NAMES) == 2
        with pytest.raises(ValueError, match="unknown site"):
            SiteOutage(site="delta", start_step=0, duration_steps=1).resolve(SITE_NAMES)
        with pytest.raises(ValueError, match="out of range"):
            SiteOutage(site=9, start_step=0, duration_steps=1).resolve(SITE_NAMES)


class TestFaultedReplay:
    def test_empty_faults_change_nothing(self):
        nominal = _harness().run("forecast")
        with_empty = _harness(faults=FaultSpec()).run("forecast")
        assert with_empty.cost_usd == nominal.cost_usd
        assert with_empty.stats == nominal.stats

    def test_full_fleet_outage_is_counted_as_unserved(self):
        """With every site down, demand in the window can only go unserved."""
        faults = FaultSpec(
            site_outages=tuple(
                SiteOutage(site=index, start_step=6, duration_steps=3)
                for index in range(len(SITE_NAMES))
            )
        )
        nominal = _harness().run("forecast")
        faulted = _harness(faults=faults).run("forecast")
        assert faulted.unserved_kwh > nominal.unserved_kwh
        assert faulted.sla_violation_steps >= 3
        # Each outage step must strand at least that step's realized demand.
        demand = _harness().trace.demand_kw
        assert faulted.unserved_kwh >= 0.99 * float(np.sum(demand[6:9]))

    def test_single_outage_degrades_gracefully(self):
        faults = FaultSpec(
            site_outages=(SiteOutage(site="alpha", start_step=4, duration_steps=4),)
        )
        harness = _harness(faults=faults)
        outcome = harness.run("forecast")
        # The outage site computes nothing during its window.
        for decision in outcome.decisions[4:8]:
            assert decision.compute_kw[0] == pytest.approx(0.0, abs=1e-9)
        # Outside the window the fleet returns to nominal bounds.
        assert outcome.decisions[10].compute_kw[0] >= 0.0
        assert outcome.cost_usd >= _harness().run("forecast").cost_usd - 1e-6

    def test_wan_degradation_blocks_migration(self):
        faults = FaultSpec(
            wan_degradations=(WanDegradation(start_step=5, duration_steps=3, factor=0.0),)
        )
        outcome = _harness(faults=faults).run("forecast")
        for decision in outcome.decisions[5:8]:
            assert decision.moved_kw == pytest.approx(0.0, abs=1e-6)

    def test_demand_surge_raises_cost(self):
        faults = FaultSpec(
            demand_surges=(DemandSurge(start_step=0, duration_steps=24, multiplier=1.5),)
        )
        nominal = _harness().run("forecast")
        surged = _harness(faults=faults).run("forecast")
        assert surged.cost_usd > nominal.cost_usd

    def test_forecast_blackout_counts_and_only_hits_forecast_policy(self):
        faults = FaultSpec(
            forecast_blackouts=(ForecastBlackout(start_step=8, duration_steps=5),)
        )
        kwargs = dict(
            forecast_error=0.3, energy_forecast="noisy-oracle", load_forecast="noisy-oracle"
        )
        blind = _harness(faults=faults, **kwargs).run("forecast")
        sighted = _harness(**kwargs).run("forecast")
        assert blind.stats["forecast_blackout_steps"] == 5
        assert blind.cost_usd != sighted.cost_usd
        # The oracle policy ignores the forecasting service entirely.
        oracle_faulted = _harness(faults=faults, **kwargs).run("oracle")
        oracle_nominal = _harness(**kwargs).run("oracle")
        assert oracle_faulted.stats["forecast_blackout_steps"] == 0
        assert oracle_faulted.cost_usd == pytest.approx(oracle_nominal.cost_usd, rel=1e-12)

    def test_fragility_score_shape(self):
        faults = FaultSpec(
            site_outages=(SiteOutage(site=0, start_step=4, duration_steps=4),),
            forecast_blackouts=(ForecastBlackout(start_step=10, duration_steps=2),),
        )
        nominal = _harness().run("forecast")
        faulted = _harness(faults=faults).run("forecast")
        score = fragility(faulted, nominal)
        assert score["cost_usd"] == pytest.approx(faulted.cost_usd)
        assert score["cost_blowup_usd"] == pytest.approx(faulted.cost_usd - nominal.cost_usd)
        assert score["unserved_delta_kwh"] == pytest.approx(
            faulted.unserved_kwh - nominal.unserved_kwh
        )
        assert score["forecast_blackout_steps"] == 2


class TestSolverResilienceLadder:
    def test_injected_fault_triggers_retry_then_cold_rebuild(self):
        faults = FaultSpec(solver_faults=(9,))
        outcome = _harness(faults=faults).run("forecast")
        assert outcome.stats["slide_retries"] == 1
        assert outcome.stats["fallback_rebuilds"] == 1
        # Initial load plus exactly one fallback rebuild.
        assert outcome.stats["cold_loads"] == 2

    def test_cold_rebuild_reproduces_the_uninjected_objectives(self):
        """The ladder must never change the numbers, only survive the failure."""
        nominal = _harness().run("forecast")
        injected = _harness(faults=FaultSpec(solver_faults=(5, 13))).run("forecast")
        assert injected.stats["fallback_rebuilds"] == 2
        assert injected.cost_usd == pytest.approx(nominal.cost_usd, rel=1e-9)
        for clean, faulted in zip(nominal.decisions, injected.decisions):
            assert faulted.objective == pytest.approx(clean.objective, rel=1e-9)

    def test_uninjected_steps_never_use_the_ladder(self):
        outcome = _harness().run("forecast")
        assert outcome.stats["slide_retries"] == 0
        assert outcome.stats["fallback_rebuilds"] == 0
        assert outcome.stats["cold_loads"] == 1

    def test_fault_counters_survive_into_the_record(self):
        faults = FaultSpec(solver_faults=(3,))
        record = _harness(faults=faults).run("forecast").to_record()
        assert record["slide_retries"] == 1
        assert record["fallback_rebuilds"] == 1
