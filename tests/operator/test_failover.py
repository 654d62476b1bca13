"""Failover: the greedy fallback dispatcher, solver outages, tiered shedding."""

import numpy as np
import pytest

from repro.operator import (
    FaultSpec,
    GreedyFallbackDispatcher,
    OperateConfig,
    ReplayHarness,
    SiteAsset,
    SiteOutage,
    SolverOutage,
    TrafficModel,
)
from repro.operator.dispatch import DispatchConfig, DispatchError

SITE_NAMES = ("alpha", "beta", "gamma")


def _sites(caps=(600.0, 300.0, 100.0), steps=8, battery_fraction=0.3):
    return [
        SiteAsset(
            name=name,
            capacity_kw=cap,
            battery_kwh=battery_fraction * cap,
            energy_price_per_kwh=0.1 * (index + 1),
            pue=np.full(steps, 1.25),
            production_kw=np.zeros(steps),
        )
        for index, (name, cap) in enumerate(zip(SITE_NAMES, caps))
    ]


def _decide(dispatcher, demand, load=None, level=None, production=None, **kwargs):
    n = len(dispatcher.sites)
    return dispatcher.decide(
        step=0,
        load_kw=np.zeros(n) if load is None else np.asarray(load, dtype=float),
        level_kwh=np.zeros(n) if level is None else np.asarray(level, dtype=float),
        demand_kw=demand,
        production_kw=np.zeros(n) if production is None else np.asarray(production, dtype=float),
        **kwargs,
    )


class TestGreedyFallbackDispatcher:
    def test_allocation_is_proportional_to_capacity(self):
        dispatcher = GreedyFallbackDispatcher(_sites())
        decision = _decide(dispatcher, demand=500.0)
        assert decision.compute_kw == pytest.approx([300.0, 150.0, 50.0])
        assert decision.unserved_kw == pytest.approx(0.0)
        assert decision.degraded is True

    def test_overload_clips_at_capacity_and_sheds_the_rest(self):
        dispatcher = GreedyFallbackDispatcher(_sites())
        decision = _decide(dispatcher, demand=1500.0)
        assert decision.compute_kw == pytest.approx([600.0, 300.0, 100.0])
        assert decision.unserved_kw == pytest.approx(500.0)

    def test_outage_capacity_is_respected(self):
        dispatcher = GreedyFallbackDispatcher(_sites())
        decision = _decide(
            dispatcher, demand=300.0, capacity_now=np.array([0.0, 300.0, 100.0])
        )
        assert decision.compute_kw[0] == pytest.approx(0.0)
        assert decision.compute_kw == pytest.approx([0.0, 225.0, 75.0])
        dead = _decide(dispatcher, demand=300.0, capacity_now=np.zeros(3))
        assert decision.unserved_kw == pytest.approx(0.0)
        assert dead.unserved_kw == pytest.approx(300.0)

    def test_wan_budget_bounds_migration_without_losing_load(self):
        dispatcher = GreedyFallbackDispatcher(_sites())
        decision = _decide(
            dispatcher, demand=500.0, load=[500.0, 0.0, 0.0], wan_budget_kw=50.0
        )
        assert decision.moved_kw <= 50.0 + 1e-9
        # Load that could not move stayed on its old site; nothing vanished.
        assert float(decision.compute_kw.sum()) == pytest.approx(500.0)
        assert np.all(decision.compute_kw <= dispatcher._capacity_nominal + 1e-9)
        assert decision.unserved_kw == pytest.approx(0.0)

    def test_battery_discharge_never_overdraws_the_level(self):
        dispatcher = GreedyFallbackDispatcher(_sites())
        level = np.array([10.0, 0.0, 5.0])
        decision = _decide(dispatcher, demand=500.0, level=level)
        assert np.all(decision.level_kwh >= -1e-9)
        assert np.all(decision.discharge_kw <= level / dispatcher.config.step_hours + 1e-9)
        # Energy balances per site: green + discharge + brown covers facility.
        facility = 1.25 * (decision.compute_kw + decision.migrate_kw)
        supplied = decision.green_direct_kw + decision.discharge_kw + decision.brown_kw
        assert supplied == pytest.approx(facility)

    def test_surplus_green_charges_within_battery_capacity(self):
        dispatcher = GreedyFallbackDispatcher(_sites())
        production = np.array([1000.0, 0.0, 0.0])
        decision = _decide(dispatcher, demand=100.0, production=production)
        capacity = np.array([site.battery_kwh for site in dispatcher.sites])
        assert np.all(decision.level_kwh <= capacity + 1e-9)
        assert np.all(decision.charge_kw >= -1e-9)
        # Whatever did not fit is exported, not destroyed.
        surplus = production - decision.green_direct_kw
        assert decision.export_kw + decision.charge_kw == pytest.approx(surplus)

    def test_tiered_shedding_fills_cheapest_tier_first(self):
        config = DispatchConfig(shed_tiers=((0.6, 20.0), (0.4, 5.0)))
        dispatcher = GreedyFallbackDispatcher(
            _sites(caps=(300.0, 150.0, 50.0)), config=config
        )
        decision = _decide(dispatcher, demand=1000.0)
        assert decision.unserved_kw == pytest.approx(500.0)
        # The 5 $/kWh tier absorbs its full 40 % share before the 20 $/kWh
        # tier sheds anything.
        assert decision.unserved_by_tier == pytest.approx([100.0, 400.0])

    def test_untiered_decisions_have_no_tier_split(self):
        dispatcher = GreedyFallbackDispatcher(_sites())
        assert _decide(dispatcher, demand=1500.0).unserved_by_tier is None

    def test_needs_at_least_one_site(self):
        with pytest.raises(ValueError):
            GreedyFallbackDispatcher([])


class TestShedTierValidation:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            DispatchConfig(shed_tiers=((0.6, 20.0), (0.3, 5.0)))

    def test_fractions_and_penalties_must_be_positive(self):
        with pytest.raises(ValueError):
            DispatchConfig(shed_tiers=((1.2, 20.0), (-0.2, 5.0)))
        with pytest.raises(ValueError, match="penalties"):
            DispatchConfig(shed_tiers=((0.5, 20.0), (0.5, 0.0)))
        with pytest.raises(ValueError, match="at least one"):
            DispatchConfig(shed_tiers=())

    def test_operate_config_normalises_tiers(self):
        config = OperateConfig(steps=4, shed_tiers=[[0.6, 20], [0.4, 5]])
        assert config.shed_tiers == ((0.6, 20.0), (0.4, 5.0))
        dispatch = config.dispatch_config(total_capacity_kw=1000.0)
        assert dispatch.shed_tiers == ((0.6, 20.0), (0.4, 5.0))


class TestSolverOutageReplay:
    def _harness(self, faults=None, steps=24, horizon=8, **config_kwargs):
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

        sites = [
            site(name, phase, 600.0)
            for name, phase in zip(SITE_NAMES, (0.0, 10.0, 18.0))
        ]
        trace = TrafficModel(seed=3).synthesize(needed, total_capacity_kw=1000.0)
        return ReplayHarness(sites, trace, config, total_capacity_kw=1000.0, faults=faults)

    def test_outage_replay_completes_with_a_degraded_record(self):
        faults = FaultSpec(solver_outages=(SolverOutage(start_step=6, duration_steps=3),))
        outcome = self._harness(faults=faults).run("forecast")
        assert outcome.stats["greedy_fallback_steps"] == 3
        assert outcome.degraded
        for decision in outcome.decisions[6:9]:
            assert decision.degraded
        for decision in outcome.decisions[:6] + outcome.decisions[9:]:
            assert not decision.degraded
        record = outcome.to_record()
        assert record["degraded"] is True
        assert record["greedy_fallback_steps"] == 3

    def test_outage_costs_at_least_the_nominal_replay(self):
        faults = FaultSpec(solver_outages=(SolverOutage(start_step=6, duration_steps=3),))
        nominal = self._harness().run("forecast")
        degraded = self._harness(faults=faults).run("forecast")
        assert not nominal.degraded
        assert degraded.cost_usd >= nominal.cost_usd - 1e-6

    def test_disabled_fallback_raises_dispatch_error(self):
        faults = FaultSpec(solver_outages=(SolverOutage(start_step=6, duration_steps=1),))
        harness = self._harness(faults=faults, greedy_fallback=False)
        with pytest.raises(DispatchError):
            harness.run("forecast")

    def test_solver_fault_still_recovers_without_the_greedy_path(self):
        """A transient fault climbs the ladder; only an outage exhausts it."""
        faults = FaultSpec(solver_faults=(9,))
        outcome = self._harness(faults=faults).run("forecast")
        assert outcome.stats["fallback_rebuilds"] == 1
        assert outcome.stats["greedy_fallback_steps"] == 0
        assert not outcome.degraded

    def test_tiered_replay_matches_untiered_when_nothing_is_shed(self):
        plain = self._harness().run("forecast")
        tiered = self._harness(shed_tiers=[[0.6, 20.0], [0.4, 5.0]]).run("forecast")
        assert plain.unserved_kwh == pytest.approx(0.0, abs=1e-6)
        assert tiered.cost_usd == pytest.approx(plain.cost_usd, rel=1e-6)

    def test_tiered_shedding_is_cheaper_under_a_full_fleet_outage(self):
        """Pricing 40 % of demand at 5 $/kWh must beat 10 $/kWh across the
        board once an outage forces real shedding."""
        faults = FaultSpec(
            site_outages=tuple(
                SiteOutage(site=index, start_step=6, duration_steps=3)
                for index in range(len(SITE_NAMES))
            )
        )
        flat = self._harness(faults=faults).run("forecast")
        tiered = self._harness(
            faults=faults, shed_tiers=[[0.6, 10.0], [0.4, 5.0]]
        ).run("forecast")
        assert flat.unserved_kwh > 0
        assert tiered.cost_usd < flat.cost_usd
