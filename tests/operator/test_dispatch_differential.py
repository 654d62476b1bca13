"""Differential tests for the sliding-horizon dispatch core.

The dispatcher's warm-started windows, loaded from the compiled template of
their ring head with the previous basis as it is, must produce the same
window objectives as a cold solve of the step-by-step reference window
(``dispatch_oracle.rebuild_window``), for every storage/export
configuration — and only the first window may load cold, which the
load/slide counters pin down.  Every cold load puts the ring's head back to
slot 0, so the window it loads is the step-major reference window.
"""

import numpy as np
import pytest

from repro.operator.dispatch import DispatchConfig, RollingDispatcher
from repro.operator.traffic import TrafficModel

from dispatch_oracle import (
    CASES,
    assert_row_forms_identical,
    rebuild_window,
    reference_row_form,
    replay,
    replay_case,
    two_sites,
)

CONFIGS = [
    {"allow_export": True},                      # net metering
    {"allow_export": False},                     # batteries only
    {"allow_export": False, "battery": 0.0},     # no storage at all
]


class TestSlideVsColdRebuild:
    @pytest.mark.parametrize("config", CONFIGS)
    def test_objectives_match_cold_rebuild(self, config):
        steps, horizon = 16, 8
        needed = steps + horizon
        battery = config.get("battery", 200.0)
        sites = two_sites(needed, battery_kwh=battery)
        trace = TrafficModel(seed=3).synthesize(needed, total_capacity_kw=1000.0)
        demand = np.asarray(trace.demand_kw)
        production = np.stack([site.production_kw for site in sites])
        dispatcher = RollingDispatcher(
            sites,
            DispatchConfig(
                horizon=horizon,
                allow_export=config.get("allow_export", True),
            ),
        )

        def check(step, decision):
            cold = rebuild_window(dispatcher)
            # Warm and cold land on the same optimum up to HiGHS's own
            # optimality tolerances (~1e-7): on isolated near-degenerate
            # windows the warm-started simplex may stop at a vertex whose
            # objective differs by ~1e-7 absolute, without propagating to
            # later steps (the cold oracle itself is bit-reproducible).
            assert decision.objective == pytest.approx(cold, rel=1e-7, abs=1e-5), step

        replay(dispatcher, sites, demand, production, steps, horizon, check=check)
        # The acceptance criterion: the horizon slide never loads cold.
        assert dispatcher.stats["cold_loads"] == 1
        assert dispatcher.stats["slides"] == steps - 1
        assert dispatcher.stats["lp_solves"] == steps
        assert dispatcher.stats["warm_solves"] == steps - 1


    def test_start_after_a_finished_week_solves_cold(self):
        steps, horizon = 12, 6
        sites = two_sites(steps + horizon)
        demand = np.asarray(
            TrafficModel(seed=3).synthesize(steps + horizon, total_capacity_kw=1000.0).demand_kw
        )
        production = np.stack([site.production_kw for site in sites])
        decisions = []
        dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=horizon))
        replay(
            dispatcher, sites, demand, production, steps, horizon,
            check=lambda step, decision: decisions.append(decision),
        )
        warm_solves = dispatcher.stats["warm_solves"]
        assert dispatcher._model.basis_snapshot() is not None
        # The first window again, on the handle that just finished the week:
        # a cold load, so the very same simplex path as the first start.
        replay(
            dispatcher, sites, demand, production, 1, horizon,
            check=lambda step, decision: decisions.append(decision),
        )
        assert dispatcher.stats["warm_solves"] == warm_solves
        assert dispatcher.stats["cold_loads"] == 2
        assert decisions[0].iterations > 0
        assert decisions[-1].iterations == decisions[0].iterations
        assert decisions[-1].objective == decisions[0].objective


    def test_advance_hands_back_the_carried_basis_unchanged(self):
        steps, horizon = 8, 4
        sites = two_sites(steps + horizon)
        demand = np.asarray(
            TrafficModel(seed=3).synthesize(steps + horizon, total_capacity_kw=1000.0).demand_kw
        )
        production = np.stack([site.production_kw for site in sites])
        dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=horizon))
        model = dispatcher._model
        installed, carried = [], []
        solve = model.solve

        def spy_solve(options):
            installed.append(model.basis_snapshot())
            return solve(options)

        model.solve = spy_solve
        replay(
            dispatcher, sites, demand, production, steps, horizon,
            check=lambda step, decision: carried.append(model.basis_snapshot()),
        )
        assert installed[0] is None
        # Each slide solves with the very basis object the last solve left.
        assert all(now is before for now, before in zip(installed[1:], carried))


class TestRingWraps:
    def test_wrap_with_cold_loads_away_from_head_zero(self):
        """A replay over two laps of the ring with a solve failure at head 3,
        a site outage over heads 4, 5 and 0, and a solve failure at head 2."""
        steps, horizon = 14, 6
        needed = steps + horizon
        sites = two_sites(needed)
        demand = np.asarray(TrafficModel(seed=3).synthesize(needed, total_capacity_kw=1000.0).demand_kw)
        production = np.stack([site.production_kw for site in sites])
        capacities = np.array([site.capacity_kw for site in sites])
        dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=horizon))
        dispatcher.inject_solve_failures((3, 11))

        def faults(step):
            return (capacities * np.array([0.0, 1.0]) if 7 <= step <= 9 else None), 1.0

        model = dispatcher._model
        cleared = {"last": False}
        cold_heads, heads = [], []
        clear_basis, load, solve = model.clear_basis, model.load, model.solve

        def spy_clear_basis():
            cleared["last"] = True
            clear_basis()

        def spy_load(row_form):
            if cleared["last"]:  # a load straight after a clear is a cold load
                cold_heads.append(dispatcher._head)
                assert_row_forms_identical(row_form, reference_row_form(dispatcher, head=0))
            cleared["last"] = False
            load(row_form)

        def spy_solve(options):
            cleared["last"] = False
            heads.append(dispatcher._head)
            return solve(options)

        model.clear_basis, model.load, model.solve = spy_clear_basis, spy_load, spy_solve

        def check(step, decision):
            cold = rebuild_window(dispatcher)
            assert decision.objective == pytest.approx(cold, rel=1e-7, abs=1e-5), step

        replay(dispatcher, sites, demand, production, steps, horizon, check=check, faults=faults)
        assert dispatcher.stats["cold_loads"] == 3
        assert cold_heads == [0, 0, 0]
        assert heads == [0, 1, 2, 0, 1, 2, 3, 4, 5, 0, 1, 0, 1, 2]
        assert len(dispatcher._templates) <= horizon


class TestEveryCaseMatchesReference:
    @pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
    def test_window_objectives_match_reference(self, case):
        """Tiered, faulted and failure-injected replays land on the cold optimum."""
        _, config_kwargs, site_kwargs, setup = case

        def check(dispatcher, step, decision):
            if not decision.degraded:
                cold = rebuild_window(dispatcher)
                assert decision.objective == pytest.approx(cold, rel=1e-7, abs=1e-5), step

        dispatcher, decisions = replay_case(config_kwargs, site_kwargs, setup, check=check)
        degraded = sum(decision.degraded for decision in decisions)
        assert degraded == dispatcher.stats["greedy_fallback_steps"]
        assert degraded == len(setup.get("outages", ()))

    #: Steps whose window solves cold: the first load, every step the ladder
    #: reloads (an injected failure or outage) and the step after an outage,
    #: which loads with no carried basis.
    COLD_STEPS = {
        "solve-failures": (0, 2, 5),
        "solver-outages": (0, 3, 4, 5),
    }

    @pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
    def test_warm_solves_count_only_carried_bases(self, case):
        name, config_kwargs, site_kwargs, setup = case
        warm_steps = []

        def check(dispatcher, step, decision):
            if dispatcher.stats["warm_solves"] > len(warm_steps):
                warm_steps.append(step)

        dispatcher, decisions = replay_case(config_kwargs, site_kwargs, setup, check=check)
        cold = self.COLD_STEPS.get(name, (0,))
        assert warm_steps == [step for step in range(len(decisions)) if step not in cold]
        assert dispatcher.stats["warm_solves"] == len(decisions) - len(cold)


class TestDispatchSemantics:
    def test_migration_is_positive_part_of_load_shed(self):
        steps, horizon = 8, 6
        needed = steps + horizon
        sites = two_sites(needed)
        trace = TrafficModel(seed=1).synthesize(needed, total_capacity_kw=1000.0)
        demand = np.asarray(trace.demand_kw)
        production = np.stack([site.production_kw for site in sites])
        dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=horizon))
        capacities = np.array([site.capacity_kw for site in sites])
        previous = {"load": np.minimum(np.array([0.6, 0.4]) * demand[0], capacities)}

        def check(step, decision):
            shed = np.maximum(0.0, previous["load"] - decision.compute_kw)
            np.testing.assert_allclose(decision.migrate_kw, shed, atol=1e-6)
            previous["load"] = decision.compute_kw.copy()

        replay(dispatcher, sites, demand, production, steps, horizon, check=check)

    def test_wan_budget_caps_moved_load(self):
        steps, horizon = 10, 6
        needed = steps + horizon
        sites = two_sites(needed)
        trace = TrafficModel(seed=2).synthesize(needed, total_capacity_kw=1000.0)
        demand = np.asarray(trace.demand_kw)
        production = np.stack([site.production_kw for site in sites])
        budget = 25.0
        dispatcher = RollingDispatcher(
            sites, DispatchConfig(horizon=horizon, wan_move_kw=budget)
        )

        def check(step, decision):
            assert decision.moved_kw <= budget + 1e-6

        replay(dispatcher, sites, demand, production, steps, horizon, check=check)

    def test_unserved_slack_absorbs_overload(self):
        steps, horizon = 4, 4
        needed = steps + horizon
        sites = two_sites(needed, capacity_kw=100.0)  # 200 kW total service
        demand = np.full(needed, 500.0)            # far beyond capacity
        production = np.stack([site.production_kw for site in sites])
        dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=horizon))
        unserved = []
        replay(
            dispatcher, sites, demand, production, steps, horizon,
            check=lambda step, decision: unserved.append(decision.unserved_kw),
        )
        assert min(unserved) >= 300.0 - 1e-6  # demand - capacity

    def test_battery_level_respects_capacity_and_dynamics(self):
        steps, horizon = 12, 6
        needed = steps + horizon
        sites = two_sites(needed, battery_kwh=50.0)
        trace = TrafficModel(seed=7).synthesize(needed, total_capacity_kw=1000.0)
        demand = np.asarray(trace.demand_kw)
        production = np.stack([site.production_kw for site in sites])
        config = DispatchConfig(horizon=horizon, allow_export=False)
        dispatcher = RollingDispatcher(sites, config)
        state = {"level": np.zeros(2)}

        def check(step, decision):
            assert np.all(decision.level_kwh <= 50.0 + 1e-6)
            expected = (
                state["level"]
                + config.battery_efficiency * decision.charge_kw * config.step_hours
                - decision.discharge_kw * config.step_hours
            )
            np.testing.assert_allclose(decision.level_kwh, expected, atol=1e-6)
            state["level"] = decision.level_kwh.copy()

        replay(dispatcher, sites, demand, production, steps, horizon, check=check)

    def test_advance_before_start_raises(self):
        sites = two_sites(10)
        dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=4))
        with pytest.raises(RuntimeError):
            dispatcher.advance(np.zeros(2), np.zeros(2), np.zeros(4), np.zeros((2, 4)))

    def test_window_shape_validation(self):
        sites = two_sites(10)
        dispatcher = RollingDispatcher(sites, DispatchConfig(horizon=4))
        with pytest.raises(ValueError):
            dispatcher.start(0, np.zeros(2), np.zeros(2), np.zeros(3), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            dispatcher.start(0, np.zeros(1), np.zeros(2), np.zeros(4), np.zeros((2, 4)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DispatchConfig(horizon=1)
        with pytest.raises(ValueError):
            DispatchConfig(step_hours=0.0)
        with pytest.raises(ValueError):
            DispatchConfig(export_credit=1.5)
        with pytest.raises(ValueError):
            DispatchConfig(unserved_penalty=0.0)
