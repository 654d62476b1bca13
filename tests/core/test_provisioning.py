"""Tests for the fixed-siting provisioning LP (the heart of the heuristic)."""

import numpy as np
import pytest

from repro.core import (
    EnergySources,
    SitingProblem,
    StorageMode,
    solve_provisioning,
)
from repro.core.provisioning import ProvisioningCompiler, cheapest_size_classes


@pytest.fixture(scope="module")
def siting():
    return {"Mount Washington, NH, USA": "large", "Grissom, IN, USA": "large"}


@pytest.fixture(scope="module")
def solved(two_site_problem, siting):
    return solve_provisioning(two_site_problem, siting)


class TestFeasibilityAndStructure:
    def test_solves_to_feasible_plan(self, solved):
        assert solved.feasible
        assert solved.plan is not None
        assert solved.monthly_cost > 0

    def test_plan_has_both_datacenters(self, solved, siting):
        assert {dc.name for dc in solved.plan.datacenters} == set(siting)

    def test_unknown_location_rejected(self, two_site_problem):
        with pytest.raises(KeyError):
            solve_provisioning(two_site_problem, {"Atlantis": "small"})

    def test_empty_siting_rejected(self, two_site_problem):
        with pytest.raises(ValueError):
            solve_provisioning(two_site_problem, {})

    def test_bad_size_class_rejected(self, two_site_problem):
        with pytest.raises(ValueError):
            solve_provisioning(two_site_problem, {"Grissom, IN, USA": "medium"})


class TestPaperConstraints:
    def test_total_capacity_met_every_epoch(self, solved, two_site_problem):
        total = np.zeros(two_site_problem.num_epochs)
        for dc in solved.plan.datacenters:
            total += dc.compute_power_kw
        assert np.all(total >= two_site_problem.params.total_capacity_kw - 1e-3)

    def test_capacity_covers_compute_plus_migration(self, solved):
        for dc in solved.plan.datacenters:
            assert np.all(dc.compute_power_kw + dc.migrate_power_kw <= dc.capacity_kw + 1e-3)

    def test_green_fraction_requirement_met(self, solved, two_site_problem):
        assert solved.plan.green_fraction >= two_site_problem.params.min_green_fraction - 1e-3

    def test_green_delivery_never_exceeds_demand(self, solved):
        for dc in solved.plan.datacenters:
            delivered = dc.green_direct_kw + dc.battery_discharge_kw + dc.net_discharge_kw
            assert np.all(delivered <= dc.power_demand_kw + 1e-3)

    def test_green_allocation_never_exceeds_production(self, solved):
        for dc in solved.plan.datacenters:
            production = (
                dc.profile.solar_alpha * dc.solar_kw + dc.profile.wind_beta * dc.wind_kw
            )
            allocated = dc.green_direct_kw + dc.battery_charge_kw + dc.net_charge_kw
            assert np.all(allocated <= production + 1e-3)

    def test_power_balance_holds(self, solved):
        for dc in solved.plan.datacenters:
            supply = (
                dc.green_direct_kw
                + dc.battery_discharge_kw
                + dc.net_discharge_kw
                + dc.brown_power_kw
            )
            assert np.all(supply >= dc.power_demand_kw - 1e-3)

    def test_brown_power_capped_by_near_plant(self, solved, two_site_problem):
        fraction = two_site_problem.params.brown_plant_cap_fraction
        for dc in solved.plan.datacenters:
            cap = fraction * dc.profile.near_plant_capacity_kw
            assert np.all(dc.brown_power_kw <= cap + 1e-3)

    def test_availability_spread_enforced(self, solved, two_site_problem):
        floor = two_site_problem.params.total_capacity_kw / len(solved.plan.datacenters)
        for dc in solved.plan.datacenters:
            assert dc.capacity_kw >= floor - 1e-3

    def test_migration_definition(self, solved):
        """migratePow(t) >= compPow(t-1) - compPow(t), cyclically."""
        for dc in solved.plan.datacenters:
            compute = dc.compute_power_kw
            migrate = dc.migrate_power_kw
            previous = np.roll(compute, 1)
            assert np.all(migrate >= previous - compute - 1e-3)
            assert np.all(migrate >= -1e-9)


class TestStorageModes:
    def test_no_storage_forces_zero_storage_series(self, two_site_problem, siting):
        problem = two_site_problem.with_updates(storage=StorageMode.NONE)
        result = solve_provisioning(problem, siting)
        assert result.feasible
        for dc in result.plan.datacenters:
            assert np.all(dc.net_charge_kw == 0.0)
            assert np.all(dc.battery_charge_kw == 0.0)
            assert dc.battery_kwh == 0.0

    def test_batteries_mode_builds_batteries_when_needed(self, two_site_problem, siting):
        problem = two_site_problem.with_updates(
            params=two_site_problem.params.with_updates(min_green_fraction=1.0),
            storage=StorageMode.BATTERIES,
        )
        result = solve_provisioning(problem, siting)
        assert result.feasible
        assert result.plan.total_battery_kwh > 0
        for dc in result.plan.datacenters:
            assert np.all(dc.net_charge_kw == 0.0)

    def test_net_metering_cheaper_than_no_storage_at_100_percent_green(
        self, two_site_problem, siting
    ):
        hundred = two_site_problem.params.with_updates(min_green_fraction=1.0)
        with_net = solve_provisioning(
            two_site_problem.with_updates(params=hundred, storage=StorageMode.NET_METERING), siting
        )
        without = solve_provisioning(
            two_site_problem.with_updates(params=hundred, storage=StorageMode.NONE), siting
        )
        assert with_net.feasible and without.feasible
        assert with_net.monthly_cost < without.monthly_cost

    def test_battery_level_dynamics_consistent(self, two_site_problem, siting):
        problem = two_site_problem.with_updates(
            params=two_site_problem.params.with_updates(min_green_fraction=1.0),
            storage=StorageMode.BATTERIES,
        )
        result = solve_provisioning(problem, siting)
        epoch_hours = problem.epochs.epoch_hours
        efficiency = problem.params.battery_efficiency
        for dc in result.plan.datacenters:
            # Over the cyclic year the energy stored must equal the energy drawn.
            stored = float(np.sum(efficiency * dc.battery_charge_kw * epoch_hours))
            drawn = float(np.sum(dc.battery_discharge_kw * epoch_hours))
            assert stored == pytest.approx(drawn, rel=1e-4, abs=1e-3)


class TestSourceRestrictions:
    def test_wind_only_builds_no_solar(self, two_site_problem, siting):
        problem = two_site_problem.with_updates(sources=EnergySources.WIND_ONLY)
        result = solve_provisioning(problem, siting)
        assert result.feasible
        assert result.plan.total_solar_kw == 0.0
        assert result.plan.total_wind_kw > 0.0

    def test_solar_only_builds_no_wind(self, two_site_problem, siting):
        problem = two_site_problem.with_updates(sources=EnergySources.SOLAR_ONLY)
        result = solve_provisioning(problem, siting)
        assert result.feasible
        assert result.plan.total_wind_kw == 0.0
        assert result.plan.total_solar_kw > 0.0

    def test_brown_only_when_no_green_required(self, anchor_profiles, params, siting):
        problem = SitingProblem(
            profiles=[
                anchor_profiles["Mount Washington, NH, USA"],
                anchor_profiles["Grissom, IN, USA"],
            ],
            params=params.with_updates(min_green_fraction=0.0, total_capacity_kw=50_000.0),
            sources=EnergySources.NONE,
        )
        result = solve_provisioning(problem, siting)
        assert result.feasible
        assert result.plan.total_solar_kw == 0.0
        assert result.plan.total_wind_kw == 0.0


class TestCostConsistency:
    def test_objective_matches_plan_cost(self, solved):
        """The LP objective and the explicit cost model must agree."""
        assert solved.plan.solver_info["objective"] == pytest.approx(
            solved.plan.total_monthly_cost, rel=1e-4
        )

    def test_small_class_respects_threshold(self, two_site_problem):
        problem = two_site_problem.with_updates(
            params=two_site_problem.params.with_updates(total_capacity_kw=12_000.0)
        )
        result = solve_provisioning(
            problem,
            {"Mount Washington, NH, USA": "small", "Grissom, IN, USA": "small"},
        )
        assert result.feasible
        for dc in result.plan.datacenters:
            assert dc.capacity_kw * dc.profile.max_pue <= problem.params.small_dc_threshold_kw + 1e-3

    def test_higher_green_requirement_costs_more(self, two_site_problem, siting):
        fifty = solve_provisioning(two_site_problem, siting)
        hundred = solve_provisioning(
            two_site_problem.with_updates(
                params=two_site_problem.params.with_updates(min_green_fraction=1.0)
            ),
            siting,
        )
        assert hundred.monthly_cost >= fifty.monthly_cost - 1e-6

    def test_cheapest_size_classes_helper(self, two_site_problem):
        names = [p.name for p in two_site_problem.profiles]
        classes = cheapest_size_classes(two_site_problem, names)
        assert set(classes.values()) == {"large"}
        assert cheapest_size_classes(two_site_problem, []) == {}

    def test_compiled_row_form_dimensions(self, two_site_problem, siting):
        row_form, layouts = ProvisioningCompiler(two_site_problem).compile_row_form(siting)
        num_rows, num_cols = row_form.shape
        assert num_rows > 0
        assert num_cols == sum(layout.num_variables for layout in layouts)
        assert len(row_form.cost) == num_cols and len(row_form.row_lower) == num_rows
        assert [(layout.profile.name, layout.size_class) for layout in layouts] == list(
            siting.items()
        )
        assert [layout.base for layout in layouts] == [0, layouts[0].num_variables]
