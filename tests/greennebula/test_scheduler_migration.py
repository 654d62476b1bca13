"""Tests for the datacenter model, predictor, migration planner and scheduler."""

import numpy as np
import pytest

from repro.greennebula import (
    GreenDatacenter,
    GreenEnergyPredictor,
    GreenNebulaScheduler,
    MigrationPlanner,
    MigrationRequest,
    VirtualMachine,
    WANLink,
)
from repro.lpsolver.validate import row_form_violations
from repro.simulation import VMSpec

from lp_oracles import csc_matrix
from row_collector import RowCollector


@pytest.fixture(scope="module")
def three_dcs(anchor_profiles):
    """Three emulation-scale datacenters mirroring Table III's locations."""
    fleet_kw = 9 * 0.03
    names = ["Mexico City, Mexico", "Andersen, Guam", "Harare, Zimbabwe"]
    dcs = []
    for name in names:
        dc = GreenDatacenter(
            name=name,
            profile=anchor_profiles[name],
            it_capacity_kw=fleet_kw * 1.5,
            solar_kw=fleet_kw * 7.0,
            wind_kw=0.0,
        )
        dc.provision_hosts(4)
        dcs.append(dc)
    return dcs


def deploy_vms(dc, count, prefix="vm"):
    vms = []
    for index in range(count):
        vm = VirtualMachine(spec=VMSpec(name=f"{prefix}-{index}"))
        dc.manager.deploy(vm)
        vms.append(vm)
    return vms


class TestGreenDatacenter:
    def test_validation(self, anchor_profiles):
        with pytest.raises(ValueError):
            GreenDatacenter(name="bad", profile=anchor_profiles["Nairobi, Kenya"], it_capacity_kw=0.0)
        with pytest.raises(ValueError):
            GreenDatacenter(
                name="bad", profile=anchor_profiles["Nairobi, Kenya"], it_capacity_kw=1.0, solar_kw=-1.0
            )

    def test_green_power_scales_with_installed_capacity(self, anchor_profiles):
        profile = anchor_profiles["Harare, Zimbabwe"]
        small = GreenDatacenter(name="s", profile=profile, it_capacity_kw=1.0, solar_kw=1.0)
        large = GreenDatacenter(name="l", profile=profile, it_capacity_kw=1.0, solar_kw=10.0)
        hours = np.arange(24.0)
        small_energy = sum(small.green_power_kw(h) for h in hours)
        large_energy = sum(large.green_power_kw(h) for h in hours)
        assert large_energy == pytest.approx(10.0 * small_energy, rel=1e-9)
        assert large_energy > 0

    def test_epoch_index_wraps(self, anchor_profiles):
        profile = anchor_profiles["Nairobi, Kenya"]
        dc = GreenDatacenter(name="n", profile=profile, it_capacity_kw=1.0)
        total_hours = profile.epochs.num_epochs * profile.epochs.hours_per_epoch
        assert dc.epoch_index(0.0) == dc.epoch_index(float(total_hours))

    def test_forecast_length_and_positivity(self, three_dcs):
        forecast = three_dcs[0].green_power_forecast_kw(0.0, 48)
        assert forecast.shape == (48,)
        assert np.all(forecast >= 0.0)
        with pytest.raises(ValueError):
            three_dcs[0].green_power_forecast_kw(0.0, 0)

    def test_power_accounting(self, anchor_profiles):
        dc = GreenDatacenter(
            name="x", profile=anchor_profiles["Nairobi, Kenya"], it_capacity_kw=1.0
        )
        dc.provision_hosts(2)
        deploy_vms(dc, 3)
        assert dc.vm_power_kw == pytest.approx(0.09)
        assert dc.headroom_kw == pytest.approx(1.0 - 0.09)
        assert dc.facility_power_kw(0.0) >= dc.it_power_kw
        assert dc.brown_power_kw(0.0) >= 0.0


class TestGreenEnergyPredictor:
    def test_perfect_prediction_matches_actual(self, three_dcs):
        predictor = GreenEnergyPredictor(horizon_hours=24, noise_std=0.0)
        predicted = predictor.predict(three_dcs[0], 0.0)
        actual = three_dcs[0].green_power_forecast_kw(0.0, 24)
        np.testing.assert_allclose(predicted, actual)

    def test_noisy_prediction_stays_nonnegative(self, three_dcs):
        predictor = GreenEnergyPredictor(horizon_hours=24, noise_std=0.5, seed=1)
        predicted = predictor.predict(three_dcs[0], 12.0)
        assert np.all(predicted >= 0.0)

    def test_predict_all_keys(self, three_dcs):
        predictor = GreenEnergyPredictor(horizon_hours=12)
        predictions = predictor.predict_all(three_dcs, 0.0)
        assert set(predictions) == {dc.name for dc in three_dcs}

    def test_validation(self):
        with pytest.raises(ValueError):
            GreenEnergyPredictor(horizon_hours=0)
        with pytest.raises(ValueError):
            GreenEnergyPredictor(noise_std=-0.1)

    def test_noise_independent_of_call_order(self, three_dcs):
        """Predictions are a pure function of (seed, datacenter, hour).

        The stateful-RNG predictor gave different noise depending on how many
        forecasts were issued before; the rebased one must not, so emulation
        runs reproduce across processes and scheduler cadences.
        """
        direct = GreenEnergyPredictor(horizon_hours=24, noise_std=0.4, seed=3)
        prediction = direct.predict(three_dcs[0], 12.0)
        warmed = GreenEnergyPredictor(horizon_hours=24, noise_std=0.4, seed=3)
        for hour in (0.0, 5.0, 48.0):  # unrelated earlier forecasts
            warmed.predict_all(three_dcs, hour)
        np.testing.assert_array_equal(warmed.predict(three_dcs[0], 12.0), prediction)

    def test_overlapping_windows_share_noise(self, three_dcs):
        """Re-forecasting an hour yields the same noisy value it had before."""
        predictor = GreenEnergyPredictor(horizon_hours=24, noise_std=0.4, seed=3)
        first = predictor.predict(three_dcs[0], 0.0)
        shifted = predictor.predict(three_dcs[0], 6.0)
        np.testing.assert_array_equal(shifted[:18], first[6:])

    def test_forecast_error_knob_aliases_noise(self, three_dcs):
        via_error = GreenEnergyPredictor(horizon_hours=12, forecast_error=0.3, seed=1)
        via_std = GreenEnergyPredictor(horizon_hours=12, noise_std=0.3, seed=1)
        np.testing.assert_array_equal(
            via_error.predict(three_dcs[0], 3.0), via_std.predict(three_dcs[0], 3.0)
        )


class TestWANLinkAndRequests:
    def test_link_validation(self):
        with pytest.raises(ValueError):
            WANLink("a", "a")
        with pytest.raises(ValueError):
            WANLink("a", "b", bandwidth_mb_per_hour=0.0)

    def test_paper_migration_fits_in_an_hour(self):
        """Section V-B: ~750 MB of memory + dirty disk moves in under one hour."""
        link = WANLink("barcelona", "piscataway")
        assert link.transfer_hours(750.0) <= 1.0

    def test_transfer_time_negative_rejected(self):
        link = WANLink("a", "b")
        with pytest.raises(ValueError):
            link.transfer_hours(-1.0)

    def test_request_validation(self):
        with pytest.raises(ValueError):
            MigrationRequest("vm", "a", "a", 10.0, 0.03)
        with pytest.raises(ValueError):
            MigrationRequest("vm", "a", "b", -1.0, 0.03)


class TestMigrationPlanner:
    def test_plan_moves_power_from_donor_to_receiver(self, three_dcs):
        donor, receiver, third = three_dcs
        vms = deploy_vms(donor, 6, prefix="plan")
        try:
            targets = {
                donor.name: donor.vm_power_kw - 3 * 0.03,
                receiver.name: receiver.vm_power_kw + 3 * 0.03,
                third.name: third.vm_power_kw,
            }
            planner = MigrationPlanner()
            migrations = planner.plan(three_dcs, targets)
            assert len(migrations) == 3
            assert all(m.source == donor.name and m.destination == receiver.name for m in migrations)
            assert MigrationPlanner.migrated_power_kw(migrations) == pytest.approx(0.09)
        finally:
            for vm in vms:
                donor.manager.undeploy(vm.name)

    def test_smallest_footprint_vms_move_first(self, three_dcs):
        donor, receiver, third = three_dcs
        small = VirtualMachine(spec=VMSpec(name="small", memory_mb=256.0))
        big = VirtualMachine(spec=VMSpec(name="big", memory_mb=2048.0))
        donor.manager.deploy(big)
        donor.manager.deploy(small)
        try:
            targets = {donor.name: donor.vm_power_kw - 0.03, receiver.name: receiver.vm_power_kw + 0.03}
            migrations = MigrationPlanner().plan(three_dcs, targets)
            assert migrations[0].vm_name == "small"
        finally:
            donor.manager.undeploy("small")
            donor.manager.undeploy("big")

    def test_unknown_target_rejected(self, three_dcs):
        with pytest.raises(KeyError):
            MigrationPlanner().plan(three_dcs, {"nowhere": 1.0})

    def test_no_migration_when_targets_match_current(self, three_dcs):
        targets = {dc.name: dc.vm_power_kw for dc in three_dcs}
        assert MigrationPlanner().plan(three_dcs, targets) == []

    def test_default_link_created_on_demand(self):
        planner = MigrationPlanner(default_bandwidth_mb_per_hour=1000.0)
        link = planner.link("a", "b")
        assert link.bandwidth_mb_per_hour == 1000.0
        assert planner.link("a", "b") is link

    def test_explicit_link_is_bidirectional(self):
        planner = MigrationPlanner(links=[WANLink("a", "b", bandwidth_mb_per_hour=100.0)])
        assert planner.link("b", "a").bandwidth_mb_per_hour == 100.0


class TestGreenNebulaScheduler:
    def test_schedule_returns_targets_for_all_datacenters(self, three_dcs):
        donor = three_dcs[2]
        vms = deploy_vms(donor, 9, prefix="sched")
        try:
            scheduler = GreenNebulaScheduler(three_dcs, horizon_hours=24)
            decision = scheduler.schedule(hour_of_year=0.0)
            assert set(decision.target_power_kw) == {dc.name for dc in three_dcs}
            total_target = sum(decision.target_power_kw.values())
            assert total_target >= donor.vm_power_kw - 1e-6
            assert decision.solve_time_seconds > 0.0
            assert decision.predicted_brown_kwh >= 0.0
        finally:
            for vm in vms:
                donor.manager.undeploy(vm.name)

    def test_scheduler_moves_load_toward_green(self, three_dcs):
        """With abundant solar at one site and none at another, load follows the sun."""
        fleet_kw = 9 * 0.03
        sunny, dark = three_dcs[0], three_dcs[2]
        # Temporarily strip the dark site of its solar plant.
        original_solar = dark.solar_kw
        dark.solar_kw = 0.0
        vms = deploy_vms(dark, 9, prefix="follow")
        try:
            scheduler = GreenNebulaScheduler(three_dcs, horizon_hours=24)
            noon = 12.0  # UTC noon: the Americas site has daylight within the window
            decision = scheduler.schedule(hour_of_year=noon)
            assert decision.target_power_kw[dark.name] < fleet_kw - 1e-6
            assert decision.migrations
        finally:
            dark.solar_kw = original_solar
            for vm in vms:
                dark.manager.undeploy(vm.name)

    def test_solve_time_well_under_a_second(self, three_dcs):
        """Section V-C reports sub-second scheduling; our LP should match."""
        scheduler = GreenNebulaScheduler(three_dcs, horizon_hours=48)
        decision = scheduler.schedule(hour_of_year=0.0)
        assert decision.solve_time_seconds < 2.0

    def test_validation(self, three_dcs):
        with pytest.raises(ValueError):
            GreenNebulaScheduler([], horizon_hours=24)
        with pytest.raises(ValueError):
            GreenNebulaScheduler(three_dcs, horizon_hours=0)

    def test_build_model_checks_forecast_length(self, three_dcs):
        scheduler = GreenNebulaScheduler(three_dcs, horizon_hours=24)
        bad_forecasts = {dc.name: np.zeros(4) for dc in three_dcs}
        with pytest.raises(ValueError):
            scheduler.build_model(0.0, 0.27, {dc.name: 0.0 for dc in three_dcs}, bad_forecasts)

    @pytest.mark.parametrize("horizon", [1, 6, 48])
    def test_window_lp_is_structurally_sound(self, three_dcs, horizon):
        """Finite data, consistent CSC arrays, no duplicate, empty or orphan entries."""
        scheduler = GreenNebulaScheduler(three_dcs, horizon_hours=horizon)
        forecasts = scheduler.predictor.predict_all(three_dcs, 12.0)
        row_form, compute, migrate = scheduler.build_model(
            12.0, 0.27, {dc.name: 0.1 for dc in three_dcs}, forecasts
        )
        assert row_form_violations(row_form) == []
        # Per datacenter: compute, migrate, brown columns and three row families;
        # then one demand row per hour.
        assert row_form.shape == (3 * horizon * 3 + horizon, 3 * horizon * 3)
        assert all(len(compute[dc.name]) == len(migrate[dc.name]) == horizon for dc in three_dcs)

    def test_window_lp_matches_a_row_by_row_build(self, three_dcs):
        """The vectorized window LP equals the same LP written one row at a time."""
        horizon, hour, total_load = 6, 30.0, 0.27
        scheduler = GreenNebulaScheduler(three_dcs, horizon_hours=horizon)
        current = {dc.name: 0.05 * (index + 1) for index, dc in enumerate(three_dcs)}
        forecasts = scheduler.predictor.predict_all(three_dcs, hour)
        row_form, compute, migrate = scheduler.build_model(hour, total_load, current, forecasts)

        rows = RowCollector()
        columns = {
            dc.name: [
                [rows.add_variable(upper=upper) for _ in range(horizon)]
                for upper in (dc.it_capacity_kw, np.inf, np.inf)  # compute, migrate, brown
            ]
            for dc in three_dcs
        }
        for dc in three_dcs:
            c, m, b = columns[dc.name]
            pue = [dc.pue(hour + t) for t in range(horizon)]
            for t in range(horizon):
                # migrate[t] + compute[t] - compute[t-1] >= 0; compute[-1] is today's load.
                previous = [(c[t - 1], -1.0)] if t else []
                rhs = current[dc.name] if t == 0 else 0.0
                rows.add_row([(m[t], 1.0), (c[t], 1.0)] + previous, ">=", rhs)
            for t in range(horizon):
                rows.add_row([(c[t], 1.0), (m[t], 1.0)], "<=", dc.it_capacity_kw)
            for t in range(horizon):
                rows.add_row(
                    [(b[t], 1.0), (c[t], -pue[t]), (m[t], -pue[t])], ">=", -forecasts[dc.name][t]
                )
            rows.add_objective([(x, 1.0) for x in b])
            rows.add_objective([(x, scheduler.migration_penalty_kwh) for x in m])
        for t in range(horizon):
            rows.add_row([(columns[dc.name][0][t], 1.0) for dc in three_dcs], ">=", total_load)
        reference = rows.row_form()

        np.testing.assert_array_equal(
            csc_matrix(row_form).toarray(), csc_matrix(reference).toarray()
        )
        for field in ("row_lower", "row_upper", "lower", "upper", "cost", "integrality"):
            np.testing.assert_array_equal(getattr(row_form, field), getattr(reference, field))
        for dc in three_dcs:
            assert list(compute[dc.name]) == columns[dc.name][0]
            assert list(migrate[dc.name]) == columns[dc.name][1]
