"""Tests for epoch grids, series calibration and location profiles."""

import numpy as np
import pytest

from repro.energy import (
    EpochGrid,
    LocationProfile,
    RefinedEpochGrid,
    calibrate_series,
    capacity_factor,
)
from repro.energy.capacity_factor import annual_energy_kwh


class TestCalibrateSeries:
    def test_hits_target_mean(self):
        series = np.array([0.0, 0.2, 0.4, 0.1])
        calibrated = calibrate_series(series, 0.3)
        assert float(calibrated.mean()) == pytest.approx(0.3, abs=1e-3)

    def test_preserves_zeros_shape(self):
        series = np.array([0.0, 0.5, 1.0, 0.0])
        calibrated = calibrate_series(series, 0.2)
        assert calibrated[0] == 0.0 and calibrated[3] == 0.0

    def test_respects_upper_bound(self):
        series = np.array([0.1, 0.9, 0.95, 0.2])
        calibrated = calibrate_series(series, 0.6)
        assert np.all(calibrated <= 1.0 + 1e-12)
        assert float(calibrated.mean()) == pytest.approx(0.6, abs=5e-3)

    def test_zero_target(self):
        calibrated = calibrate_series(np.array([0.3, 0.6]), 0.0)
        assert np.all(calibrated == 0.0)

    def test_all_zero_series_becomes_flat(self):
        calibrated = calibrate_series(np.zeros(4), 0.25)
        assert np.all(calibrated == pytest.approx(0.25))

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            calibrate_series(np.array([0.1]), 1.5)


class TestCapacityFactor:
    def test_simple_mean(self):
        assert capacity_factor(np.array([0.0, 0.5, 1.0])) == pytest.approx(0.5)

    def test_weighted_mean(self):
        cf = capacity_factor(np.array([0.0, 1.0]), weights=np.array([1.0, 3.0]))
        assert cf == pytest.approx(0.75)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            capacity_factor(np.array([1.5]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            capacity_factor(np.array([]))

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            capacity_factor(np.array([0.5, 0.5]), weights=np.array([1.0]))

    def test_annual_energy(self):
        energy = annual_energy_kwh(100.0, np.array([0.5, 0.5]), hours_per_step=2.0)
        assert energy == pytest.approx(200.0)

    def test_annual_energy_with_weights(self):
        energy = annual_energy_kwh(10.0, np.array([0.5, 1.0]), weights=np.array([10.0, 20.0]))
        assert energy == pytest.approx(10.0 * (0.5 * 10 + 1.0 * 20))

    def test_annual_energy_negative_capacity(self):
        with pytest.raises(ValueError):
            annual_energy_kwh(-1.0, np.array([0.5]))


class TestEpochGrid:
    def test_from_seasons_default(self):
        grid = EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=3)
        assert grid.num_epochs == 4 * 8
        assert grid.epochs_per_day == 8
        assert grid.day_weight == pytest.approx(365 / 4)

    def test_weights_sum_to_year(self):
        grid = EpochGrid.from_seasons(days_per_season=2, hours_per_epoch=2)
        assert grid.epoch_weights_hours().sum() == pytest.approx(8760.0)

    def test_invalid_hours_per_epoch(self):
        with pytest.raises(ValueError):
            EpochGrid(representative_days=(1,), hours_per_epoch=5)

    def test_invalid_day(self):
        with pytest.raises(ValueError):
            EpochGrid(representative_days=(400,), hours_per_epoch=1)

    def test_empty_days(self):
        with pytest.raises(ValueError):
            EpochGrid(representative_days=(), hours_per_epoch=1)

    def test_aggregate_means_hours(self):
        grid = EpochGrid(representative_days=(0,), hours_per_epoch=6)
        hourly = np.arange(8760, dtype=float)
        aggregated = grid.aggregate(hourly)
        assert aggregated.shape == (4,)
        assert aggregated[0] == pytest.approx(np.mean(np.arange(6)))

    def test_hour_indices_shape(self):
        grid = EpochGrid(representative_days=(0, 100), hours_per_epoch=4)
        indices = grid.hour_indices()
        assert indices.shape == (12, 4)
        assert indices[0, 0] == 0
        assert indices[6, 0] == 100 * 24

    def test_hour_layout_is_flattened_hour_indices(self):
        grid = EpochGrid(representative_days=(200, 3), hours_per_epoch=8)
        assert np.array_equal(grid.hour_layout, grid.hour_indices().ravel())
        assert grid.hour_layout is grid.hour_layout
        with pytest.raises(ValueError):
            grid.hour_layout[0] = 1

    @pytest.mark.parametrize("hours_per_epoch", [1, 3, 8, 12, 24])
    def test_aggregate_bitwise_equals_per_epoch_mean(self, hours_per_epoch):
        """One aggregation path, rounding exactly like a 1-D mean per epoch."""
        hourly = np.random.default_rng(hours_per_epoch).lognormal(size=8760) * 1e3
        grid = EpochGrid(representative_days=(364, 0, 180), hours_per_epoch=hours_per_epoch)
        refined = RefinedEpochGrid(
            representative_days=(364, 0, 180),
            day_patterns=((12, 1, 1, 3, 7), (24,), (1,) * 8 + (8, 8)),
        )
        for each in (grid, refined):
            expected = [hourly[np.asarray(hours)].mean() for hours in each.hour_indices()]
            assert np.array_equal(each.aggregate(hourly), expected)
            assert np.array_equal(each.epoch_means(hourly[each.hour_layout]), expected)


class TestProfileBuilder:
    def test_build_all_shares_grid(self, profile_builder, epoch_grid, small_catalog):
        profiles = profile_builder.build_all(epoch_grid, names=small_catalog.names[:5])
        assert len(profiles) == 5
        for profile in profiles:
            assert profile.epochs is epoch_grid
            assert profile.solar_alpha.shape == (epoch_grid.num_epochs,)

    def test_profiles_cached(self, profile_builder, epoch_grid, small_catalog):
        location = small_catalog.get("Nairobi, Kenya")
        assert profile_builder.build(location, epoch_grid) is profile_builder.build(
            location, epoch_grid
        )

    def test_anchor_calibration_applied(self, anchor_profiles):
        mount_washington = anchor_profiles["Mount Washington, NH, USA"]
        assert mount_washington.wind_capacity_factor == pytest.approx(0.556, abs=0.01)
        assert mount_washington.max_pue == pytest.approx(1.06, abs=0.01)
        harare = anchor_profiles["Harare, Zimbabwe"]
        assert harare.solar_capacity_factor == pytest.approx(0.224, abs=0.01)

    def test_anchor_prices_carried(self, anchor_profiles):
        mount_washington = anchor_profiles["Mount Washington, NH, USA"]
        assert mount_washington.land_price_per_m2 == pytest.approx(947.0)
        assert mount_washington.energy_price_per_kwh == pytest.approx(0.126)
        assert mount_washington.distance_power_km == pytest.approx(345.0)

    def test_series_bounds(self, all_profiles):
        for profile in all_profiles:
            assert np.all(profile.solar_alpha >= 0.0) and np.all(profile.solar_alpha <= 1.0)
            assert np.all(profile.wind_beta >= 0.0) and np.all(profile.wind_beta <= 1.0)
            assert np.all(profile.pue >= 1.0)

    def test_capacity_factor_distribution_matches_paper_range(self, all_profiles):
        solar = [p.solar_capacity_factor for p in all_profiles]
        wind = [p.wind_capacity_factor for p in all_profiles]
        # Fig. 3: solar capacity factors are mostly 5-23 %, wind reaches ~55 %.
        assert 0.03 <= min(solar) and max(solar) <= 0.30
        assert max(wind) >= 0.40
        assert min(wind) < 0.15

    def test_utc_alignment_offsets_solar_peaks(self, profile_builder, hourly_grid, small_catalog):
        """Locations far apart in longitude peak at different UTC epochs."""
        american = profile_builder.build(small_catalog.get("Mexico City, Mexico"), hourly_grid)
        asian = profile_builder.build(small_catalog.get("Andersen, Guam"), hourly_grid)
        day_american = american.solar_alpha[:24]
        day_asian = asian.solar_alpha[:24]
        peak_american = int(np.argmax(day_american))
        peak_asian = int(np.argmax(day_asian))
        separation = min((peak_american - peak_asian) % 24, (peak_asian - peak_american) % 24)
        assert separation >= 6  # roughly half a world apart

    def test_profile_validation(self, anchor_profiles, epoch_grid):
        good = anchor_profiles["Nairobi, Kenya"]
        with pytest.raises(ValueError):
            LocationProfile(
                location=good.location,
                epochs=epoch_grid,
                solar_alpha=np.zeros(3),
                wind_beta=np.zeros(epoch_grid.num_epochs),
                pue=np.ones(epoch_grid.num_epochs),
                land_price_per_m2=10.0,
                energy_price_per_kwh=0.1,
                distance_power_km=10.0,
                distance_network_km=10.0,
                near_plant_capacity_kw=1e6,
            )

    def test_profile_pue_below_one_rejected(self, anchor_profiles, epoch_grid):
        good = anchor_profiles["Nairobi, Kenya"]
        with pytest.raises(ValueError):
            LocationProfile(
                location=good.location,
                epochs=epoch_grid,
                solar_alpha=np.zeros(epoch_grid.num_epochs),
                wind_beta=np.zeros(epoch_grid.num_epochs),
                pue=np.full(epoch_grid.num_epochs, 0.9),
                land_price_per_m2=10.0,
                energy_price_per_kwh=0.1,
                distance_power_km=10.0,
                distance_network_km=10.0,
                near_plant_capacity_kw=1e6,
            )
