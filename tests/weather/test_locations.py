"""Tests for the world location catalogue."""

import tracemalloc

import numpy as np
import pytest

from repro.energy import EpochGrid, ProfileBuilder
from repro.weather import ANCHOR_LOCATIONS, Location, WorldCatalog, build_world_catalog
from repro.weather.locations import LocationOverrides
from repro.weather.synthesis import ClimateProfile
from repro.geo import GeoPoint


class TestLocationDataclass:
    def test_requires_name(self):
        with pytest.raises(ValueError):
            Location(name="", point=GeoPoint(0, 0), climate=ClimateProfile())

    def test_invalid_urbanisation(self):
        with pytest.raises(ValueError):
            Location(
                name="x", point=GeoPoint(0, 0), climate=ClimateProfile(), urbanisation=2.0
            )


class TestAnchorLocations:
    def test_paper_locations_present(self):
        names = {location.name for location in ANCHOR_LOCATIONS}
        for expected in (
            "Kiev, Ukraine",
            "Harare, Zimbabwe",
            "Nairobi, Kenya",
            "Mount Washington, NH, USA",
            "Burke Lakefront, OH, USA",
            "Mexico City, Mexico",
            "Andersen, Guam",
        ):
            assert expected in names

    def test_anchor_capacity_factors_match_table2(self):
        by_name = {location.name: location for location in ANCHOR_LOCATIONS}
        assert by_name["Harare, Zimbabwe"].overrides.solar_capacity_factor == pytest.approx(0.224)
        assert by_name["Nairobi, Kenya"].overrides.solar_capacity_factor == pytest.approx(0.209)
        assert by_name["Mount Washington, NH, USA"].overrides.wind_capacity_factor == pytest.approx(0.556)
        assert by_name["Burke Lakefront, OH, USA"].overrides.wind_capacity_factor == pytest.approx(0.209)

    def test_anchor_prices_match_table2(self):
        by_name = {location.name: location for location in ANCHOR_LOCATIONS}
        assert by_name["Mount Washington, NH, USA"].overrides.land_price_per_m2 == pytest.approx(947.0)
        assert by_name["Mount Washington, NH, USA"].overrides.energy_price_per_kwh == pytest.approx(0.126)
        assert by_name["Burke Lakefront, OH, USA"].overrides.distance_network_km == pytest.approx(3.0)

    def test_section2_capacity_factor_examples(self):
        by_name = {location.name: location for location in ANCHOR_LOCATIONS}
        assert by_name["Berlin, Germany"].overrides.solar_capacity_factor == pytest.approx(0.135)
        assert by_name["Phoenix, AZ, USA"].overrides.solar_capacity_factor == pytest.approx(0.229)
        assert by_name["New York, NY, USA"].overrides.wind_capacity_factor == pytest.approx(0.189)
        assert by_name["Canberra, Australia"].overrides.solar_capacity_factor == pytest.approx(0.202)


class TestBuildWorldCatalog:
    def test_default_count(self):
        catalog = build_world_catalog(num_locations=100, seed=1)
        assert len(catalog) == 100

    def test_full_paper_scale(self):
        catalog = build_world_catalog(num_locations=1373, seed=1)
        assert len(catalog) == 1373

    def test_names_unique(self):
        catalog = build_world_catalog(num_locations=200, seed=2)
        assert len(set(catalog.names)) == 200

    def test_deterministic(self):
        a = build_world_catalog(num_locations=50, seed=9)
        b = build_world_catalog(num_locations=50, seed=9)
        assert a.names == b.names

    def test_includes_anchors_by_default(self):
        catalog = build_world_catalog(num_locations=30, seed=1)
        assert "Kiev, Ukraine" in catalog.names

    def test_anchors_can_be_excluded(self):
        catalog = build_world_catalog(num_locations=30, seed=1, include_anchors=False)
        assert "Kiev, Ukraine" not in catalog.names

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            build_world_catalog(num_locations=0)

    def test_latitude_drives_temperature(self):
        catalog = build_world_catalog(num_locations=300, seed=5, include_anchors=False)
        tropical = [l for l in catalog if abs(l.point.latitude) < 15]
        polarish = [l for l in catalog if abs(l.point.latitude) > 45]
        assert tropical and polarish
        mean_tropical = sum(l.climate.mean_temperature_c for l in tropical) / len(tropical)
        mean_polar = sum(l.climate.mean_temperature_c for l in polarish) / len(polarish)
        assert mean_tropical > mean_polar


class TestWorldCatalog:
    @pytest.fixture(scope="class")
    def catalog(self):
        return build_world_catalog(num_locations=30, seed=3)

    def test_get_and_missing(self, catalog):
        assert catalog.get("Kiev, Ukraine").country == "Ukraine"
        with pytest.raises(KeyError):
            catalog.get("Atlantis")

    def test_subset(self, catalog):
        subset = catalog.subset(["Kiev, Ukraine", "Nairobi, Kenya"])
        assert len(subset) == 2
        assert set(subset.names) == {"Kiev, Ukraine", "Nairobi, Kenya"}

    def test_duplicate_names_rejected(self, catalog):
        location = catalog.get("Kiev, Ukraine")
        with pytest.raises(ValueError):
            WorldCatalog([location, location])

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            WorldCatalog([])

    def test_tmy_repeatable(self, catalog):
        location = catalog.get("Nairobi, Kenya")
        hours = np.array([8759, 0, 17, 17, 4380])
        first = catalog.tmy(location, hours)
        second = catalog.tmy(location, hours)
        assert first.keys() == second.keys()
        for channel in first:
            assert first[channel].shape == (5,)
            assert np.array_equal(first[channel], second[channel])

    def test_profile_build_keeps_no_hourly_weather(self):
        """Profiles of 300 locations leave little behind: no hourly TMY is kept."""
        catalog = build_world_catalog(num_locations=300)
        grid = EpochGrid.from_seasons(days_per_season=1, hours_per_epoch=3)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            profiles = ProfileBuilder(catalog).build_all(grid)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(profiles) == 300
        assert after - before < 8 * 1024 * 1024

    def test_overrides_used_for_anchor_prices(self, catalog):
        mount_washington = catalog.get("Mount Washington, NH, USA")
        assert catalog.land_price_per_m2(mount_washington) == pytest.approx(947.0)
        assert catalog.energy_price_per_kwh(mount_washington) == pytest.approx(0.126)
        assert catalog.distance_to_power_km(mount_washington) == pytest.approx(345.0)
        assert catalog.distance_to_network_km(mount_washington) == pytest.approx(71.0)
        assert catalog.near_plant_capacity_kw(mount_washington) == pytest.approx(1_500_000.0)

    def test_synthetic_locations_fall_back_to_models(self, catalog):
        synthetic = next(location for location in catalog if not location.is_anchor)
        assert catalog.land_price_per_m2(synthetic) > 0
        assert catalog.energy_price_per_kwh(synthetic) > 0
        assert catalog.distance_to_power_km(synthetic) >= 0
        assert catalog.near_plant_capacity_kw(synthetic) >= 100_000

    def test_overrides_dataclass_defaults(self):
        overrides = LocationOverrides()
        assert overrides.solar_capacity_factor is None
        assert overrides.near_plant_capacity_kw is None
