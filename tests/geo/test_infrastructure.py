"""Tests for the synthetic infrastructure map and regional price models."""

import pytest

from repro.geo import (
    BackbonePoint,
    GeoPoint,
    GridEnergyPricing,
    InfrastructureMap,
    LandPriceModel,
    PowerPlant,
    synthesize_infrastructure,
)


class TestPowerPlant:
    def test_small_plants_rejected(self):
        with pytest.raises(ValueError):
            PowerPlant("tiny", GeoPoint(0, 0), capacity_kw=50_000)

    def test_valid_plant(self):
        plant = PowerPlant("ok", GeoPoint(10, 10), capacity_kw=500_000)
        assert plant.capacity_kw == 500_000


class TestInfrastructureMap:
    @pytest.fixture()
    def small_map(self):
        return InfrastructureMap(
            plants=[
                PowerPlant("a", GeoPoint(0.0, 0.0), 200_000),
                PowerPlant("b", GeoPoint(10.0, 10.0), 900_000),
            ],
            backbones=[BackbonePoint("x", GeoPoint(5.0, 5.0))],
        )

    def test_nearest_plant(self, small_map):
        [(plant, distance)] = small_map.nearest_plants([GeoPoint(1.0, 1.0)])
        assert plant.name == "a"
        assert distance > 0

    def test_nearest_backbone(self, small_map):
        [(backbone, distance)] = small_map.nearest_backbones([GeoPoint(4.0, 5.0)])
        assert backbone.name == "x"
        assert distance == pytest.approx(111.19, rel=0.02)

    def test_nearest_plant_capacity(self, small_map):
        points = [GeoPoint(9.0, 9.0), GeoPoint(1.0, 1.0), GeoPoint(9.0, 9.0)]
        assert small_map.nearest_plant_capacities_kw(points) == [900_000, 200_000, 900_000]

    def test_empty_map_returns_none(self):
        empty = InfrastructureMap()
        points = [GeoPoint(0, 0), GeoPoint(10, 10)]
        assert empty.nearest_plants(points) == [(None, float("inf"))] * 2
        assert empty.nearest_plant_capacities_kw(points) == [0.0, 0.0]
        assert empty.nearest_backbones([]) == []


class TestSynthesizedInfrastructure:
    def test_deterministic(self):
        a = synthesize_infrastructure(seed=3)
        b = synthesize_infrastructure(seed=3)
        assert len(a.plants) == len(b.plants)
        assert a.plants[0].point == b.plants[0].point

    def test_coverage_and_scale(self):
        infra = synthesize_infrastructure()
        assert len(infra.plants) > 100
        assert len(infra.backbones) > 80
        # Dense regions should be close to infrastructure.
        [(_, distance)] = infra.nearest_plants([GeoPoint(40.0, -100.0)])
        assert distance < 1500

    def test_all_plants_at_least_100mw(self):
        infra = synthesize_infrastructure()
        assert all(plant.capacity_kw >= 100_000 for plant in infra.plants)


class TestLandPrices:
    def test_override_wins(self):
        model = LandPriceModel()
        model.set_override("special", 947.0)
        assert model.price_per_m2("special", GeoPoint(44, -71)) == 947.0

    def test_negative_override_rejected(self):
        model = LandPriceModel()
        with pytest.raises(ValueError):
            model.set_override("bad", -1.0)

    def test_urbanisation_increases_price(self):
        model = LandPriceModel()
        point = GeoPoint(40.0, -75.0)
        rural = model.price_per_m2("loc", point, urbanisation=0.1)
        urban = model.price_per_m2("loc", point, urbanisation=0.9)
        assert urban > rural

    def test_deterministic_per_name(self):
        model = LandPriceModel()
        point = GeoPoint(40.0, -75.0)
        assert model.price_per_m2("x", point) == model.price_per_m2("x", point)

    def test_invalid_urbanisation(self):
        model = LandPriceModel()
        with pytest.raises(ValueError):
            model.price_per_m2("x", GeoPoint(0, 0), urbanisation=1.5)

    def test_invalid_base_price(self):
        with pytest.raises(ValueError):
            LandPriceModel(base_price=0.0)


class TestGridPrices:
    def test_override_wins(self):
        pricing = GridEnergyPricing()
        pricing.set_override("Kiev, Ukraine", 0.030)
        assert pricing.price_per_kwh("Kiev, Ukraine", GeoPoint(50.45, 30.52)) == 0.030

    def test_negative_override_rejected(self):
        pricing = GridEnergyPricing()
        with pytest.raises(ValueError):
            pricing.set_override("bad", -0.1)

    def test_prices_positive_and_reasonable(self):
        pricing = GridEnergyPricing()
        price = pricing.price_per_kwh("somewhere", GeoPoint(45.0, 10.0))
        assert 0.015 <= price <= 0.30

    def test_mwh_conversion(self):
        pricing = GridEnergyPricing()
        point = GeoPoint(40.0, -100.0)
        assert pricing.price_per_mwh("x", point) == pytest.approx(
            1000.0 * pricing.price_per_kwh("x", point)
        )

    def test_deterministic_per_name(self):
        pricing = GridEnergyPricing()
        point = GeoPoint(12.0, 100.0)
        assert pricing.price_per_kwh("a", point) == pricing.price_per_kwh("a", point)
