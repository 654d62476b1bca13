"""World location catalogue.

The catalogue plays the role of the paper's 1373 TMY locations.  Most
locations are synthetic (deterministically generated climates spread across
the continents with realistic latitude-driven structure), but the locations
that appear by name in the paper's tables — Kiev, Harare, Nairobi, Mount
Washington, Burke Lakefront, Grissom, Mexico City, Andersen (Guam), and the
four capacity-factor examples of Section II — are included as *anchors*
carrying the published capacity factors, PUEs, prices and infrastructure
distances, so that the reproduced tables match the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

# NumPy 2 imports numpy.random on first use, and a plan's first use is the
# catalogue below: import it with this module, outside any timed plan.
import numpy.random  # noqa: F401

from repro.geo.coordinates import GeoPoint
from repro.geo.grid import GridEnergyPricing
from repro.geo.infrastructure import InfrastructureMap, synthesize_infrastructure
from repro.geo.land import LandPriceModel
from repro.weather.synthesis import ClimateProfile, TMYGenerator


@dataclass(frozen=True)
class LocationOverrides:
    """Published per-location values that take precedence over the models.

    Any ``None`` field falls back to the synthetic model.  Capacity-factor and
    PUE targets are applied by ``repro.energy.profiles`` as a calibration of
    the generated hourly series (the series keeps its diurnal/seasonal shape;
    its annual mean is scaled to the target).
    """

    solar_capacity_factor: Optional[float] = None
    wind_capacity_factor: Optional[float] = None
    max_pue: Optional[float] = None
    land_price_per_m2: Optional[float] = None
    energy_price_per_kwh: Optional[float] = None
    distance_power_km: Optional[float] = None
    distance_network_km: Optional[float] = None
    near_plant_capacity_kw: Optional[float] = None


@dataclass(frozen=True)
class Location:
    """A candidate datacenter location."""

    name: str
    point: GeoPoint
    climate: ClimateProfile
    country: str = ""
    urbanisation: float = 0.5
    is_anchor: bool = False
    overrides: LocationOverrides = field(default_factory=LocationOverrides)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a location needs a non-empty name")
        if not 0.0 <= self.urbanisation <= 1.0:
            raise ValueError("urbanisation must lie in [0, 1]")


def _anchor(
    name: str,
    country: str,
    latitude: float,
    longitude: float,
    climate: ClimateProfile,
    urbanisation: float,
    **override_kwargs,
) -> Location:
    return Location(
        name=name,
        point=GeoPoint(latitude, longitude),
        climate=climate,
        country=country,
        urbanisation=urbanisation,
        is_anchor=True,
        overrides=LocationOverrides(**override_kwargs),
    )


#: Named locations from Tables II and III and Section II of the paper, with the
#: published capacity factors, maximum PUEs, electricity prices ($/kWh), land
#: prices ($/m^2) and infrastructure distances (km).
ANCHOR_LOCATIONS: List[Location] = [
    _anchor(
        "Kiev, Ukraine", "Ukraine", 50.45, 30.52,
        ClimateProfile(8.0, 12.0, 5.0, 0.55, 4.5, 0.5, 0.4, 170.0), 0.7,
        solar_capacity_factor=0.115, wind_capacity_factor=0.06, max_pue=1.06,
        energy_price_per_kwh=0.030, land_price_per_m2=22.0,
        distance_power_km=22.0, distance_network_km=7.0,
        near_plant_capacity_kw=3_000_000.0,
    ),
    _anchor(
        "Harare, Zimbabwe", "Zimbabwe", -17.83, 31.05,
        ClimateProfile(18.5, 5.0, 8.0, 0.25, 3.5, 0.4, 0.2, 1490.0), 0.3,
        solar_capacity_factor=0.224, wind_capacity_factor=0.05, max_pue=1.07,
        energy_price_per_kwh=0.098, land_price_per_m2=14.7,
        distance_power_km=400.0, distance_network_km=390.0,
        near_plant_capacity_kw=900_000.0,
    ),
    _anchor(
        "Nairobi, Kenya", "Kenya", -1.29, 36.82,
        ClimateProfile(19.0, 3.0, 7.0, 0.30, 3.8, 0.4, 0.2, 1795.0), 0.4,
        solar_capacity_factor=0.209, wind_capacity_factor=0.06, max_pue=1.07,
        energy_price_per_kwh=0.070, land_price_per_m2=14.7,
        distance_power_km=30.0, distance_network_km=25.0,
        near_plant_capacity_kw=1_200_000.0,
    ),
    _anchor(
        "Mount Washington, NH, USA", "USA", 44.27, -71.30,
        ClimateProfile(2.0, 12.0, 5.0, 0.55, 12.5, 0.55, 0.5, 1910.0), 0.2,
        solar_capacity_factor=0.135, wind_capacity_factor=0.556, max_pue=1.06,
        energy_price_per_kwh=0.126, land_price_per_m2=947.0,
        distance_power_km=345.0, distance_network_km=71.0,
        near_plant_capacity_kw=1_500_000.0,
    ),
    _anchor(
        "Burke Lakefront, OH, USA", "USA", 41.52, -81.68,
        ClimateProfile(10.5, 13.0, 5.0, 0.50, 6.5, 0.5, 0.4, 180.0), 0.6,
        solar_capacity_factor=0.150, wind_capacity_factor=0.209, max_pue=1.06,
        energy_price_per_kwh=0.058, land_price_per_m2=329.0,
        distance_power_km=409.0, distance_network_km=3.0,
        near_plant_capacity_kw=2_500_000.0,
    ),
    _anchor(
        "Grissom, IN, USA", "USA", 40.67, -86.15,
        ClimateProfile(11.0, 13.0, 6.0, 0.50, 5.5, 0.5, 0.4, 250.0), 0.4,
        solar_capacity_factor=0.152, wind_capacity_factor=0.164, max_pue=1.07,
        energy_price_per_kwh=0.062, land_price_per_m2=85.0,
        distance_power_km=45.0, distance_network_km=30.0,
        near_plant_capacity_kw=3_000_000.0,
    ),
    _anchor(
        "Mexico City, Mexico", "Mexico", 19.43, -99.13,
        ClimateProfile(16.5, 3.5, 8.0, 0.35, 3.0, 0.4, 0.2, 2240.0), 0.8,
        solar_capacity_factor=0.205, wind_capacity_factor=0.04, max_pue=1.08,
        energy_price_per_kwh=0.080, land_price_per_m2=160.0,
        distance_power_km=40.0, distance_network_km=18.0,
        near_plant_capacity_kw=2_000_000.0,
    ),
    _anchor(
        "Andersen, Guam", "Guam", 13.58, 144.92,
        ClimateProfile(27.0, 1.5, 4.0, 0.40, 6.5, 0.4, 0.3, 160.0), 0.3,
        solar_capacity_factor=0.185, wind_capacity_factor=0.12, max_pue=1.12,
        energy_price_per_kwh=0.160, land_price_per_m2=70.0,
        distance_power_km=25.0, distance_network_km=20.0,
        near_plant_capacity_kw=400_000.0,
    ),
    _anchor(
        "Berlin, Germany", "Germany", 52.52, 13.40,
        ClimateProfile(9.5, 10.0, 5.0, 0.60, 4.0, 0.5, 0.4, 35.0), 0.8,
        solar_capacity_factor=0.135, wind_capacity_factor=0.034, max_pue=1.07,
        energy_price_per_kwh=0.140, land_price_per_m2=320.0,
        distance_power_km=20.0, distance_network_km=5.0,
        near_plant_capacity_kw=2_500_000.0,
    ),
    _anchor(
        "New York, NY, USA", "USA", 40.71, -74.01,
        ClimateProfile(12.5, 12.0, 4.5, 0.50, 5.5, 0.5, 0.4, 10.0), 1.0,
        solar_capacity_factor=0.164, wind_capacity_factor=0.189, max_pue=1.08,
        energy_price_per_kwh=0.180, land_price_per_m2=900.0,
        distance_power_km=15.0, distance_network_km=2.0,
        near_plant_capacity_kw=4_000_000.0,
    ),
    _anchor(
        "Canberra, Australia", "Australia", -35.28, 149.13,
        ClimateProfile(13.0, 8.0, 9.0, 0.35, 4.0, 0.4, 0.3, 580.0), 0.6,
        solar_capacity_factor=0.202, wind_capacity_factor=0.084, max_pue=1.08,
        energy_price_per_kwh=0.150, land_price_per_m2=250.0,
        distance_power_km=60.0, distance_network_km=12.0,
        near_plant_capacity_kw=1_500_000.0,
    ),
    _anchor(
        "Phoenix, AZ, USA", "USA", 33.45, -112.07,
        ClimateProfile(23.5, 10.0, 9.0, 0.15, 3.5, 0.4, 0.2, 340.0), 0.7,
        solar_capacity_factor=0.229, wind_capacity_factor=0.034, max_pue=1.12,
        energy_price_per_kwh=0.095, land_price_per_m2=180.0,
        distance_power_km=30.0, distance_network_km=8.0,
        near_plant_capacity_kw=3_500_000.0,
    ),
]


# Latitude/longitude bands used to scatter the synthetic locations with a
# density similar to the paper's coverage (dense over North America, Europe
# and parts of Asia; sparser but present elsewhere).
_SYNTHETIC_BANDS = (
    # (name, lat_min, lat_max, lon_min, lon_max, weight)
    ("north-america", 25.0, 58.0, -125.0, -65.0, 0.30),
    ("europe", 36.0, 62.0, -10.0, 35.0, 0.28),
    ("east-asia", 20.0, 48.0, 100.0, 142.0, 0.16),
    ("south-asia", 6.0, 32.0, 62.0, 95.0, 0.07),
    ("south-america", -38.0, 8.0, -78.0, -38.0, 0.07),
    ("africa", -32.0, 34.0, -14.0, 48.0, 0.07),
    ("oceania", -43.0, -12.0, 114.0, 152.0, 0.05),
)


class WorldCatalog:
    """A set of candidate locations plus the models that price them.

    The catalogue bundles the location list, the synthetic infrastructure map
    and the land/grid price models and exposes per-location accessors that
    honour anchor overrides.  It also owns the TMY generator so all weather is
    derived from one seed.  It keeps no weather: :meth:`tmy` synthesises the
    requested hours of a block of locations on every call, and the profile
    builder caches what it derives from them.
    """

    def __init__(
        self,
        locations: Sequence[Location],
        infrastructure: Optional[InfrastructureMap] = None,
        land_prices: Optional[LandPriceModel] = None,
        grid_prices: Optional[GridEnergyPricing] = None,
        tmy_generator: Optional[TMYGenerator] = None,
    ) -> None:
        if not locations:
            raise ValueError("a WorldCatalog needs at least one location")
        self._locations: List[Location] = list(locations)
        self._by_name: Dict[str, Location] = {}
        for location in self._locations:
            if location.name in self._by_name:
                raise ValueError(f"duplicate location name {location.name!r}")
            self._by_name[location.name] = location
        self.infrastructure = infrastructure or synthesize_infrastructure()
        self.land_prices = land_prices or LandPriceModel()
        self.grid_prices = grid_prices or GridEnergyPricing()
        self.tmy_generator = tmy_generator or TMYGenerator()

    # -- access -----------------------------------------------------------------
    @property
    def locations(self) -> List[Location]:
        return list(self._locations)

    @property
    def names(self) -> List[str]:
        return [location.name for location in self._locations]

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self):
        return iter(self._locations)

    def get(self, name: str) -> Location:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no location named {name!r} in the catalogue") from None

    def subset(self, names: Iterable[str]) -> "WorldCatalog":
        """A catalogue restricted to the given location names (same models)."""
        subset_locations = [self.get(name) for name in names]
        return WorldCatalog(
            subset_locations,
            infrastructure=self.infrastructure,
            land_prices=self.land_prices,
            grid_prices=self.grid_prices,
            tmy_generator=self.tmy_generator,
        )

    # -- per-location attributes ---------------------------------------------------
    def tmy(self, locations: Sequence[Location], hours) -> Dict[str, np.ndarray]:
        """The TMY channels of a block of locations, one row of ``hours`` each.

        See :meth:`TMYGenerator.sample_block`; nothing is cached.
        """
        return self.tmy_generator.sample_block(
            [location.name for location in locations],
            [location.point.latitude for location in locations],
            [location.climate for location in locations],
            hours,
        )

    def land_price_per_m2(self, location: Location) -> float:
        if location.overrides.land_price_per_m2 is not None:
            return location.overrides.land_price_per_m2
        return self.land_prices.price_per_m2(location.name, location.point, location.urbanisation)

    def energy_price_per_kwh(self, location: Location) -> float:
        if location.overrides.energy_price_per_kwh is not None:
            return location.overrides.energy_price_per_kwh
        return self.grid_prices.price_per_kwh(location.name, location.point)

    # The infrastructure accessors take a block of locations and answer each
    # one: a published override where there is one, otherwise one
    # nearest-infrastructure search over the rest of the block.
    def distance_to_power_km(self, locations: Sequence[Location]) -> List[float]:
        return _overridden(
            locations,
            "distance_power_km",
            lambda points: [distance for _, distance in self.infrastructure.nearest_plants(points)],
        )

    def distance_to_network_km(self, locations: Sequence[Location]) -> List[float]:
        return _overridden(
            locations,
            "distance_network_km",
            lambda points: [
                distance for _, distance in self.infrastructure.nearest_backbones(points)
            ],
        )

    def near_plant_capacity_kw(self, locations: Sequence[Location]) -> List[float]:
        return _overridden(
            locations, "near_plant_capacity_kw", self.infrastructure.nearest_plant_capacities_kw
        )


def _overridden(
    locations: Sequence[Location],
    field_name: str,
    search: Callable[[List[GeoPoint]], List[float]],
) -> List[float]:
    """Each location's ``field_name`` override, or ``search`` over the others' points."""
    values = [getattr(location.overrides, field_name) for location in locations]
    missing = [row for row, value in enumerate(values) if value is None]
    for row, value in zip(missing, search([locations[row].point for row in missing])):
        values[row] = value
    return values


def build_world_catalog(
    num_locations: int = 1373,
    seed: int = 2014,
    include_anchors: bool = True,
) -> WorldCatalog:
    """Build the world catalogue of candidate locations.

    ``num_locations`` is the total count including anchors (the paper uses
    1373); smaller values are used throughout the test-suite for speed.
    """
    if num_locations < 1:
        raise ValueError("the catalogue needs at least one location")
    rng = np.random.default_rng(seed)
    locations: List[Location] = []
    if include_anchors:
        locations.extend(ANCHOR_LOCATIONS[: min(len(ANCHOR_LOCATIONS), num_locations)])
    remaining = num_locations - len(locations)
    band_names = [band[0] for band in _SYNTHETIC_BANDS]
    band_weights = np.array([band[5] for band in _SYNTHETIC_BANDS])
    band_weights = band_weights / band_weights.sum()
    counts = rng.multinomial(max(0, remaining), band_weights)
    for (band, count) in zip(_SYNTHETIC_BANDS, counts):
        name, lat_min, lat_max, lon_min, lon_max, _ = band
        for index in range(count):
            latitude = float(rng.uniform(lat_min, lat_max))
            longitude = float(rng.uniform(lon_min, lon_max))
            climate = _climate_for(latitude, rng)
            locations.append(
                Location(
                    name=f"{name}-{index:04d}",
                    point=GeoPoint(latitude, longitude),
                    climate=climate,
                    country=name,
                    urbanisation=float(rng.uniform(0.1, 0.9)),
                )
            )
    return WorldCatalog(locations[:num_locations])


def _climate_for(latitude: float, rng: np.random.Generator) -> ClimateProfile:
    """Latitude-driven climate with per-location randomness."""
    abs_latitude = abs(latitude)
    mean_temperature = 27.0 - 0.45 * abs_latitude + float(rng.normal(0.0, 2.5))
    seasonal = 2.0 + 0.28 * abs_latitude + float(rng.uniform(-1.0, 1.0))
    diurnal = float(rng.uniform(4.0, 10.0))
    # Deserts (roughly 15-35 degrees) are the clearest; equator and high
    # latitudes are cloudier.
    if 15.0 <= abs_latitude <= 35.0:
        cloudiness = float(rng.uniform(0.15, 0.45))
    elif abs_latitude < 15.0:
        cloudiness = float(rng.uniform(0.35, 0.6))
    else:
        cloudiness = float(rng.uniform(0.4, 0.75))
    # Wind: mostly modest means with a windy tail (ridges, coasts, plains).
    roll = rng.uniform()
    if roll < 0.55:
        wind_mean = float(rng.uniform(2.5, 5.5))
    elif roll < 0.88:
        wind_mean = float(rng.uniform(5.5, 8.5))
    else:
        wind_mean = float(rng.uniform(8.5, 12.5))
    altitude = float(max(0.0, rng.gamma(2.0, 200.0)))
    return ClimateProfile(
        mean_temperature_c=mean_temperature,
        seasonal_amplitude_c=seasonal,
        diurnal_amplitude_c=diurnal,
        cloudiness=cloudiness,
        mean_wind_speed_m_s=wind_mean,
        wind_variability=float(rng.uniform(0.3, 0.7)),
        wind_seasonality=float(rng.uniform(0.1, 0.5)),
        altitude_m=altitude,
    )
