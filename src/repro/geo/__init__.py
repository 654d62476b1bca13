"""Geographic substrate: coordinates, infrastructure distances and regional prices.

The placement framework needs, for every candidate location, the distance to
the nearest brown power plant (for ``costLinePow`` and the brown-power cap),
the distance to the nearest network backbone connection point (for
``costLineNet``), the local industrial land price and the local grid
electricity price.  The paper scraped those from public web sources; here the
same quantities are produced by deterministic regional models plus an
infrastructure map with nearest-neighbour queries.
"""

from repro.geo.coordinates import GeoPoint, haversine_km, nearest_point, nearest_points
from repro.geo.grid import GridEnergyPricing, RegionalEnergyPrice
from repro.geo.infrastructure import (
    BackbonePoint,
    InfrastructureMap,
    PowerPlant,
    synthesize_infrastructure,
)
from repro.geo.land import LandPriceModel

__all__ = [
    "BackbonePoint",
    "GeoPoint",
    "GridEnergyPricing",
    "InfrastructureMap",
    "LandPriceModel",
    "PowerPlant",
    "RegionalEnergyPrice",
    "haversine_km",
    "nearest_point",
    "nearest_points",
    "synthesize_infrastructure",
]
