"""Brown power plants and network backbone connection points.

The paper gathers a catalogue of power plants with capacity >= 100 MW and a
list of IPv6 backbone connection points, then charges $310K/km to lay a power
line to the nearest plant and $300K/km to lay fiber to the nearest backbone
point.  The plant capacity also caps the brown power a datacenter at that
location may draw (constraint 10 of Fig. 1).

We do not have the original web-scraped catalogues, so
:func:`synthesize_infrastructure` builds a deterministic synthetic map whose
density mirrors the paper's qualitative description: dense infrastructure in
North America, Europe and East Asia, sparse elsewhere.  Anchor locations used
in the paper's tables carry their published distances directly (see
``repro.weather.locations``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.coordinates import GeoPoint, nearest_points, radian_coordinates


@dataclass(frozen=True)
class PowerPlant:
    """A grid ("brown") power plant of at least 100 MW."""

    name: str
    point: GeoPoint
    capacity_kw: float

    def __post_init__(self) -> None:
        if self.capacity_kw < 100_000:
            raise ValueError(
                f"power plant {self.name!r} has capacity {self.capacity_kw} kW; the "
                "catalogue only contains plants of 100 MW or more"
            )


@dataclass(frozen=True)
class BackbonePoint:
    """A network backbone (IPv6) connection point."""

    name: str
    point: GeoPoint


@dataclass(frozen=True)
class InfrastructureMap:
    """Catalogue of power plants and backbone points with nearest queries.

    The plant and backbone lists are fixed at construction, which is when
    their radian coordinate arrays are built for :func:`nearest_points`.
    Every query takes a block of points and answers each one.  Since the
    lists never change, each point's answer is kept per infrastructure kind
    and a point is searched for at most once: a profile block asks for its
    plants' distances and their capacities in two calls, and a catalogue
    built on several epoch grids asks the same points again.
    """

    plants: Tuple[PowerPlant, ...] = ()
    backbones: Tuple[BackbonePoint, ...] = ()
    _plant_coordinates: np.ndarray = field(init=False, repr=False, compare=False)
    _backbone_coordinates: np.ndarray = field(init=False, repr=False, compare=False)
    _plant_answers: Dict[GeoPoint, tuple] = field(init=False, repr=False, compare=False)
    _backbone_answers: Dict[GeoPoint, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        plants, backbones = tuple(self.plants), tuple(self.backbones)
        object.__setattr__(self, "plants", plants)
        object.__setattr__(self, "backbones", backbones)
        object.__setattr__(
            self, "_plant_coordinates", radian_coordinates(p.point for p in plants)
        )
        object.__setattr__(
            self, "_backbone_coordinates", radian_coordinates(b.point for b in backbones)
        )
        object.__setattr__(self, "_plant_answers", {})
        object.__setattr__(self, "_backbone_answers", {})

    def nearest_plants(
        self, points: Sequence[GeoPoint]
    ) -> List[Tuple[Optional[PowerPlant], float]]:
        """Nearest brown power plant and its distance in km, per point."""
        return _answered(points, self.plants, self._plant_coordinates, self._plant_answers)

    def nearest_backbones(
        self, points: Sequence[GeoPoint]
    ) -> List[Tuple[Optional[BackbonePoint], float]]:
        """Nearest backbone connection point and its distance in km, per point."""
        return _answered(
            points, self.backbones, self._backbone_coordinates, self._backbone_answers
        )

    def nearest_plant_capacities_kw(self, points: Sequence[GeoPoint]) -> List[float]:
        """Capacity of each point's nearest plant (``nearPlantCap(d)``), 0 if none."""
        return [plant.capacity_kw if plant else 0.0 for plant, _ in self.nearest_plants(points)]


def _answered(points, candidates, coordinates, answers: Dict[GeoPoint, tuple]) -> List[tuple]:
    """:func:`nearest_points` over ``candidates``, searching only points not in ``answers``.

    Threads sharing a map may both search a point; both store the same answer.
    """
    missing = [point for point in dict.fromkeys(points) if point not in answers]
    answers.update(zip(missing, nearest_points(missing, candidates, coordinates=coordinates)))
    return [answers[point] for point in points]


# Regions used to modulate infrastructure density.  Each entry is
# (name, lat_min, lat_max, lon_min, lon_max, plant_density, backbone_density)
# where densities are points per 15-degree cell.
_REGIONS = (
    ("north-america", 25.0, 60.0, -130.0, -60.0, 6, 5),
    ("europe", 36.0, 65.0, -10.0, 40.0, 6, 6),
    ("east-asia", 20.0, 50.0, 100.0, 145.0, 5, 4),
    ("south-america", -40.0, 10.0, -80.0, -35.0, 2, 2),
    ("africa", -35.0, 35.0, -15.0, 50.0, 2, 1),
    ("oceania", -45.0, -10.0, 110.0, 155.0, 2, 2),
    ("south-asia", 5.0, 35.0, 60.0, 100.0, 3, 2),
)


def synthesize_infrastructure(seed: int = 7) -> InfrastructureMap:
    """Build a deterministic synthetic world infrastructure map.

    The map contains a few hundred power plants (100 MW - 4 GW) and a couple
    of hundred backbone points, distributed so that well-connected regions
    end up within tens of kilometres of infrastructure while remote areas can
    be several hundred kilometres away — matching the distance ranges the
    paper reports in Table II (7 km to ~400 km).
    """
    rng = np.random.default_rng(seed)
    plants: List[PowerPlant] = []
    backbones: List[BackbonePoint] = []
    for name, lat_min, lat_max, lon_min, lon_max, plant_density, backbone_density in _REGIONS:
        lat_cells = max(1, int(math.ceil((lat_max - lat_min) / 15.0)))
        lon_cells = max(1, int(math.ceil((lon_max - lon_min) / 15.0)))
        for i in range(lat_cells):
            for j in range(lon_cells):
                cell_lat_min = lat_min + i * 15.0
                cell_lat_max = min(lat_max, cell_lat_min + 15.0)
                cell_lon_min = lon_min + j * 15.0
                cell_lon_max = min(lon_max, cell_lon_min + 15.0)
                for k in range(plant_density):
                    lat = float(rng.uniform(cell_lat_min, cell_lat_max))
                    lon = float(rng.uniform(cell_lon_min, cell_lon_max))
                    capacity_mw = float(rng.uniform(100.0, 4000.0))
                    plants.append(
                        PowerPlant(
                            name=f"plant-{name}-{i}-{j}-{k}",
                            point=GeoPoint(lat, lon),
                            capacity_kw=capacity_mw * 1000.0,
                        )
                    )
                for k in range(backbone_density):
                    lat = float(rng.uniform(cell_lat_min, cell_lat_max))
                    lon = float(rng.uniform(cell_lon_min, cell_lon_max))
                    backbones.append(
                        BackbonePoint(
                            name=f"backbone-{name}-{i}-{j}-{k}",
                            point=GeoPoint(lat, lon),
                        )
                    )
    return InfrastructureMap(plants=plants, backbones=backbones)
