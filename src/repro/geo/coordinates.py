"""Geographic coordinates and great-circle distances."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

EARTH_RADIUS_KM = 6371.0


@dataclass(frozen=True)
class GeoPoint:
    """A point on the globe in decimal degrees."""

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude {self.latitude} out of range [-90, 90]")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude {self.longitude} out of range [-180, 180]")

    def distance_km(self, other: "GeoPoint") -> float:
        """Great-circle distance to ``other`` in kilometres."""
        return haversine_km(self, other)


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle (haversine) distance between two points, in kilometres."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    h = min(1.0, h)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


T = TypeVar("T")


def radian_coordinates(points: Iterable[GeoPoint]) -> np.ndarray:
    """``(latitude, longitude)`` of ``points`` in radians, as a ``(2, n)`` array.

    Build it once for a fixed candidate list and pass it to every
    :func:`nearest_points` query over that list.
    """
    degrees = np.array([(p.latitude, p.longitude) for p in points], dtype=float)
    return np.radians(degrees.reshape(-1, 2).T)


def nearest_points(
    origins: Sequence[GeoPoint],
    candidates: Sequence[T],
    point_of: Optional[Callable[[T], GeoPoint]] = None,
    coordinates: Optional[np.ndarray] = None,
) -> List[Tuple[Optional[T], float]]:
    """Return ``(nearest candidate, distance_km)`` from each of ``origins``.

    ``point_of`` extracts a :class:`GeoPoint` from each candidate; by default
    the candidate is assumed to expose a ``point`` attribute.  ``coordinates``
    is :func:`radian_coordinates` of the candidates' points, built here when
    omitted.  Every answer is ``(None, inf)`` when ``candidates`` is empty.

    Each answer is exactly the scalar scan's: the first candidate with the
    smallest :func:`haversine_km`, and that distance.  One haversine term
    matrix (origins x candidates) finds each row's minimum; every candidate
    whose term lies within a relative ``1e-9`` of its row's minimum is then
    re-measured with :func:`haversine_km` in list order, keeping the first
    strict minimum.  The window is on the haversine term, not the distance,
    because ``asin`` magnifies rounding near the antipode; the term itself
    carries only a few ulps of error, far inside the window.
    """
    if point_of is None:
        point_of = lambda item: item.point  # noqa: E731 - tiny accessor
    nearest: List[Tuple[Optional[T], float]] = [(None, float("inf"))] * len(origins)
    if len(candidates) == 0:
        return nearest
    if coordinates is None:
        coordinates = radian_coordinates(point_of(item) for item in candidates)
    latitude, longitude = coordinates
    lat0, lon0 = radian_coordinates(origins)[:, :, None]
    cos_lat0 = np.array([math.cos(value) for value in lat0[:, 0]])[:, None]
    term = np.minimum(
        np.sin((latitude - lat0) / 2.0) ** 2
        + cos_lat0 * np.cos(latitude) * np.sin((longitude - lon0) / 2.0) ** 2,
        1.0,
    )
    window = term <= term.min(axis=1, keepdims=True) * (1.0 + 1e-9)
    for row, index in zip(*(axis.tolist() for axis in np.nonzero(window))):
        candidate = candidates[index]
        distance = haversine_km(origins[row], point_of(candidate))
        if distance < nearest[row][1]:
            nearest[row] = (candidate, distance)
    return nearest


def nearest_point(
    origin: GeoPoint,
    candidates: Sequence[T],
    point_of: Optional[Callable[[T], GeoPoint]] = None,
    coordinates: Optional[np.ndarray] = None,
) -> Tuple[Optional[T], float]:
    """:func:`nearest_points` from the one point ``origin``."""
    return nearest_points([origin], candidates, point_of, coordinates)[0]


def bounding_latitudes(points: Iterable[GeoPoint]) -> Tuple[float, float]:
    """Smallest and largest latitude in an iterable of points."""
    latitudes = [p.latitude for p in points]
    if not latitudes:
        raise ValueError("bounding_latitudes requires at least one point")
    return min(latitudes), max(latitudes)
