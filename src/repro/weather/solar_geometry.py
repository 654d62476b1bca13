"""Solar-position geometry used by the synthetic TMY generator.

These are the standard engineering approximations (Cooper's declination
formula, hour-angle based elevation, and a simple clear-sky transmittance
model) — accurate enough to produce realistic diurnal and seasonal
irradiance shapes and capacity factors in the 10-23 % range the paper
observes for its locations.
"""

from __future__ import annotations

import math

import numpy as np

SOLAR_CONSTANT_W_M2 = 1361.0


def solar_declination_deg(day_of_year: np.ndarray | float) -> np.ndarray | float:
    """Solar declination in degrees for a day of year (0-based)."""
    day = np.asarray(day_of_year, dtype=float)
    declination = 23.45 * np.sin(2.0 * math.pi * (284.0 + day + 1.0) / 365.0)
    if np.isscalar(day_of_year):
        return float(declination)
    return declination


def solar_elevation_deg(
    latitude_deg: np.ndarray | float,
    day_of_year: np.ndarray | float,
    hour_of_day: np.ndarray | float,
) -> np.ndarray | float:
    """Solar elevation angle in degrees (negative below the horizon).

    ``hour_of_day`` is local solar time; solar noon is at 12.0.  An array of
    latitudes broadcasts against the day and hour arrays, so a column of
    latitudes with one row of days and hours per location gives every
    location's elevations at once.
    """
    latitude = np.radians(latitude_deg)
    declination = np.radians(solar_declination_deg(day_of_year))
    hour_angle = np.radians(15.0 * (np.asarray(hour_of_day, dtype=float) - 12.0))
    sin_elevation = (
        np.sin(latitude) * np.sin(declination)
        + np.cos(latitude) * np.cos(declination) * np.cos(hour_angle)
    )
    elevation = np.degrees(np.arcsin(np.clip(sin_elevation, -1.0, 1.0)))
    if np.isscalar(day_of_year) and np.isscalar(hour_of_day):
        return float(elevation)
    return elevation


def clear_sky_irradiance(
    latitude_deg: np.ndarray | float,
    day_of_year: np.ndarray | float,
    hour_of_day: np.ndarray | float,
    turbidity: float = 0.75,
) -> np.ndarray | float:
    """Clear-sky global horizontal irradiance in W/m^2.

    Uses a simple air-mass transmittance model: GHI = S0 * sin(h) * tau^(1/sin(h)),
    clipped to zero below the horizon.  ``turbidity`` (atmospheric
    transmittance at zenith) defaults to 0.75, a typical mid-latitude value.
    """
    if not 0.0 < turbidity <= 1.0:
        raise ValueError("turbidity must be in (0, 1]")
    elevation = solar_elevation_deg(latitude_deg, day_of_year, hour_of_day)
    elevation_arr = np.asarray(elevation, dtype=float)
    sin_h = np.sin(np.radians(np.clip(elevation_arr, 0.0, 90.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        transmittance = np.where(sin_h > 1e-3, turbidity ** (1.0 / np.maximum(sin_h, 1e-3)), 0.0)
    ghi = SOLAR_CONSTANT_W_M2 * sin_h * transmittance
    ghi = np.where(elevation_arr > 0.0, ghi, 0.0)
    if np.isscalar(elevation):
        return float(ghi)
    return ghi


def daylight_hours(latitude_deg: float, day_of_year: int) -> float:
    """Approximate day length in hours for a latitude and day of year."""
    declination = math.radians(solar_declination_deg(float(day_of_year)))
    latitude = math.radians(latitude_deg)
    cos_hour_angle = -math.tan(latitude) * math.tan(declination)
    cos_hour_angle = min(1.0, max(-1.0, cos_hour_angle))
    return 2.0 * math.degrees(math.acos(cos_hour_angle)) / 15.0
