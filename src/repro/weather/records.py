"""TMY dataset container.

A Typical Meteorological Year is an hourly dataset (8760 hours) selected so
that its annual statistics match the long-term climate of a location.  Our
synthetic equivalent stores the four channels the framework needs:
temperature, global horizontal irradiance, wind speed and air pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

HOURS_PER_YEAR = 8760
DAYS_PER_YEAR = 365
HOURS_PER_DAY = 24


def checked_channels(
    temperature_c, ghi_w_m2, wind_speed_m_s, pressure_kpa
) -> Dict[str, np.ndarray]:
    """The four TMY channels as float arrays, after the physical-range checks.

    Irradiance and wind speed must be non-negative and pressure positive.
    The keys are the :class:`TMYDataset` field names, so a full-year result
    can be passed straight to ``TMYDataset(**channels)``.
    """
    channels = {
        "temperature_c": np.asarray(temperature_c, dtype=float),
        "ghi_w_m2": np.asarray(ghi_w_m2, dtype=float),
        "wind_speed_m_s": np.asarray(wind_speed_m_s, dtype=float),
        "pressure_kpa": np.asarray(pressure_kpa, dtype=float),
    }
    if np.any(channels["ghi_w_m2"] < -1e-9):
        raise ValueError("irradiance cannot be negative")
    if np.any(channels["wind_speed_m_s"] < -1e-9):
        raise ValueError("wind speed cannot be negative")
    if np.any(channels["pressure_kpa"] <= 0):
        raise ValueError("pressure must be positive")
    return channels


@dataclass
class TMYDataset:
    """One synthetic Typical Meteorological Year for a location.

    All arrays have :data:`HOURS_PER_YEAR` entries, hour 0 being 00:00 local
    solar time on January 1st.

    Attributes
    ----------
    temperature_c:
        Dry-bulb external temperature in degrees Celsius.
    ghi_w_m2:
        Global horizontal irradiance in W/m^2.
    wind_speed_m_s:
        Wind speed at hub height in m/s.
    pressure_kpa:
        Air pressure in kPa (used for air-density correction of wind power).
    """

    temperature_c: np.ndarray
    ghi_w_m2: np.ndarray
    wind_speed_m_s: np.ndarray
    pressure_kpa: np.ndarray

    def __post_init__(self) -> None:
        channels = checked_channels(
            self.temperature_c, self.ghi_w_m2, self.wind_speed_m_s, self.pressure_kpa
        )
        for name, array in channels.items():
            if array.shape != (HOURS_PER_YEAR,):
                raise ValueError(
                    f"TMY channel {name} must have {HOURS_PER_YEAR} hourly values, "
                    f"got shape {array.shape}"
                )
            setattr(self, name, array)

    @property
    def num_hours(self) -> int:
        return HOURS_PER_YEAR

    def hour_of_day(self) -> np.ndarray:
        """Hour-of-day index (0..23) for each entry."""
        return np.arange(HOURS_PER_YEAR) % HOURS_PER_DAY

    def day_of_year(self) -> np.ndarray:
        """Day-of-year index (0..364) for each entry."""
        return np.arange(HOURS_PER_YEAR) // HOURS_PER_DAY

    def select_days(self, day_indices) -> Dict[str, np.ndarray]:
        """The four channels restricted to whole days, keyed by field name.

        The result is *not* a full TMY (fewer than 8760 hours), so it is
        returned as plain arrays in a dictionary rather than a TMYDataset.
        """
        day_indices = np.asarray(day_indices, dtype=int)
        if np.any(day_indices < 0) or np.any(day_indices >= DAYS_PER_YEAR):
            raise ValueError("day indices must lie within the year")
        hours = (day_indices[:, None] * HOURS_PER_DAY + np.arange(HOURS_PER_DAY)).ravel()
        return checked_channels(
            self.temperature_c[hours],
            self.ghi_w_m2[hours],
            self.wind_speed_m_s[hours],
            self.pressure_kpa[hours],
        )

    def summary(self) -> dict:
        """Annual summary statistics used in documentation and tests."""
        return {
            "mean_temperature_c": float(np.mean(self.temperature_c)),
            "max_temperature_c": float(np.max(self.temperature_c)),
            "mean_ghi_w_m2": float(np.mean(self.ghi_w_m2)),
            "mean_wind_speed_m_s": float(np.mean(self.wind_speed_m_s)),
            "mean_pressure_kpa": float(np.mean(self.pressure_kpa)),
        }
