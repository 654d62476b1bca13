"""Deterministic synthetic TMY generation.

Each location is described by a :class:`ClimateProfile`; the
:class:`TMYGenerator` turns a profile into hourly weather that is fully
deterministic for a given ``(seed, location name)`` pair, so every run of the
test-suite and the benchmarks sees exactly the same "weather".

There is one synthesis path, :meth:`TMYGenerator.sample`, which returns the
four channels at any set of hour-of-year indices.  The profile build asks
only for the hours its epoch grid reads (96 of 8760 on a four-day grid), and
:meth:`TMYGenerator.generate` is ``sample`` over the whole year wrapped in a
:class:`~repro.weather.records.TMYDataset`.  The values do not depend on
which hours are asked for: a sampled hour equals the same hour of the full
year bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.weather.records import (
    DAYS_PER_YEAR,
    HOURS_PER_DAY,
    HOURS_PER_YEAR,
    TMYDataset,
    checked_channels,
)
from repro.weather.solar_geometry import clear_sky_irradiance


@dataclass(frozen=True)
class ClimateProfile:
    """Climate parameters of a synthetic location.

    Attributes
    ----------
    mean_temperature_c:
        Annual mean external temperature.
    seasonal_amplitude_c:
        Half peak-to-peak amplitude of the seasonal temperature cycle.
    diurnal_amplitude_c:
        Half peak-to-peak amplitude of the daily temperature cycle.
    cloudiness:
        Fraction in [0, 1]; 0 means permanently clear skies, 1 heavy overcast.
        It both attenuates irradiance and adds day-to-day variability.
    mean_wind_speed_m_s:
        Annual mean wind speed at hub height.
    wind_variability:
        Multiplicative day-to-day variability of wind (Weibull-like shape).
    wind_seasonality:
        Fraction in [0, 1]; how strongly wind follows a winter-peaked cycle.
    altitude_m:
        Site altitude, used to derive mean air pressure.
    """

    mean_temperature_c: float = 15.0
    seasonal_amplitude_c: float = 10.0
    diurnal_amplitude_c: float = 6.0
    cloudiness: float = 0.4
    mean_wind_speed_m_s: float = 5.0
    wind_variability: float = 0.5
    wind_seasonality: float = 0.3
    altitude_m: float = 200.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.cloudiness <= 1.0:
            raise ValueError("cloudiness must lie in [0, 1]")
        if self.mean_wind_speed_m_s < 0:
            raise ValueError("mean wind speed cannot be negative")
        if not 0.0 <= self.wind_seasonality <= 1.0:
            raise ValueError("wind seasonality must lie in [0, 1]")
        if self.wind_variability < 0:
            raise ValueError("wind variability cannot be negative")


class TMYGenerator:
    """Generate deterministic synthetic TMY channels.

    Parameters
    ----------
    seed:
        Global seed; combined with the location name so that each location has
        its own, but reproducible, weather noise.
    """

    def __init__(self, seed: int = 2014) -> None:
        self.seed = int(seed)

    # -- public API -------------------------------------------------------------
    def generate(self, name: str, latitude_deg: float, climate: ClimateProfile) -> TMYDataset:
        """The full-year TMY of one location."""
        return TMYDataset(**self.sample(name, latitude_deg, climate, np.arange(HOURS_PER_YEAR)))

    def sample(
        self, name: str, latitude_deg: float, climate: ClimateProfile, hours
    ) -> Dict[str, np.ndarray]:
        """The four TMY channels at the hour-of-year indices ``hours``.

        ``hours`` may be unsorted and may repeat; entry ``i`` of every channel
        is the value of hour ``hours[i]`` of the full-year TMY, bit for bit.
        Every noise array is drawn at full length (365 daily, 8760 hourly
        values) in a fixed order and then gathered: NumPy's normal sampler
        consumes a variable amount of the random stream, so no draw can be
        skipped without changing the ones after it.  Everything else — the
        seasonal and diurnal cycles, clear-sky geometry and the channel
        arithmetic — runs only on the requested hours.
        """
        hours = np.asarray(hours, dtype=np.intp)
        if hours.ndim != 1 or np.any(hours < 0) or np.any(hours >= HOURS_PER_YEAR):
            raise ValueError(f"hours must be a 1-D array of indices in [0, {HOURS_PER_YEAR})")
        day = hours // HOURS_PER_DAY
        hour_of_day = hours % HOURS_PER_DAY
        rng = self._rng(name)
        north = latitude_deg >= 0

        # Temperature.  The seasonal cycle peaks in mid-summer: around day 200
        # in the northern hemisphere and day 20 in the southern one; the
        # diurnal cycle peaks mid-afternoon (15:00) and bottoms before dawn.
        seasonal = climate.seasonal_amplitude_c * np.cos(
            2.0 * math.pi * (day - (200.0 if north else 20.0)) / DAYS_PER_YEAR
        )
        diurnal = climate.diurnal_amplitude_c * np.cos(2.0 * math.pi * (hour_of_day - 15.0) / 24.0)
        daily_noise = rng.normal(0.0, 1.5, DAYS_PER_YEAR)[day]
        hourly_noise = rng.normal(0.0, 0.4, HOURS_PER_YEAR)[hours]
        temperature = climate.mean_temperature_c + seasonal + diurnal + daily_noise + hourly_noise

        # Irradiance.  A day-to-day clearness index: cloudy locations lose
        # more energy and see larger swings between overcast and clear days.
        clear = clear_sky_irradiance(latitude_deg, day, hour_of_day)
        base_clearness = 1.0 - 0.65 * climate.cloudiness
        daily_clearness = np.clip(
            rng.beta(4.0 * (1.0 - climate.cloudiness) + 1.0, 4.0 * climate.cloudiness + 1.0, DAYS_PER_YEAR),
            0.05,
            1.0,
        )[day]
        clearness = 0.5 * base_clearness + 0.5 * daily_clearness
        hourly_flicker = np.clip(rng.normal(1.0, 0.05, HOURS_PER_YEAR)[hours], 0.7, 1.2)
        ghi = np.maximum(0.0, clear * clearness * hourly_flicker)

        # Wind tends to peak in winter, with day-scale lognormal variability
        # approximating a Weibull distribution.
        seasonal = 1.0 + climate.wind_seasonality * np.cos(
            2.0 * math.pi * (day - (15.0 if north else 195.0)) / DAYS_PER_YEAR
        )
        diurnal = 1.0 + 0.15 * np.cos(2.0 * math.pi * (hour_of_day - 14.0) / 24.0)
        daily = rng.lognormal(
            mean=-0.5 * climate.wind_variability**2, sigma=climate.wind_variability, size=DAYS_PER_YEAR
        )[day]
        hourly = np.clip(rng.normal(1.0, 0.15, HOURS_PER_YEAR)[hours], 0.3, 2.0)
        wind = np.maximum(0.0, climate.mean_wind_speed_m_s * seasonal * diurnal * daily * hourly)

        # Pressure: the barometric formula for the mean plus small synoptic noise.
        sea_level_kpa = 101.325
        scale_height_m = 8434.0
        mean_pressure = sea_level_kpa * math.exp(-max(0.0, climate.altitude_m) / scale_height_m)
        pressure = np.maximum(50.0, mean_pressure + rng.normal(0.0, 0.6, DAYS_PER_YEAR)[day])
        return checked_channels(temperature, ghi, wind, pressure)

    # -- helpers ----------------------------------------------------------------
    def _rng(self, name: str) -> np.random.Generator:
        digest = 0
        for char in name:
            digest = (digest * 131 + ord(char)) % (2**31)
        return np.random.default_rng((self.seed * 1_000_003 + digest) % (2**63))
