"""Deterministic synthetic TMY generation.

Each location is described by a :class:`ClimateProfile`; the
:class:`TMYGenerator` turns a profile into hourly weather that is fully
deterministic for a given ``(seed, location name)`` pair, so every run of the
test-suite and the benchmarks sees exactly the same "weather".

There is one synthesis path, :meth:`TMYGenerator.sample_block`, which
returns the four channels of a block of locations, each at its own set of
hour-of-year indices.  The profile build asks only for the hours its epoch
grid reads (96 of 8760 on a four-day grid), shifted per location to UTC.
:meth:`TMYGenerator.sample` is a block of one location, and
:meth:`TMYGenerator.generate` is ``sample`` over the whole year wrapped in a
:class:`~repro.weather.records.TMYDataset`.  The values depend neither on
which hours are asked for nor on the other locations of the block: a sampled
hour equals the same hour of the location's full year bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

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
        """The four TMY channels of one location at the hour-of-year indices ``hours``.

        :meth:`sample_block` with a block of one location.
        """
        hours = np.asarray(hours, dtype=np.intp)
        block = self.sample_block([name], [latitude_deg], [climate], hours[None, :])
        return {channel: values[0] for channel, values in block.items()}

    def sample_block(
        self,
        names: Sequence[str],
        latitudes_deg: Sequence[float],
        climates: Sequence[ClimateProfile],
        hours,
    ) -> Dict[str, np.ndarray]:
        """The four TMY channels of a block of locations, one row per location.

        ``hours`` is an array of hour-of-year indices with one row per
        location; row ``i`` may be unsorted and may repeat.  Entry ``[i, j]``
        of every channel is the value of hour ``hours[i, j]`` of location
        ``i``'s full-year TMY, bit for bit, whatever else is in the block.
        Each location draws its own noise arrays at full length (365 daily,
        8760 hourly values) in a fixed order and gathers its row: NumPy's
        normal sampler consumes a variable amount of the random stream, so no
        draw can be skipped without changing the ones after it.  Everything
        else — the seasonal and diurnal cycles, clear-sky geometry and the
        channel arithmetic — runs once over the whole (locations x hours)
        block, with each location's parameters as a column.
        """
        hours = np.asarray(hours, dtype=np.intp)
        if (
            hours.ndim != 2
            or hours.shape[0] != len(names)
            or np.any(hours < 0)
            or np.any(hours >= HOURS_PER_YEAR)
        ):
            raise ValueError(
                f"hours must be a 2-D array of indices in [0, {HOURS_PER_YEAR}), "
                "one row per location"
            )
        day = hours // HOURS_PER_DAY
        hour_of_day = hours % HOURS_PER_DAY
        rngs = [self._rng(name) for name in names]

        def drawn(indices: np.ndarray, draw) -> np.ndarray:
            """Every location's next full-length draw, gathered at its row of ``indices``.

            The channels below call this in a fixed order, so each location's
            stream is consumed exactly as a block of one would consume it.
            """
            rows = np.empty(indices.shape)
            for row, (rng, climate) in enumerate(zip(rngs, climates)):
                rows[row] = draw(rng, climate)[indices[row]]
            return rows

        def column(values) -> np.ndarray:
            return np.array(list(values), dtype=float).reshape(-1, 1)

        def climate_column(field: str) -> np.ndarray:
            return column(getattr(climate, field) for climate in climates)

        latitude = column(latitudes_deg)
        north = latitude >= 0

        # Temperature.  The seasonal cycle peaks in mid-summer: around day 200
        # in the northern hemisphere and day 20 in the southern one; the
        # diurnal cycle peaks mid-afternoon (15:00) and bottoms before dawn.
        seasonal = climate_column("seasonal_amplitude_c") * np.cos(
            2.0 * math.pi * (day - np.where(north, 200.0, 20.0)) / DAYS_PER_YEAR
        )
        diurnal = climate_column("diurnal_amplitude_c") * np.cos(
            2.0 * math.pi * (hour_of_day - 15.0) / 24.0
        )
        temperature = (
            climate_column("mean_temperature_c")
            + seasonal
            + diurnal
            + drawn(day, lambda rng, _: rng.normal(0.0, 1.5, DAYS_PER_YEAR))
            + drawn(hours, lambda rng, _: rng.normal(0.0, 0.4, HOURS_PER_YEAR))
        )

        # Irradiance.  A day-to-day clearness index: cloudy locations lose
        # more energy and see larger swings between overcast and clear days.
        clear = clear_sky_irradiance(latitude, day, hour_of_day)
        base_clearness = 1.0 - 0.65 * climate_column("cloudiness")
        daily_clearness = drawn(
            day,
            lambda rng, climate: rng.beta(
                4.0 * (1.0 - climate.cloudiness) + 1.0,
                4.0 * climate.cloudiness + 1.0,
                DAYS_PER_YEAR,
            ),
        )
        clearness = 0.5 * base_clearness + 0.5 * np.clip(daily_clearness, 0.05, 1.0)
        # Each (locations x hours) temporary is dropped once used: how many
        # are alive at once sets the block build's peak memory.
        del daily_clearness
        hourly_flicker = np.clip(
            drawn(hours, lambda rng, _: rng.normal(1.0, 0.05, HOURS_PER_YEAR)), 0.7, 1.2
        )
        ghi = np.maximum(0.0, clear * clearness * hourly_flicker)
        del clear, clearness, hourly_flicker

        # Wind tends to peak in winter, with day-scale lognormal variability
        # approximating a Weibull distribution.
        seasonal = 1.0 + climate_column("wind_seasonality") * np.cos(
            2.0 * math.pi * (day - np.where(north, 15.0, 195.0)) / DAYS_PER_YEAR
        )
        diurnal = 1.0 + 0.15 * np.cos(2.0 * math.pi * (hour_of_day - 14.0) / 24.0)
        daily = drawn(
            day,
            lambda rng, climate: rng.lognormal(
                mean=-0.5 * climate.wind_variability**2,
                sigma=climate.wind_variability,
                size=DAYS_PER_YEAR,
            ),
        )
        hourly = np.clip(drawn(hours, lambda rng, _: rng.normal(1.0, 0.15, HOURS_PER_YEAR)), 0.3, 2.0)
        wind = np.maximum(
            0.0, climate_column("mean_wind_speed_m_s") * seasonal * diurnal * daily * hourly
        )
        del seasonal, diurnal, daily, hourly

        # Pressure: the barometric formula for the mean plus small synoptic noise.
        sea_level_kpa = 101.325
        scale_height_m = 8434.0
        mean_pressure = column(
            sea_level_kpa * math.exp(-max(0.0, climate.altitude_m) / scale_height_m)
            for climate in climates
        )
        pressure = np.maximum(
            50.0, mean_pressure + drawn(day, lambda rng, _: rng.normal(0.0, 0.6, DAYS_PER_YEAR))
        )
        return checked_channels(temperature, ghi, wind, pressure)

    # -- helpers ----------------------------------------------------------------
    def _rng(self, name: str) -> np.random.Generator:
        digest = 0
        for char in name:
            digest = (digest * 131 + ord(char)) % (2**31)
        return np.random.default_rng((self.seed * 1_000_003 + digest) % (2**63))
