"""Per-location epoch profiles consumed by the placement framework.

The optimisation of Fig. 1 works on discrete time slots ("epochs").  Using
all 8760 hours of the TMY year for every candidate location makes the LPs
needlessly large, so — like the paper's own tool — we aggregate the year into
a set of *representative days*, each standing in for an equal slice of the
year, split into epochs of a few hours.  A :class:`LocationProfile` holds the
aggregated ``alpha``/``beta``/``PUE`` series for one location together with
the per-location scalars (prices, distances, plant capacity) needed by the
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.energy.capacity_factor import capacity_factor
from repro.energy.pue import PUEModel
from repro.energy.solar_plant import SolarPanelModel
from repro.energy.wind_plant import WindTurbineModel
from repro.weather.locations import Location, WorldCatalog
from repro.weather.records import DAYS_PER_YEAR, HOURS_PER_DAY, HOURS_PER_YEAR


def calibrate_series(
    series: np.ndarray,
    target_mean: float,
    upper: float = 1.0,
    iterations: int = 60,
) -> np.ndarray:
    """Scale a production series so its mean hits ``target_mean``.

    Scaling preserves the diurnal/seasonal shape; values are clipped to
    ``[0, upper]`` and the scale factor is re-estimated a few times so the
    clipped series converges to the requested mean (used to pin anchor
    locations to the capacity factors published in the paper).
    """
    values = np.clip(np.asarray(series, dtype=float), 0.0, upper)
    if not 0.0 <= target_mean <= upper:
        raise ValueError(f"target mean {target_mean} outside [0, {upper}]")
    if target_mean == 0.0:
        return np.zeros_like(values)
    if float(values.max()) <= 0.0:
        # Nothing to scale: fall back to a flat series at the target level.
        return np.full_like(values, target_mean)
    if abs(float(values.mean()) - target_mean) <= 1e-6:
        # Already calibrated (e.g. a series rebuilt from calibrated data).
        return values

    def mean_at(scale: float) -> float:
        return float(np.clip(values * scale, 0.0, upper).mean())

    # The clipped mean is non-decreasing in the scale factor, so a simple
    # bisection finds the factor that hits the target (when it is reachable).
    low, high = 0.0, 1.0
    high_mean = mean_at(high)
    growth = 0
    while high_mean < target_mean and growth < 60:
        high *= 4.0
        high_mean = mean_at(high)
        growth += 1
    if high_mean < target_mean:
        # Target unreachable (too few non-zero entries): return the best effort.
        return np.clip(values * high, 0.0, upper)
    for _ in range(iterations):
        middle = 0.5 * (low + high)
        middle_mean = mean_at(middle)
        if middle_mean < target_mean:
            low = middle
        else:
            high = middle
            high_mean = middle_mean
        if abs(high_mean - target_mean) <= 1e-6:
            break
    return np.clip(values * high, 0.0, upper)


class _HourLayout:
    """The flattened hour layout both epoch-grid kinds share.

    A grid's *hour layout* lists the hour of year of every hour its epochs
    cover, epoch after epoch.  It is computed once per grid (the grids are
    frozen) and is all the profile build reads: weather is synthesised and
    the plant models run at the layout's hours only, and
    :meth:`epoch_means` averages values given in layout order per epoch.
    """

    representative_days: tuple
    _hours: np.ndarray
    _groups: Tuple[Tuple[np.ndarray, np.ndarray], ...]

    def _set_layout(self, day_patterns) -> None:
        hours: List[int] = []
        lengths: List[int] = []
        for day, pattern in zip(self.representative_days, day_patterns):
            start = day * HOURS_PER_DAY
            for length in map(int, pattern):
                hours.extend(range(start, start + length))
                lengths.append(length)
                start += length
        layout = np.array(hours, dtype=np.intp)
        layout.setflags(write=False)
        # Epochs of one length average as one 2-D ``mean(axis=1)``: the same
        # pairwise sum per epoch as a 1-D mean, so every grid kind rounds alike.
        epoch_lengths = np.array(lengths)
        ends = np.cumsum(epoch_lengths)
        groups = []
        for length in np.unique(epoch_lengths):
            epochs = np.flatnonzero(epoch_lengths == length)
            groups.append((epochs, (ends[epochs] - length)[:, None] + np.arange(length)))
        object.__setattr__(self, "_hours", layout)
        object.__setattr__(self, "_groups", tuple(groups))

    @property
    def hour_layout(self) -> np.ndarray:
        """Hour of year of every epoch hour, epoch after epoch (read-only)."""
        return self._hours

    def epoch_means(self, values: np.ndarray) -> np.ndarray:
        """Per-epoch means of ``values`` given in :attr:`hour_layout` order."""
        values = np.asarray(values, dtype=float)
        means = np.empty(sum(len(epochs) for epochs, _ in self._groups))
        for epochs, positions in self._groups:
            means[epochs] = values[positions].mean(axis=1)
        return means

    def aggregate(self, hourly_values: np.ndarray) -> np.ndarray:
        """Average an 8760-hour array into the epoch grid."""
        return self.epoch_means(np.asarray(hourly_values, dtype=float)[self._hours])


@dataclass(frozen=True)
class EpochGrid(_HourLayout):
    """Discretisation of the year into epochs over representative days.

    Attributes
    ----------
    representative_days:
        Day-of-year indices (0-based) of the days that stand in for the year.
    hours_per_epoch:
        Epoch duration; must divide 24.
    """

    representative_days: tuple
    hours_per_epoch: int = 1

    def __post_init__(self) -> None:
        if not self.representative_days:
            raise ValueError("at least one representative day is required")
        if HOURS_PER_DAY % self.hours_per_epoch != 0:
            raise ValueError("hours_per_epoch must divide 24")
        for day in self.representative_days:
            if not 0 <= day < DAYS_PER_YEAR:
                raise ValueError(f"representative day {day} outside the year")
        pattern = (self.hours_per_epoch,) * self.epochs_per_day
        self._set_layout([pattern] * len(self.representative_days))

    @classmethod
    def from_seasons(cls, days_per_season: int = 1, hours_per_epoch: int = 3) -> "EpochGrid":
        """Pick representative days spread over the four seasons.

        With the defaults this yields 4 days x 8 epochs = 32 epochs, which is
        what the fast test configurations use; benchmarks use finer grids.
        """
        season_centres = (15, 105, 196, 288)  # mid-Jan, mid-Apr, mid-Jul, mid-Oct
        days: List[int] = []
        for centre in season_centres:
            for offset in range(days_per_season):
                days.append((centre + offset * 7) % DAYS_PER_YEAR)
        return cls(representative_days=tuple(sorted(days)), hours_per_epoch=hours_per_epoch)

    @property
    def epochs_per_day(self) -> int:
        return HOURS_PER_DAY // self.hours_per_epoch

    @property
    def num_epochs(self) -> int:
        return len(self.representative_days) * self.epochs_per_day

    @property
    def day_weight(self) -> float:
        """Number of real days each representative day stands for."""
        return DAYS_PER_YEAR / len(self.representative_days)

    @property
    def epoch_hours(self) -> float:
        """Duration of one epoch in hours (within its representative day)."""
        return float(self.hours_per_epoch)

    def epoch_weights_hours(self) -> np.ndarray:
        """Hours of the year represented by each epoch (sums to 8760)."""
        weight = self.hours_per_epoch * self.day_weight
        return np.full(self.num_epochs, weight)

    def hour_indices(self) -> np.ndarray:
        """Hour-of-year index array of shape (num_epochs, hours_per_epoch)."""
        return self._hours.reshape(self.num_epochs, self.hours_per_epoch)

    def epoch_index(self, hour_of_year: float) -> int:
        """Map an absolute hour cyclically onto the grid's epoch sequence.

        The emulation layer runs simulation time over the grid's
        representative days back to back, so the mapping wraps around.
        """
        return int(hour_of_year // self.hours_per_epoch) % self.num_epochs


@dataclass(frozen=True)
class RefinedEpochGrid(_HourLayout):
    """Epoch grid with *non-uniform* epoch durations.

    Produced by the adaptive epoch-grid scheme
    (:mod:`repro.core.adaptive_grid`): most of a representative day stays at
    a coarse resolution while the spans where the provisioning plan is
    storage- or migration-bound are split back to full resolution.
    ``day_patterns`` holds one tuple of epoch durations (in hours) per
    representative day; each pattern must sum to 24.  The interface mirrors
    :class:`EpochGrid` except that ``epoch_hours`` (and ``hours_per_epoch``)
    are per-epoch rather than scalar — the model builders broadcast either
    form.
    """

    representative_days: tuple
    day_patterns: tuple

    def __post_init__(self) -> None:
        if not self.representative_days:
            raise ValueError("at least one representative day is required")
        if len(self.day_patterns) != len(self.representative_days):
            raise ValueError("one duration pattern per representative day is required")
        for pattern in self.day_patterns:
            if not pattern or sum(pattern) != HOURS_PER_DAY:
                raise ValueError("every day pattern must sum to 24 hours")
            if any(int(h) != h or h < 1 for h in pattern):
                raise ValueError("epoch durations must be whole hours of at least one hour")
        for day in self.representative_days:
            if not 0 <= day < DAYS_PER_YEAR:
                raise ValueError(f"representative day {day} outside the year")
        # Cumulative epoch end-hours, precomputed once: epoch_index runs per
        # simulated hour per datacenter in the emulation loop.
        object.__setattr__(self, "_epoch_ends", np.cumsum(self.epoch_hours))
        self._set_layout(self.day_patterns)

    @property
    def hours_per_epoch(self) -> tuple:
        """Per-day duration patterns; doubles as the grid-equality key."""
        return self.day_patterns

    @property
    def num_epochs(self) -> int:
        return sum(len(pattern) for pattern in self.day_patterns)

    @property
    def day_weight(self) -> float:
        """Number of real days each representative day stands for."""
        return DAYS_PER_YEAR / len(self.representative_days)

    @property
    def epoch_hours(self) -> np.ndarray:
        """Duration of each epoch in hours (non-uniform array form)."""
        return np.array(
            [hours for pattern in self.day_patterns for hours in pattern], dtype=float
        )

    def epoch_weights_hours(self) -> np.ndarray:
        """Hours of the year represented by each epoch (sums to 8760)."""
        return self.epoch_hours * self.day_weight

    def hour_indices(self) -> List[np.ndarray]:
        """Hour-of-year indices per epoch (ragged: one array per epoch)."""
        return np.split(self._hours, self._epoch_ends[:-1].astype(np.intp))

    def epoch_index(self, hour_of_year: float) -> int:
        """Map an absolute hour cyclically onto the non-uniform epochs."""
        ends = self._epoch_ends
        wrapped = float(hour_of_year) % ends[-1]
        return int(np.searchsorted(ends, wrapped, side="right"))


@dataclass
class LocationProfile:
    """Everything the cost model and the optimiser need about one location."""

    location: Location
    epochs: EpochGrid
    solar_alpha: np.ndarray
    wind_beta: np.ndarray
    pue: np.ndarray
    land_price_per_m2: float
    energy_price_per_kwh: float
    distance_power_km: float
    distance_network_km: float
    near_plant_capacity_kw: float

    def __post_init__(self) -> None:
        expected = self.epochs.num_epochs
        for name in ("solar_alpha", "wind_beta", "pue"):
            array = np.asarray(getattr(self, name), dtype=float)
            if array.shape != (expected,):
                raise ValueError(f"profile series {name} must have {expected} epochs")
            setattr(self, name, array)
        if np.any(self.pue < 1.0 - 1e-9):
            raise ValueError("PUE cannot be below 1.0")

    @property
    def name(self) -> str:
        return self.location.name

    @property
    def solar_capacity_factor(self) -> float:
        return capacity_factor(self.solar_alpha)

    @property
    def wind_capacity_factor(self) -> float:
        return capacity_factor(self.wind_beta)

    @property
    def average_pue(self) -> float:
        return float(np.mean(self.pue))

    @property
    def max_pue(self) -> float:
        return float(np.max(self.pue))


class ProfileBuilder:
    """Build :class:`LocationProfile` objects from a :class:`WorldCatalog`.

    A profile reads each location on a few representative days only (96 of
    8760 hours on a four-day hourly grid), so :meth:`build` asks the catalogue
    for the weather at exactly the grid's hours, shifted to UTC, runs the
    solar, wind and PUE models on those values and averages them per epoch.
    No hourly year is synthesised or kept, and the result is bit-identical
    to aggregating the full-year series.  Built profiles are cached per
    ``(location, grid)``.
    """

    def __init__(
        self,
        catalog: WorldCatalog,
        solar_model: Optional[SolarPanelModel] = None,
        wind_model: Optional[WindTurbineModel] = None,
        pue_model: Optional[PUEModel] = None,
    ) -> None:
        self.catalog = catalog
        self.solar_model = solar_model or SolarPanelModel()
        self.wind_model = wind_model or WindTurbineModel()
        self.pue_model = pue_model or PUEModel()
        self._cache: Dict[tuple, LocationProfile] = {}

    def build(self, location: Location, epochs: EpochGrid) -> LocationProfile:
        """Build (and cache) the profile of one location on an epoch grid."""
        key = (location.name, epochs.representative_days, epochs.hours_per_epoch)
        if key in self._cache:
            return self._cache[key]
        # The TMY channels are in local solar time; the optimiser and the
        # GreenNebula scheduler reason about all locations at the same instant,
        # so the series are shifted to UTC.  This is what makes the sun "move"
        # from one candidate location to the next — the effect the
        # follow-the-renewables solutions exploit.  UTC hour ``h`` is local
        # hour ``(h + shift) % 8760``, so only the local hours the grid reads
        # are synthesised and run through the plant models.
        shift = int(round(location.point.longitude / 15.0))
        tmy = self.catalog.tmy(location, (epochs.hour_layout + shift) % HOURS_PER_YEAR)
        alpha = epochs.epoch_means(
            self.solar_model.production_fraction(tmy["ghi_w_m2"], tmy["temperature_c"])
        )
        beta = epochs.epoch_means(
            self.wind_model.production_fraction(
                tmy["wind_speed_m_s"], tmy["pressure_kpa"], tmy["temperature_c"]
            )
        )
        pue = epochs.epoch_means(self.pue_model.series(tmy["temperature_c"]))

        overrides = location.overrides
        if overrides.solar_capacity_factor is not None:
            alpha = calibrate_series(alpha, overrides.solar_capacity_factor)
        if overrides.wind_capacity_factor is not None:
            beta = calibrate_series(beta, overrides.wind_capacity_factor)
        if overrides.max_pue is not None:
            pue = _calibrate_pue(pue, overrides.max_pue, self.pue_model.min_pue)

        profile = LocationProfile(
            location=location,
            epochs=epochs,
            solar_alpha=alpha,
            wind_beta=beta,
            pue=pue,
            land_price_per_m2=self.catalog.land_price_per_m2(location),
            energy_price_per_kwh=self.catalog.energy_price_per_kwh(location),
            distance_power_km=self.catalog.distance_to_power_km(location),
            distance_network_km=self.catalog.distance_to_network_km(location),
            near_plant_capacity_kw=self.catalog.near_plant_capacity_kw(location),
        )
        self._cache[key] = profile
        return profile

    def build_all(
        self, epochs: EpochGrid, names: Optional[Iterable[str]] = None
    ) -> List[LocationProfile]:
        """Profiles for all (or the named subset of) catalogue locations."""
        if names is None:
            locations: Sequence[Location] = self.catalog.locations
        else:
            locations = [self.catalog.get(name) for name in names]
        return [self.build(location, epochs) for location in locations]


def _calibrate_pue(pue: np.ndarray, target_max: float, floor: float) -> np.ndarray:
    """Rescale a PUE series so its maximum equals ``target_max`` (>= floor)."""
    target_max = max(target_max, floor)
    overhead = pue - 1.0
    peak = float(overhead.max())
    if peak <= 1e-9:
        return np.full_like(pue, target_max)
    scaled = 1.0 + overhead * ((target_max - 1.0) / peak)
    return np.maximum(scaled, 1.0)
