"""Pluggable energy/load forecasters for the online operations subsystem.

The dispatch core re-solves a sliding-window LP whose right-hand sides are
*forecasts* — of the global service demand and of every site's green
production.  This module provides the forecaster family the replay harness
(and the GreenNebula predictor) draw from:

* :class:`OracleForecaster` — perfect foresight; the regret baseline.
* :class:`NoisyOracleForecaster` — the truth times multiplicative noise with
  a configurable error level, the paper's "what if predictions are off by
  x %" knob.
* :class:`PersistenceForecaster` — tomorrow looks like right now.
* :class:`SeasonalNaiveForecaster` — tomorrow looks like the same hour of the
  previous period (24 h by default), the strongest cheap baseline for
  diurnal series.

Every forecaster is **stateless and deterministic**: the noise applied to a
target step depends only on ``(seed, series key, absolute step index)``, via
a counter-style construction (:func:`deterministic_noise`), never on how many
forecasts were issued before.  Two processes replaying the same trace —
serial, thread or process executors — therefore see bit-identical forecasts,
which is what makes replay records reproducible across
:class:`~repro.parallel.executors.ExecutorFactory` kinds.

Forecasters see the *actual* series as an array plus the index of "now"; the
contract is that non-oracle forecasters may only read ``actuals[: now + 1]``
(the observed past).  The oracle kinds deliberately break it — that is their
job.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

#: Registered forecaster kinds, in documentation order.
FORECASTER_KINDS = ("oracle", "noisy-oracle", "persistence", "seasonal-naive")


def _mix_u64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer: a bijective avalanche hash on uint64 arrays."""
    values = values + np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def deterministic_noise(
    seed: int, key: str, indices: np.ndarray, std: float
) -> np.ndarray:
    """Multiplicative noise factors that depend only on (seed, key, index).

    Counter-based: each factor is derived by hashing ``(seed, key, absolute
    step index)`` — SplitMix64 avalanche to a uniform, inverse normal CDF to
    a Gaussian — entirely vectorized, with no RNG state.  Re-forecasting the
    same target step always yields the same factor, no matter how many
    forecasts were issued in between or which process issues them.  Factors
    are clipped at zero (production and demand cannot go negative).
    """
    if std < 0:
        raise ValueError("the noise level cannot be negative")
    indices = np.atleast_1d(np.asarray(indices)).astype(np.int64)
    if std == 0.0:  # reprolint: ok(FLT001) exact noise-free sentinel from config, not a solver result
        return np.ones(indices.shape)
    key_hash = np.uint64(zlib.crc32(key.encode("utf-8")))
    # 1-element array, not a scalar: numpy warns on scalar integer overflow
    # but wraps arrays silently, which is exactly what a mixing hash wants.
    stream = _mix_u64(
        np.array([int(seed) & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        ^ (key_hash << np.uint64(32))
    )[0]
    bits = _mix_u64(indices.astype(np.uint64) ^ stream)
    # Top 53 bits -> uniform in (0, 1), offset half a ulp so ndtri never
    # sees an exact 0 or 1.
    uniform = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)
    return np.clip(1.0 + std * _ndtri()(uniform), 0.0, None)


@functools.lru_cache(maxsize=None)
def _ndtri() -> Callable[[np.ndarray], np.ndarray]:
    """``scipy.special.ndtri``, imported on the first noisy draw and bound once.

    ``scipy.special`` takes 0.1-0.2 s to import; only noisy replays need
    it, so a process that plans without operating never loads it.
    """
    from scipy.special import ndtri

    return ndtri


@dataclass(frozen=True)
class Forecaster:
    """Base class: a named forecaster over one scalar series.

    ``key`` names the series ("demand", a site name, ...) so noise streams of
    different series never correlate.
    """

    key: str = "series"

    @property
    def kind(self) -> str:  # pragma: no cover - overridden by subclasses
        raise NotImplementedError

    def forecast(self, actuals: np.ndarray, now: int, horizon: int) -> np.ndarray:
        """Predicted values for steps ``now .. now + horizon - 1``."""
        raise NotImplementedError


@dataclass(frozen=True)
class OracleForecaster(Forecaster):
    """Perfect foresight: the actual series, verbatim."""

    @property
    def kind(self) -> str:
        return "oracle"

    def forecast(self, actuals: np.ndarray, now: int, horizon: int) -> np.ndarray:
        return np.asarray(actuals[now : now + horizon], dtype=float).copy()


@dataclass(frozen=True)
class NoisyOracleForecaster(Forecaster):
    """The truth times seeded multiplicative noise of configurable level."""

    error: float = 0.1
    seed: int = 0

    @property
    def kind(self) -> str:
        return "noisy-oracle"

    def forecast(self, actuals: np.ndarray, now: int, horizon: int) -> np.ndarray:
        window = np.asarray(actuals[now : now + horizon], dtype=float)
        factors = deterministic_noise(
            self.seed, self.key, now + np.arange(len(window)), self.error
        )
        return window * factors


@dataclass(frozen=True)
class PersistenceForecaster(Forecaster):
    """The last observed value, repeated over the horizon."""

    @property
    def kind(self) -> str:
        return "persistence"

    def forecast(self, actuals: np.ndarray, now: int, horizon: int) -> np.ndarray:
        return np.full(horizon, float(actuals[now]))


@dataclass(frozen=True)
class SeasonalNaiveForecaster(Forecaster):
    """The observed value one period earlier (same hour yesterday).

    Steps whose seasonal reference has not been observed yet (the first
    period of a trace, or horizon steps reaching past "now") walk back in
    whole periods until they land on an observed index, falling back to
    persistence at the very start of the series.
    """

    period: int = 24

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("the seasonal period must be at least one step")

    @property
    def kind(self) -> str:
        return "seasonal-naive"

    def forecast(self, actuals: np.ndarray, now: int, horizon: int) -> np.ndarray:
        values = np.empty(horizon)
        for offset in range(horizon):
            index = now + offset - self.period
            while index > now:  # reference not observed yet: walk back a period
                index -= self.period
            values[offset] = float(actuals[max(index, 0) if index >= 0 else 0])
            if index < 0:  # before the series started: persistence fallback
                values[offset] = float(actuals[now])
        return values


def make_forecaster(
    kind: str,
    key: str = "series",
    error: float = 0.0,
    seed: int = 0,
    period: int = 24,
) -> Forecaster:
    """Build a registered forecaster by kind name."""
    if kind == "oracle":
        return OracleForecaster(key=key)
    if kind == "noisy-oracle":
        return NoisyOracleForecaster(key=key, error=error, seed=seed)
    if kind == "persistence":
        return PersistenceForecaster(key=key)
    if kind == "seasonal-naive":
        return SeasonalNaiveForecaster(key=key, period=period)
    raise ValueError(f"unknown forecaster kind {kind!r}; expected one of {FORECASTER_KINDS}")


class RollingForecast:
    """A forecast re-issued on a cadence and consumed step by step.

    The dispatch loop advances one step at a time but only *re-issues*
    forecasts every ``cadence`` steps (the rolling re-forecast cadence of the
    subsystem).  Between issues the stale forecast is consumed at a growing
    offset; the issue horizon is padded by ``cadence - 1`` steps so the
    window never outruns it.
    """

    def __init__(self, forecaster: Forecaster, horizon: int, cadence: int = 1) -> None:
        if horizon < 1:
            raise ValueError("the forecast horizon must be at least one step")
        if cadence < 1:
            raise ValueError("the re-forecast cadence must be at least one step")
        self.forecaster = forecaster
        self.horizon = horizon
        self.cadence = cadence
        self._issued_at: Optional[int] = None
        self._issued: Optional[np.ndarray] = None

    def window(self, actuals: np.ndarray, now: int) -> np.ndarray:
        """The horizon-long forecast window for step ``now``."""
        if self._issued_at is None or now - self._issued_at >= self.cadence or now < self._issued_at:
            self._issued_at = now
            self._issued = self.forecaster.forecast(
                actuals, now, self.horizon + self.cadence - 1
            )
        offset = now - self._issued_at
        return np.asarray(self._issued[offset : offset + self.horizon], dtype=float)
