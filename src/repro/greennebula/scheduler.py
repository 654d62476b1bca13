"""The GreenNebula multi-datacenter scheduler.

Every hour the scheduler (which runs at one of the datacenters) predicts the
green energy production of every datacenter 48 hours ahead, collects the
current workload (average power) from each datacenter, and solves a small
optimisation that re-partitions the workload across the datacenters for the
coming window.  The optimisation is the placement problem of Section II with
the locations and provisioning fixed and the minimum-green constraint
removed: it minimises the brown energy drawn over the window, accounting for
the predicted green production and for the energy overhead of migrating load
between datacenters.  The first hour of the optimised partition is then
turned into a migration schedule by the :class:`MigrationPlanner`.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.greennebula.datacenter import GreenDatacenter
from repro.greennebula.migration import MigrationPlanner, MigrationRequest
from repro.greennebula.prediction import GreenEnergyPredictor
from repro.lpsolver import ConstraintSense, RowFormLP, SolverOptions, highs_backend
from repro.lpsolver.model import coo_to_csc


@dataclass
class ScheduleDecision:
    """Output of one scheduling pass."""

    hour_of_year: float
    target_power_kw: Dict[str, float]
    migrations: List[MigrationRequest]
    predicted_brown_kwh: float
    solve_time_seconds: float
    window_power_kw: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def migrated_power_kw(self) -> float:
        return MigrationPlanner.migrated_power_kw(self.migrations)


class GreenNebulaScheduler:
    """Brown-energy-minimising workload partitioner with a 48-hour look-ahead."""

    def __init__(
        self,
        datacenters: Sequence[GreenDatacenter],
        predictor: Optional[GreenEnergyPredictor] = None,
        planner: Optional[MigrationPlanner] = None,
        horizon_hours: int = 48,
        migration_penalty_kwh: float = 1e-3,
        net_metering: bool = False,
        solver_options: Optional[SolverOptions] = None,
    ) -> None:
        if not datacenters:
            raise ValueError("the scheduler needs at least one datacenter")
        if horizon_hours <= 0:
            raise ValueError("the look-ahead horizon must be positive")
        self.datacenters = list(datacenters)
        self.predictor = predictor or GreenEnergyPredictor(horizon_hours=horizon_hours)
        if self.predictor.horizon_hours != horizon_hours:
            self.predictor.horizon_hours = horizon_hours
        self.planner = planner or MigrationPlanner()
        self.horizon_hours = horizon_hours
        self.migration_penalty_kwh = migration_penalty_kwh
        self.net_metering = net_metering
        self.solver_options = solver_options or SolverOptions()

    # -- the optimisation ------------------------------------------------------------------
    def build_model(
        self,
        hour_of_year: float,
        total_load_kw: float,
        current_load_kw: Mapping[str, float],
        green_forecast_kw: Mapping[str, np.ndarray],
    ) -> tuple[RowFormLP, Dict[str, np.ndarray], Dict[str, np.ndarray]]:
        """Build the window LP; returns (row form, compute columns, migrate columns).

        Each datacenter owns ``compute``, ``migrate`` and ``brown`` columns
        over the horizon, in that order.  Each per-datacenter constraint
        family (migration coupling, capacity, brown balance) is one
        vectorized triplet block of ``horizon`` rows; the column index arrays
        are returned for fancy-indexed extraction from the solve result.
        """
        horizon = self.horizon_hours
        t = np.arange(horizon, dtype=np.int64)
        ones = np.ones(horizon)
        num_cols = 3 * horizon * len(self.datacenters)
        cost = np.zeros(num_cols)
        upper = np.full(num_cols, np.inf)
        compute: Dict[str, np.ndarray] = {}
        migrate: Dict[str, np.ndarray] = {}
        row_parts: List[np.ndarray] = []
        col_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        rhs_parts: List[np.ndarray] = []
        le_parts: List[np.ndarray] = []
        ge_parts: List[np.ndarray] = []

        def block(rows, cols, vals, sense: ConstraintSense, rhs) -> None:
            row_parts.append(rows + horizon * len(rhs_parts))
            col_parts.append(cols)
            val_parts.append(vals)
            rhs_parts.append(np.asarray(rhs, dtype=float))
            le_parts.append(np.full(horizon, sense is ConstraintSense.LESS_EQUAL))
            ge_parts.append(np.full(horizon, sense is ConstraintSense.GREATER_EQUAL))

        for index, dc in enumerate(self.datacenters):
            name = dc.name
            forecast = np.asarray(green_forecast_kw[name], dtype=float)
            if forecast.shape[0] < horizon:
                raise ValueError(f"forecast for {name} shorter than the scheduling horizon")
            base = 3 * horizon * index
            compute[name] = base + t
            migrate[name] = base + horizon + t
            brown = base + 2 * horizon + t
            upper[compute[name]] = dc.it_capacity_kw
            cost[brown] = 1.0
            cost[migrate[name]] = self.migration_penalty_kwh
            pue = np.array([dc.pue(hour_of_year + step) for step in range(horizon)])
            previous_load = float(current_load_kw.get(name, dc.vm_power_kw))

            # Load that leaves this DC still consumes energy here this hour:
            # migrate[t] + compute[t] - compute[t-1] >= 0, with the t=0 row
            # anchored to the currently measured load.
            migration_rhs = np.zeros(horizon)
            migration_rhs[0] = previous_load
            block(
                np.concatenate([t, t, t[1:]]),
                np.concatenate([migrate[name], compute[name], compute[name][:-1]]),
                np.concatenate([ones, ones, -ones[1:]]),
                ConstraintSense.GREATER_EQUAL,
                migration_rhs,
            )
            block(
                np.concatenate([t, t]),
                np.concatenate([compute[name], migrate[name]]),
                np.concatenate([ones, ones]),
                ConstraintSense.LESS_EQUAL,
                np.full(horizon, dc.it_capacity_kw),
            )
            # brown[t] >= pue[t] * (compute[t] + migrate[t]) - forecast[t]
            block(
                np.concatenate([t, t, t]),
                np.concatenate([brown, compute[name], migrate[name]]),
                np.concatenate([ones, -pue, -pue]),
                ConstraintSense.GREATER_EQUAL,
                -forecast[:horizon],
            )

        block(
            np.concatenate([t] * len(self.datacenters)),
            np.concatenate([compute[dc.name] for dc in self.datacenters]),
            np.ones(horizon * len(self.datacenters)),
            ConstraintSense.GREATER_EQUAL,
            np.full(horizon, total_load_kw),
        )
        num_rows = horizon * len(rhs_parts)
        indptr, indices, data = coo_to_csc(
            np.concatenate(row_parts),
            np.concatenate(col_parts),
            np.concatenate(val_parts),
            (num_rows, num_cols),
        )
        rhs = np.concatenate(rhs_parts)
        row_form = RowFormLP(
            cost=cost,
            a_indptr=indptr,
            a_indices=indices,
            a_data=data,
            shape=(num_rows, num_cols),
            row_lower=np.where(np.concatenate(le_parts), -np.inf, rhs),
            row_upper=np.where(np.concatenate(ge_parts), np.inf, rhs),
            lower=np.zeros(num_cols),
            upper=upper,
            integrality=np.zeros(num_cols, dtype=np.int64),
            maximise=False,
            objective_constant=0.0,
        )
        return row_form, compute, migrate

    def schedule(self, hour_of_year: float) -> ScheduleDecision:
        """Run one scheduling pass at the given simulation hour."""
        started = _time.perf_counter()
        current_load = {dc.name: dc.vm_power_kw for dc in self.datacenters}
        total_load = float(sum(current_load.values()))
        forecasts = self.predictor.predict_all(self.datacenters, hour_of_year)
        row_form, compute, _ = self.build_model(hour_of_year, total_load, current_load, forecasts)
        result = highs_backend.solve_row_form(row_form, self.solver_options)
        if not result.is_optimal:
            # Fall back to keeping the current placement.
            targets = dict(current_load)
            predicted_brown = float("nan")
            window = {name: np.full(self.horizon_hours, current_load[name]) for name in current_load}
        else:
            window = {
                name: result.value_array(indices) for name, indices in compute.items()
            }
            targets = {name: max(0.0, float(series[0])) for name, series in window.items()}
            predicted_brown = self._predicted_brown_kwh(window, hour_of_year, forecasts)
        migrations = self.planner.plan(self.datacenters, targets)
        elapsed = _time.perf_counter() - started
        return ScheduleDecision(
            hour_of_year=hour_of_year,
            target_power_kw=targets,
            migrations=migrations,
            predicted_brown_kwh=predicted_brown,
            solve_time_seconds=elapsed,
            window_power_kw=window,
        )

    # -- helpers ------------------------------------------------------------------------------
    def _predicted_brown_kwh(
        self,
        window: Mapping[str, np.ndarray],
        hour_of_year: float,
        forecasts: Mapping[str, np.ndarray],
    ) -> float:
        total = 0.0
        for dc in self.datacenters:
            series = window[dc.name]
            forecast = np.asarray(forecasts[dc.name], dtype=float)[: len(series)]
            pue = np.array([dc.pue(hour_of_year + t) for t in range(len(series))])
            total += float(np.sum(np.maximum(0.0, series * pue - forecast)))
        return total
