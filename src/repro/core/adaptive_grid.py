"""Adaptive epoch-grid refinement for the siting heuristic.

Fine epoch grids (hourly, multi-day seasons) make every provisioning LP of
the annealing search proportionally larger, yet most of the optimised cost is
determined by a handful of epochs: the ones where the plan actually cycles
its batteries or net-metering bank, or shifts load between sites.  This
module implements the scheme the ROADMAP calls for:

1. the *search* (location filter + annealing chains) runs on a grid whose
   epochs are ``factor`` times coarser — every LP shrinks by that factor;
2. the best siting found is then re-solved on *selectively refined* grids:
   only the coarse epochs where the plan is storage- or migration-bound are
   split back to full resolution (a :class:`~repro.energy.profiles.RefinedEpochGrid`
   with non-uniform epoch durations), and the loop stops once the objective
   changes by less than a relative tolerance between rounds.

Coarse profiles are *group means of the fine profiles* (equal-duration
groups, so this matches aggregating the underlying hourly data exactly and
preserves each location's annual energy), which is what makes the refined
objectives converge to the fine-grid objective as groups split.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro.core.problem import SitingProblem
from repro.core.provisioning import ProvisioningResult, solve_provisioning
from repro.energy.profiles import EpochGrid, LocationProfile, RefinedEpochGrid
from repro.lpsolver import SolverOptions


def can_coarsen(grid, factor: int) -> bool:
    """Whether ``factor``-epoch groups tile every day of a uniform grid."""
    if factor <= 1:
        return False
    hours = getattr(grid, "hours_per_epoch", None)
    if not isinstance(hours, int):
        return False  # already refined / non-uniform
    epochs_per_day = getattr(grid, "epochs_per_day", 0)
    return epochs_per_day % factor == 0 and hours * factor <= 24


def _grouped_profile(
    profile: LocationProfile, grid, group_bounds: np.ndarray
) -> LocationProfile:
    """The profile's series averaged over fine-epoch groups, on ``grid``."""

    def group_means(series: np.ndarray) -> np.ndarray:
        # Groups are contiguous runs of equal-duration fine epochs, so the
        # duration-weighted mean is the plain mean: reduceat + divide.
        sums = np.add.reduceat(series, group_bounds[:-1])
        return sums / np.diff(group_bounds)

    return replace(
        profile,
        epochs=grid,
        solar_alpha=group_means(profile.solar_alpha),
        wind_beta=group_means(profile.wind_beta),
        pue=group_means(profile.pue),
    )


def coarsen_problem(problem: SitingProblem, factor: int) -> SitingProblem:
    """The same problem on a grid ``factor`` times coarser.

    The coarse profiles are group means of the problem's (already
    calibrated) fine profiles, so scenario overrides such as pinned capacity
    factors survive the coarsening.
    """
    fine = problem.epochs
    if not can_coarsen(fine, factor):
        raise ValueError(f"cannot coarsen a {fine!r} grid by {factor}")
    coarse_hours = fine.hours_per_epoch * factor
    if 24 % coarse_hours == 0:
        grid = EpochGrid(
            representative_days=fine.representative_days, hours_per_epoch=coarse_hours
        )
    else:
        # Coarse epochs of e.g. 9 hours do not divide 24; carry them as a
        # uniform RefinedEpochGrid instead.
        pattern = tuple([coarse_hours] * (fine.epochs_per_day // factor))
        grid = RefinedEpochGrid(
            representative_days=fine.representative_days,
            day_patterns=tuple([pattern] * len(fine.representative_days)),
        )
    bounds = np.arange(0, fine.num_epochs + 1, factor)
    profiles = [_grouped_profile(p, grid, bounds) for p in problem.profiles]
    return replace(problem, profiles=profiles)


@dataclass
class AdaptiveGridReport:
    """Diagnostics of one refinement run."""

    rounds: int
    converged: bool
    objective_trace: List[float]
    num_epochs_trace: List[int]


class AdaptiveGridRefiner:
    """Refines a fixed siting's provisioning solve toward the fine grid.

    The refiner keeps, per representative day, a partition of the day's fine
    epochs into contiguous groups (initially all of size ``factor``).  Each
    round solves the provisioning LP on the partition's grid, finds the
    epochs where the plan is storage- or migration-bound (battery or
    net-metering charge/discharge, or migration power, above
    ``activity_threshold`` relative to the service capacity) and splits those
    groups to full resolution.  The loop stops when the objective moves by
    less than ``tolerance`` (relative) between rounds, when nothing is left
    to split, or after ``max_rounds`` rounds.
    """

    def __init__(
        self,
        problem: SitingProblem,
        factor: int,
        tolerance: float = 0.002,
        max_rounds: int = 6,
        options: Optional[SolverOptions] = None,
        activity_threshold: float = 1e-6,
    ) -> None:
        fine = problem.epochs
        if not can_coarsen(fine, factor):
            raise ValueError(f"cannot coarsen a {fine!r} grid by {factor}")
        self.problem = problem
        self.factor = factor
        self.tolerance = tolerance
        self.max_rounds = max_rounds
        self.options = options or SolverOptions()
        self.activity_threshold = activity_threshold
        self._fine_epochs_per_day = fine.epochs_per_day
        self._fine_hours = fine.hours_per_epoch
        # Group sizes (in fine epochs) per representative day.
        self._partition: List[List[int]] = [
            [factor] * (fine.epochs_per_day // factor)
            for _ in fine.representative_days
        ]

    # -- partition helpers --------------------------------------------------------
    def _is_fine(self) -> bool:
        return all(size == 1 for day in self._partition for size in day)

    def _partition_problem(self, base: SitingProblem) -> SitingProblem:
        if self._is_fine():
            return base
        fine = base.epochs
        day_patterns = tuple(
            tuple(size * self._fine_hours for size in day) for day in self._partition
        )
        grid = RefinedEpochGrid(
            representative_days=fine.representative_days, day_patterns=day_patterns
        )
        sizes = np.array([size for day in self._partition for size in day])
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        profiles = [_grouped_profile(p, grid, bounds) for p in base.profiles]
        return replace(base, profiles=profiles)

    def _bound_epochs(self, result: ProvisioningResult) -> np.ndarray:
        """Mask of partition epochs where the plan is storage- or migration-bound."""
        plan = result.plan
        activity = None
        for dc in plan.datacenters:
            for series in (
                dc.battery_charge_kw,
                dc.battery_discharge_kw,
                dc.net_charge_kw,
                dc.net_discharge_kw,
                dc.migrate_power_kw,
            ):
                series = np.asarray(series, dtype=float)
                activity = series if activity is None else np.maximum(activity, series)
        threshold = self.activity_threshold * self.problem.params.total_capacity_kw
        return activity > threshold

    def _split(self, bound: np.ndarray) -> int:
        """Split every bound, still-coarse group to fine; return split count."""
        splits = 0
        index = 0
        for day, groups in enumerate(self._partition):
            refined: List[int] = []
            for size in groups:
                if size > 1 and bound[index]:
                    refined.extend([1] * size)
                    splits += 1
                else:
                    refined.append(size)
                index += 1
            self._partition[day] = refined
        return splits

    def _split_all(self) -> None:
        """Split every remaining coarse group to full resolution."""
        for day, groups in enumerate(self._partition):
            self._partition[day] = [1] * sum(groups)

    # -- driver -------------------------------------------------------------------
    def refine(
        self, siting: Mapping[str, str], enforce_spread: bool = True
    ) -> Tuple[ProvisioningResult, AdaptiveGridReport]:
        """Solve ``siting`` on successively refined grids until convergence."""
        objective_trace: List[float] = []
        num_epochs_trace: List[int] = []
        converged = False
        result: Optional[ProvisioningResult] = None
        rounds = 0
        # Only the sited locations' profiles matter to the refinement solves;
        # re-aggregating the full candidate set every round would cost
        # O(num_locations x rounds) at the 1373-candidate scale.
        base = self.problem.restricted_to(list(siting))
        while rounds < self.max_rounds:
            problem = self._partition_problem(base)
            result = solve_provisioning(
                problem, siting, options=self.options, enforce_spread=enforce_spread
            )
            rounds += 1
            num_epochs_trace.append(problem.num_epochs)
            objective_trace.append(result.monthly_cost)
            if not result.feasible:
                break
            if len(objective_trace) > 1:
                previous = objective_trace[-2]
                if abs(result.monthly_cost - previous) <= self.tolerance * max(
                    1.0, abs(previous)
                ):
                    converged = True
                    break
            if self._is_fine():
                converged = True
                break
            if self._split(self._bound_epochs(result)) == 0:
                # Nothing storage- or migration-bound is still coarse — but
                # averaging also moves the per-epoch power-balance and green
                # constraints (no-storage plans have no bound epochs at
                # all), so finish with one full-resolution round instead of
                # declaring the coarse objective converged.
                self._split_all()
        if not converged and result is not None and result.feasible:
            # max_rounds exhausted before the objective settled: the reported
            # cost must still be the fine-grid one, so pay one full-resolution
            # solve rather than returning a partially refined approximation.
            self._split_all()
            result = solve_provisioning(
                self._partition_problem(base),
                siting,
                options=self.options,
                enforce_spread=enforce_spread,
            )
            rounds += 1
            num_epochs_trace.append(base.num_epochs)
            objective_trace.append(result.monthly_cost)
            converged = result.feasible
        report = AdaptiveGridReport(
            rounds=rounds,
            converged=converged,
            objective_trace=objective_trace,
            num_epochs_trace=num_epochs_trace,
        )
        return result, report
