"""Differential oracles for the LP layer: independent of the production path.

Production code solves every continuous LP through SciPy's bundled HiGHS
bindings (:func:`repro.lpsolver.highs_backend.solve_row_form`) and builds the
provisioning LP from blocked COO triplets.  The tests pin both against the
two references kept here:

* :func:`linprog_solve` — a row form solved through ``scipy.optimize.linprog``
  (SciPy's validated public wrapper around the same solver), and
* :class:`ScalarProvisioningBuilder` — the readable per-epoch construction
  of the Fig. 1 provisioning LP, one constraint at a time on a
  :class:`~row_collector.RowCollector`;
  :func:`assert_compiled_matches_scalar` compares the production row form
  with it entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

import numpy as np
from scipy import optimize, sparse

from repro.core.costs import CostModel
from repro.core.problem import GreenEnforcement, SitingProblem, StorageMode
from repro.core.provisioning import (
    ProvisioningCompiler,
    ProvisioningResult,
    _extract_network_plan,
    _SiteLayout,
)
from repro.energy.profiles import LocationProfile
from repro.lpsolver import RowFormLP, SolveResult, SolveStatus, SolverOptions

from row_collector import RowCollector

_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def csc_matrix(row_form: RowFormLP) -> sparse.csc_matrix:
    """The constraint matrix of ``row_form`` as a SciPy CSC matrix."""
    return sparse.csc_matrix(
        (row_form.a_data, row_form.a_indices, row_form.a_indptr), shape=row_form.shape
    )


def linprog_solve(row_form: RowFormLP, options: Optional[SolverOptions] = None) -> SolveResult:
    """Solve ``row_lower <= A x <= row_upper`` with ``scipy.optimize.linprog``."""
    options = options or SolverOptions()
    matrix = csc_matrix(row_form).tocsr()
    lower, upper = row_form.row_lower, row_form.row_upper
    eq = np.isfinite(lower) & (lower == upper)
    ub = np.isfinite(upper) & ~eq
    lb = np.isfinite(lower) & ~eq
    a_ub_parts, b_ub_parts = [], []
    if np.any(ub):
        a_ub_parts.append(matrix[ub])
        b_ub_parts.append(upper[ub])
    if np.any(lb):
        a_ub_parts.append(-matrix[lb])
        b_ub_parts.append(-lower[lb])
    result = optimize.linprog(
        c=row_form.cost,
        A_ub=sparse.vstack(a_ub_parts).tocsr() if a_ub_parts else None,
        b_ub=np.concatenate(b_ub_parts) if b_ub_parts else None,
        A_eq=matrix[eq] if np.any(eq) else None,
        b_eq=lower[eq] if np.any(eq) else None,
        bounds=np.column_stack([row_form.lower, row_form.upper]),
        method="highs",
        options={"presolve": options.presolve},
    )
    status = _LINPROG_STATUS.get(result.status, SolveStatus.ERROR)
    if status is not SolveStatus.OPTIMAL:
        return SolveResult(
            status=status, objective=float("nan"), message=str(result.message), solver="linprog"
        )
    raw = float(result.fun)
    return SolveResult(
        status=status,
        objective=(-raw if row_form.maximise else raw) + row_form.objective_constant,
        message=str(result.message),
        solver="linprog",
        iterations=int(getattr(result, "nit", 0) or 0),
        x=np.asarray(result.x, dtype=float),
    )


@dataclass
class _SiteVariables:
    """Column indices of the LP variables of one sited location."""

    profile: LocationProfile
    size_class: str
    capacity: int
    solar: int
    wind: int
    battery: int
    compute: List[int]
    migrate: List[int]
    brown: List[int]
    green_direct: List[int]
    battery_charge: List[int]
    battery_discharge: List[int]
    battery_level: List[int]
    net_charge: List[int]
    net_discharge: List[int]
    net_level: List[int]


class ScalarProvisioningBuilder:
    """The Fig. 1 provisioning LP built constraint by constraint.

    Registers variables in the production layout order (``_SiteLayout``), so
    its rows, objective and extracted plan compare entry for entry with
    the row form of
    :meth:`~repro.core.provisioning.ProvisioningCompiler.compile_row_form`.
    """

    def __init__(
        self, problem: SitingProblem, siting: Mapping[str, str], enforce_spread: bool = True
    ) -> None:
        self.problem = problem
        self.siting = dict(siting)
        self.enforce_spread = enforce_spread
        self.cost_model = CostModel(problem.params)
        self.sites: List[_SiteLayout] = []
        self.model = RowCollector()
        self._build()

    def _build(self) -> None:
        problem = self.problem
        params = problem.params
        epochs = problem.epochs
        num_epochs = epochs.num_epochs
        weights = epochs.epoch_weights_hours()
        profiles = self.problem.profile_map()
        frac = params.min_green_fraction

        scalar_sites: List[_SiteVariables] = []
        for name, size_class in self.siting.items():
            profile = profiles.get(name)
            if profile is None:
                raise KeyError(f"siting refers to unknown location {name!r}")
            base = len(self.model.bounds)
            scalar_sites.append(self._add_site(profile, size_class, num_epochs))
            self.sites.append(
                _SiteLayout(
                    profile=profile, size_class=size_class, base=base, num_epochs=num_epochs
                )
            )

        # Constraint 2: the network must provide the requested compute power in
        # every epoch.
        for epoch in range(num_epochs):
            self.model.add_row(
                [(site.compute[epoch], 1.0) for site in scalar_sites],
                ">=",
                params.total_capacity_kw,
            )

        # Constraint 3: minimum share of green energy, enforced either over the
        # whole year (the paper's main formulation) or in every epoch (the
        # stricter variant studied in the technical report):
        # sum(used green) - frac * sum(demand) >= 0.
        if frac > 0:
            if problem.green_enforcement is GreenEnforcement.PER_EPOCH:
                for epoch in range(num_epochs):
                    terms = []
                    for site in scalar_sites:
                        terms += self._used_green(site, epoch, 1.0)
                        terms += self._power_demand(site, epoch, -frac)
                    self.model.add_row(terms, ">=", 0.0)
            else:
                terms = []
                for site in scalar_sites:
                    for epoch in range(num_epochs):
                        terms += self._used_green(site, epoch, weights[epoch])
                        terms += self._power_demand(site, epoch, -frac * weights[epoch])
                self.model.add_row(terms, ">=", 0.0)

        # Availability spread: every sited DC keeps at least S/n servers.
        if self.enforce_spread and len(scalar_sites) > 0:
            floor = params.total_capacity_kw / len(scalar_sites)
            for site in scalar_sites:
                self.model.add_row([(site.capacity, 1.0)], ">=", floor)

    def _add_site(
        self, profile: LocationProfile, size_class: str, num_epochs: int
    ) -> _SiteVariables:
        problem = self.problem
        params = problem.params
        epochs = problem.epochs
        weights = epochs.epoch_weights_hours()
        epoch_hours = np.broadcast_to(
            np.asarray(epochs.epoch_hours, dtype=float), (num_epochs,)
        )
        model = self.model

        allow_solar = problem.sources.allows_solar
        allow_wind = problem.sources.allows_wind
        use_batteries = problem.storage is StorageMode.BATTERIES
        use_net_metering = problem.storage is StorageMode.NET_METERING

        capacity = model.add_variable()
        solar = model.add_variable(upper=float("inf") if allow_solar else 0.0)
        wind = model.add_variable(upper=float("inf") if allow_wind else 0.0)
        battery = model.add_variable(upper=float("inf") if use_batteries else 0.0)

        def per_epoch(upper: float = float("inf")) -> List[int]:
            return [model.add_variable(upper=upper) for _ in range(num_epochs)]

        compute = per_epoch()
        migrate = per_epoch()
        brown_cap = params.brown_plant_cap_fraction * profile.near_plant_capacity_kw
        brown = per_epoch(upper=max(0.0, brown_cap))
        green_direct = per_epoch()
        storage_upper = float("inf") if use_batteries else 0.0
        battery_charge = per_epoch(upper=storage_upper)
        battery_discharge = per_epoch(upper=storage_upper)
        battery_level = per_epoch(upper=float("inf") if use_batteries else 0.0)
        net_upper = float("inf") if use_net_metering else 0.0
        net_charge = per_epoch(upper=net_upper)
        net_discharge = per_epoch(upper=net_upper)
        net_level = per_epoch(upper=net_upper)

        site = _SiteVariables(
            profile=profile,
            size_class=size_class,
            capacity=capacity,
            solar=solar,
            wind=wind,
            battery=battery,
            compute=compute,
            migrate=migrate,
            brown=brown,
            green_direct=green_direct,
            battery_charge=battery_charge,
            battery_discharge=battery_discharge,
            battery_level=battery_level,
            net_charge=net_charge,
            net_discharge=net_discharge,
            net_level=net_level,
        )

        # Size-class consistency: the construction price per kW assumed in the
        # objective is only valid within the class's power range.
        if size_class == "small":
            model.add_row([(capacity, profile.max_pue)], "<=", params.small_dc_threshold_kw)

        for t in range(num_epochs):
            previous = (t - 1) % num_epochs
            hours = epoch_hours[t]
            # Migration overhead: load that left this site since the previous
            # epoch still consumes energy here during this epoch:
            # migrate[t] >= compute[previous] - compute[t].
            model.add_row(
                [(migrate[t], 1.0), (compute[previous], -1.0), (compute[t], 1.0)], ">=", 0.0
            )
            # Constraint 1: provisioned capacity covers compute plus incoming load.
            model.add_row([(capacity, 1.0), (compute[t], -1.0), (migrate[t], -1.0)], ">=", 0.0)
            # Constraint 5: demand is met by direct green, storage draws and brown.
            model.add_row(
                self._used_green(site, t, 1.0)
                + [(brown[t], 1.0)]
                + self._power_demand(site, t, -1.0),
                ">=",
                0.0,
            )
            # Green energy only counts toward the requirement when it actually
            # serves load: what is delivered (directly or from storage) in an
            # epoch cannot exceed that epoch's demand.  Surplus production is
            # curtailed (or, with net metering, banked for later).
            model.add_row(
                self._power_demand(site, t, 1.0) + self._used_green(site, t, -1.0), ">=", 0.0
            )
            # Green allocation: direct use plus storage charging cannot exceed production.
            model.add_row(
                [
                    (solar, profile.solar_alpha[t]),
                    (wind, profile.wind_beta[t]),
                    (green_direct[t], -1.0),
                    (battery_charge[t], -1.0),
                    (net_charge[t], -1.0),
                ],
                ">=",
                0.0,
            )
            if use_batteries:
                # Constraints 6-7: battery level dynamics (cyclic over the year):
                # level[t] == level[previous] + eff * charge * h - discharge * h.
                model.add_row(
                    [
                        (battery_level[t], 1.0),
                        (battery_level[previous], -1.0),
                        (battery_charge[t], -params.battery_efficiency * hours),
                        (battery_discharge[t], hours),
                    ],
                    "==",
                    0.0,
                )
                model.add_row([(battery_level[t], 1.0), (battery, -1.0)], "<=", 0.0)
            if use_net_metering:
                # Constraints 8-9: net-metered energy bank (cyclic over the year).
                model.add_row(
                    [
                        (net_level[t], 1.0),
                        (net_level[previous], -1.0),
                        (net_charge[t], -hours),
                        (net_discharge[t], hours),
                    ],
                    "==",
                    0.0,
                )

        # Objective contribution of this site.
        coefficients = self.cost_model.linear_coefficients(profile, size_class)
        model.add_objective(
            [
                (capacity, coefficients["capacity_kw"]),
                (solar, coefficients["solar_kw"]),
                (wind, coefficients["wind_kw"]),
                (battery, coefficients["battery_kwh"]),
            ],
            constant=coefficients["fixed"],
        )
        for t in range(num_epochs):
            model.add_objective([(brown[t], coefficients["brown_kwh_year"] * weights[t])])
            if use_net_metering:
                model.add_objective(
                    [
                        (net_discharge[t], coefficients["net_discharge_kwh_year"] * weights[t]),
                        (net_charge[t], coefficients["net_charge_kwh_year"] * weights[t]),
                    ]
                )
        return site

    @staticmethod
    def _used_green(site: _SiteVariables, t: int, scale: float) -> List[Tuple[int, float]]:
        """``scale`` x green delivered in epoch ``t``: direct plus storage draws."""
        return [
            (site.green_direct[t], scale),
            (site.battery_discharge[t], scale),
            (site.net_discharge[t], scale),
        ]

    def _power_demand(
        self, site: _SiteVariables, t: int, scale: float
    ) -> List[Tuple[int, float]]:
        """``scale`` x ``powDemand(d, t)``: (compute + migration overhead) * PUE."""
        migration_factor = self.problem.params.migration_factor
        pue = site.profile.pue[t]
        return [(site.compute[t], scale * pue), (site.migrate[t], scale * migration_factor * pue)]

    def solve(self, options: Optional[SolverOptions] = None) -> ProvisioningResult:
        """Solve with :func:`linprog_solve`; the plan extracts like production's."""
        result = linprog_solve(self.model.row_form(), options)
        if not result.is_optimal:
            return ProvisioningResult(
                feasible=False, monthly_cost=float("inf"), message=result.message
            )
        dims = (len(self.model.bounds), len(self.model.rows))
        problem, cost_model, sites = self.problem, self.cost_model, self.sites
        return ProvisioningResult(
            feasible=True,
            monthly_cost=result.objective,
            message=result.message,
            extractor=lambda: _extract_network_plan(problem, cost_model, sites, dims, result),
        )


def _canonical_rows(row_form: RowFormLP) -> np.ndarray:
    """Dense [A | row_lower | row_upper] with rows sorted canonically."""
    dense = np.column_stack(
        [csc_matrix(row_form).toarray(), row_form.row_lower, row_form.row_upper]
    )
    dense = np.nan_to_num(dense, posinf=1e300, neginf=-1e300)
    return dense[np.lexsort(dense.T[::-1])]


def assert_compiled_matches_scalar(
    problem: SitingProblem,
    siting: Mapping[str, str],
    compiler: Optional[ProvisioningCompiler] = None,
    enforce_spread: bool = True,
) -> None:
    """The compiled row form of ``siting`` equals the scalar oracle's LP.

    Rows are compared as a canonically sorted dense matrix with their bounds
    (the two builders emit constraint families in different orders); the
    column layout, costs, bounds and objective constant must agree directly.
    """
    compiler = compiler or ProvisioningCompiler(problem)
    row_form, layouts = compiler.compile_row_form(siting, enforce_spread=enforce_spread)
    scalar = ScalarProvisioningBuilder(problem, siting, enforce_spread=enforce_spread)
    reference = scalar.model.row_form()
    assert row_form.shape == reference.shape, (row_form.shape, reference.shape)
    np.testing.assert_allclose(
        _canonical_rows(row_form), _canonical_rows(reference), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(row_form.cost, reference.cost, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(row_form.lower, reference.lower)
    np.testing.assert_array_equal(row_form.upper, reference.upper)
    np.testing.assert_allclose(
        row_form.objective_constant, scalar.model.constant, rtol=1e-12
    )
    assert [(site.base, site.size_class) for site in layouts] == [
        (site.base, site.size_class) for site in scalar.sites
    ]


def assert_feasible(row_form: RowFormLP, x: np.ndarray, tolerance: float = 1e-6) -> None:
    """``x`` satisfies every row and column bound of ``row_form``."""
    activity = csc_matrix(row_form) @ x
    assert np.all(activity >= row_form.row_lower - tolerance), "a row lower bound is violated"
    assert np.all(activity <= row_form.row_upper + tolerance), "a row upper bound is violated"
    assert np.all(x >= row_form.lower - tolerance), "a column lower bound is violated"
    assert np.all(x <= row_form.upper + tolerance), "a column upper bound is violated"
