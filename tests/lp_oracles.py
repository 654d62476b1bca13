"""Differential oracles for the LP layer: independent of the production path.

Production code solves every continuous LP through SciPy's bundled HiGHS
bindings (:func:`repro.lpsolver.highs_backend.solve_row_form`) and builds the
provisioning LP from blocked COO triplets.  The tests pin both against the
two references kept here:

* :func:`linprog_solve` — a row form solved through ``scipy.optimize.linprog``
  (SciPy's validated public wrapper around the same solver), and
* :class:`ScalarProvisioningBuilder` — the readable per-epoch object-API
  construction of the Fig. 1 provisioning LP, one constraint at a time;
  :func:`assert_compiled_matches_scalar` compares the production row form
  with it entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

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
from repro.lpsolver import LinearExpression, Model, RowFormLP, SolverOptions, Variable
from repro.lpsolver.result import SolveResult, SolveStatus

_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
}


def linprog_solve(row_form: RowFormLP, options: Optional[SolverOptions] = None) -> SolveResult:
    """Solve ``row_lower <= A x <= row_upper`` with ``scipy.optimize.linprog``."""
    options = options or SolverOptions()
    matrix = row_form.matrix.tocsr()
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
    """Handles to the LP variables of one sited location ."""

    profile: LocationProfile
    size_class: str
    capacity: Variable
    solar: Variable
    wind: Variable
    battery: Variable
    compute: List[Variable]
    migrate: List[Variable]
    brown: List[Variable]
    green_direct: List[Variable]
    battery_charge: List[Variable]
    battery_discharge: List[Variable]
    battery_level: List[Variable]
    net_charge: List[Variable]
    net_discharge: List[Variable]
    net_level: List[Variable]


class ScalarProvisioningBuilder:
    """The Fig. 1 provisioning LP built constraint by constraint.

    Registers variables in the production layout order (``_SiteLayout``), so
    its model, objective and extracted plan compare entry for entry with
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
        self.model = Model(name="provisioning", sense="min")
        self._objective_terms: List[LinearExpression | float] = []
        self._build()

    def _build(self) -> None:
        problem = self.problem
        params = problem.params
        epochs = problem.epochs
        num_epochs = epochs.num_epochs
        weights = epochs.epoch_weights_hours()
        profiles = self.problem.profile_map()

        scalar_sites: List[_SiteVariables] = []
        for name, size_class in self.siting.items():
            profile = profiles.get(name)
            if profile is None:
                raise KeyError(f"siting refers to unknown location {name!r}")
            base = self.model.num_variables
            scalar_sites.append(self._add_site(profile, size_class, num_epochs))
            self.sites.append(
                _SiteLayout(
                    profile=profile, size_class=size_class, base=base, num_epochs=num_epochs
                )
            )

        # Constraint 2: the network must provide the requested compute power in
        # every epoch.
        for epoch in range(num_epochs):
            total_compute = LinearExpression.sum(site.compute[epoch] for site in scalar_sites)
            self.model.add_constraint(
                total_compute >= params.total_capacity_kw, name=f"total_capacity[{epoch}]"
            )

        # Constraint 3: minimum share of green energy, enforced either over the
        # whole year (the paper's main formulation) or in every epoch (the
        # stricter variant studied in the technical report).
        if params.min_green_fraction > 0:
            if problem.green_enforcement is GreenEnforcement.PER_EPOCH:
                for epoch in range(num_epochs):
                    green_terms = []
                    demand_terms = []
                    for site in scalar_sites:
                        used_green = (
                            site.green_direct[epoch]
                            + site.battery_discharge[epoch]
                            + site.net_discharge[epoch]
                        )
                        green_terms.append(used_green)
                        demand_terms.append(self._power_demand(site, epoch))
                    self.model.add_constraint(
                        LinearExpression.sum(green_terms)
                        - params.min_green_fraction * LinearExpression.sum(demand_terms)
                        >= 0.0,
                        name=f"min_green_fraction[{epoch}]",
                    )
            else:
                green_terms = []
                demand_terms = []
                for site in scalar_sites:
                    for epoch in range(num_epochs):
                        used_green = (
                            site.green_direct[epoch]
                            + site.battery_discharge[epoch]
                            + site.net_discharge[epoch]
                        )
                        green_terms.append(weights[epoch] * used_green)
                        demand_terms.append(weights[epoch] * self._power_demand(site, epoch))
                total_green = LinearExpression.sum(green_terms)
                total_demand = LinearExpression.sum(demand_terms)
                self.model.add_constraint(
                    total_green - params.min_green_fraction * total_demand >= 0.0,
                    name="min_green_fraction",
                )

        # Availability spread: every sited DC keeps at least S/n servers.
        if self.enforce_spread and len(scalar_sites) > 0:
            floor = params.total_capacity_kw / len(scalar_sites)
            for site in scalar_sites:
                self.model.add_constraint(
                    site.capacity >= floor, name=f"capacity_spread[{site.profile.name}]"
                )

        self.model.set_objective(LinearExpression.sum(self._objective_terms))

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
        name = profile.name

        allow_solar = problem.sources.allows_solar
        allow_wind = problem.sources.allows_wind
        use_batteries = problem.storage is StorageMode.BATTERIES
        use_net_metering = problem.storage is StorageMode.NET_METERING

        capacity = model.add_variable(f"capacity[{name}]")
        solar = model.add_variable(f"solar[{name}]", upper=float("inf") if allow_solar else 0.0)
        wind = model.add_variable(f"wind[{name}]", upper=float("inf") if allow_wind else 0.0)
        battery = model.add_variable(
            f"battery[{name}]", upper=float("inf") if use_batteries else 0.0
        )

        def per_epoch(prefix: str, upper: float = float("inf")) -> List[Variable]:
            return [
                model.add_variable(f"{prefix}[{name},{t}]", upper=upper)
                for t in range(num_epochs)
            ]

        compute = per_epoch("compute")
        migrate = per_epoch("migrate")
        brown_cap = params.brown_plant_cap_fraction * profile.near_plant_capacity_kw
        brown = per_epoch("brown", upper=max(0.0, brown_cap))
        green_direct = per_epoch("green_direct")
        storage_upper = float("inf") if use_batteries else 0.0
        battery_charge = per_epoch("battery_charge", upper=storage_upper)
        battery_discharge = per_epoch("battery_discharge", upper=storage_upper)
        battery_level = per_epoch("battery_level", upper=float("inf") if use_batteries else 0.0)
        net_upper = float("inf") if use_net_metering else 0.0
        net_charge = per_epoch("net_charge", upper=net_upper)
        net_discharge = per_epoch("net_discharge", upper=net_upper)
        net_level = per_epoch("net_level", upper=net_upper)

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
        total_power_per_kw = profile.max_pue
        if size_class == "small":
            model.add_constraint(
                total_power_per_kw * capacity <= params.small_dc_threshold_kw,
                name=f"small_dc[{name}]",
            )

        for t in range(num_epochs):
            previous = (t - 1) % num_epochs
            # Migration overhead: load that left this site since the previous
            # epoch still consumes energy here during this epoch.
            model.add_constraint(
                migrate[t] >= compute[previous] - compute[t], name=f"migration[{name},{t}]"
            )
            # Constraint 1: provisioned capacity covers compute plus incoming load.
            model.add_constraint(
                capacity >= compute[t] + migrate[t], name=f"capacity_cover[{name},{t}]"
            )
            demand = self._power_demand(site, t)
            # Constraint 5: demand is met by direct green, storage draws and brown.
            supply = green_direct[t] + battery_discharge[t] + net_discharge[t] + brown[t]
            self.model.add_constraint(supply - demand >= 0.0, name=f"power_balance[{name},{t}]")
            # Green energy only counts toward the requirement when it actually
            # serves load: what is delivered (directly or from storage) in an
            # epoch cannot exceed that epoch's demand.  Surplus production is
            # curtailed (or, with net metering, banked for later).
            delivered = green_direct[t] + battery_discharge[t] + net_discharge[t]
            self.model.add_constraint(
                demand - delivered >= 0.0, name=f"green_delivery_cap[{name},{t}]"
            )
            # Green allocation: direct use plus storage charging cannot exceed production.
            production = profile.solar_alpha[t] * solar + profile.wind_beta[t] * wind
            self.model.add_constraint(
                production - green_direct[t] - battery_charge[t] - net_charge[t] >= 0.0,
                name=f"green_allocation[{name},{t}]",
            )
            if use_batteries:
                # Constraints 6-7: battery level dynamics (cyclic over the year).
                model.add_constraint(
                    battery_level[t]
                    == battery_level[previous]
                    + params.battery_efficiency * battery_charge[t] * epoch_hours[t]
                    - battery_discharge[t] * epoch_hours[t],
                    name=f"battery_dynamics[{name},{t}]",
                )
                model.add_constraint(
                    battery_level[t] <= battery, name=f"battery_capacity[{name},{t}]"
                )
            if use_net_metering:
                # Constraints 8-9: net-metered energy bank (cyclic over the year).
                model.add_constraint(
                    net_level[t]
                    == net_level[previous]
                    + net_charge[t] * epoch_hours[t]
                    - net_discharge[t] * epoch_hours[t],
                    name=f"net_dynamics[{name},{t}]",
                )

        # Objective contribution of this site.
        coefficients = self.cost_model.linear_coefficients(profile, size_class)
        self._objective_terms.append(coefficients["fixed"])
        self._objective_terms.append(coefficients["capacity_kw"] * capacity)
        self._objective_terms.append(coefficients["solar_kw"] * solar)
        self._objective_terms.append(coefficients["wind_kw"] * wind)
        self._objective_terms.append(coefficients["battery_kwh"] * battery)
        for t in range(num_epochs):
            self._objective_terms.append(
                coefficients["brown_kwh_year"] * weights[t] * brown[t]
            )
            if use_net_metering:
                self._objective_terms.append(
                    coefficients["net_discharge_kwh_year"] * weights[t] * net_discharge[t]
                )
                self._objective_terms.append(
                    coefficients["net_charge_kwh_year"] * weights[t] * net_charge[t]
                )
        return site

    def _power_demand(self, site: _SiteVariables, t: int) -> LinearExpression:
        """``powDemand(d, t)``: (compute + migration overhead) * PUE."""
        migration_factor = self.problem.params.migration_factor
        pue = site.profile.pue[t]
        demand = site.compute[t] + migration_factor * site.migrate[t]
        return pue * demand

    def solve(self, options: Optional[SolverOptions] = None) -> ProvisioningResult:
        """Solve with :func:`linprog_solve`; the plan extracts like production's."""
        result = linprog_solve(self.model.to_row_form(), options)
        if not result.is_optimal:
            return ProvisioningResult(
                feasible=False, monthly_cost=float("inf"), message=result.message
            )
        dims = (self.model.num_variables, self.model.num_constraints)
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
        [row_form.matrix.toarray(), row_form.row_lower, row_form.row_upper]
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
    reference = scalar.model.to_row_form()
    assert row_form.shape == reference.shape, (row_form.shape, reference.shape)
    np.testing.assert_allclose(
        _canonical_rows(row_form), _canonical_rows(reference), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(row_form.cost, reference.cost, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(row_form.lower, reference.lower)
    np.testing.assert_array_equal(row_form.upper, reference.upper)
    np.testing.assert_allclose(
        row_form.objective_constant, scalar.model.objective.constant, rtol=1e-12
    )
    assert [(site.base, site.size_class) for site in layouts] == [
        (site.base, site.size_class) for site in scalar.sites
    ]
