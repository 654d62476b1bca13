"""Full MILP formulation of the siting problem (Fig. 1).

The MILP chooses *where* to place datacenters (binary ``at(d)``) and whether
each is small or large, simultaneously with the provisioning and energy
scheduling decisions.  Solving it is only practical for small candidate sets
(the paper reports days of solver time for 50-100 locations); we use it to
validate the heuristic on small instances, exactly as the paper validated its
heuristic against the MILP at the 0 % and 100 % green extremes.

The continuous part is not written again here: it is the provisioning LP of
the siting that places a "large" datacenter at every candidate, compiled by
:class:`~repro.core.provisioning.ProvisioningCompiler` from the same per-site
skeletons the heuristic prices — including the total-capacity rows and the
minimum-green row(s), annual or per epoch.  This module appends the siting
decisions on top: per site the binaries ``at_small``/``at_large``, the
capacity split ``capacity = capacity_small + capacity_large`` with its
class limits, and the solar/wind gates, plus the network-wide availability
row.  The result is one :class:`~repro.lpsolver.RowFormLP` with integer
columns, solved by HiGHS through the same handle as every LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.problem import GreenEnforcement, SitingProblem
from repro.core.provisioning import (
    ProvisioningCompiler,
    ProvisioningResult,
    solve_provisioning,
)
from repro.lpsolver import RowFormLP, SolverOptions, highs_backend
from repro.lpsolver.model import coo_to_csc

#: Siting columns appended per site, in this order.
_AT_SMALL, _AT_LARGE, _CAP_SMALL, _CAP_LARGE = range(4)


@dataclass
class FullMilp:
    """The Fig. 1 MILP in row form, with the positions of its siting parts.

    ``small_cols[i]``/``large_cols[i]`` are the binary columns that site
    ``names[i]`` hosts a small/large datacenter; ``green_rows`` are the
    minimum-green rows (none, one annual row or one per epoch) and
    ``availability_row`` is the minimum-datacenter-count row.
    """

    row_form: RowFormLP
    names: List[str]
    small_cols: np.ndarray
    large_cols: np.ndarray
    green_rows: np.ndarray
    availability_row: int


def build_full_milp(problem: SitingProblem) -> FullMilp:
    """Build the Fig. 1 MILP over all candidate locations of ``problem``."""
    compiler = ProvisioningCompiler(problem)
    params = problem.params
    names = [profile.name for profile in problem.profiles]
    lp, layouts = compiler.compile_row_form(
        {name: "large" for name in names}, enforce_spread=False
    )
    num_rows, num_cols = lp.shape
    num_sites = len(names)
    site = np.arange(num_sites, dtype=np.int64)
    capacity = np.array([layout.capacity for layout in layouts], dtype=np.int64)
    solar = np.array([layout.solar for layout in layouts], dtype=np.int64)
    wind = np.array([layout.wind for layout in layouts], dtype=np.int64)
    at_small, at_large, cap_small, cap_large = (
        num_cols + 4 * site + offset for offset in (_AT_SMALL, _AT_LARGE, _CAP_SMALL, _CAP_LARGE)
    )

    # The provisioning LP prices every site's capacity at the large rate and
    # adds every site's fixed cost; both move onto the siting columns.
    small_coeffs = [
        compiler.cost_model.linear_coefficients(layout.profile, "small") for layout in layouts
    ]
    fixed = np.array([coeffs["fixed"] for coeffs in small_coeffs])
    siting_cost = np.zeros((num_sites, 4))
    siting_cost[:, _AT_SMALL] = fixed
    siting_cost[:, _AT_LARGE] = fixed
    siting_cost[:, _CAP_SMALL] = [coeffs["capacity_kw"] for coeffs in small_coeffs]
    siting_cost[:, _CAP_LARGE] = lp.cost[capacity]
    cost = np.concatenate([lp.cost, siting_cost.ravel()])
    cost[capacity] = 0.0

    # Seven rows per site, as (local row, columns, coefficients):
    #   0  capacity - capacity_small - capacity_large == 0
    #   1  at_small + at_large <= 1
    #   2  capacity_small <= small_limit * at_small
    #   3  capacity_large <= big_m * at_large
    #   4  capacity_large >= small_limit * at_large
    #   5  solar <= 20 big_m (at_small + at_large)   (Constraint 4: unsited
    #   6  wind  <= 20 big_m (at_small + at_large)    locations host nothing)
    # Big-M: no single DC ever needs more compute power than the service.
    big_m = params.total_capacity_kw
    small_limit = params.small_dc_threshold_kw / np.array(
        [layout.profile.max_pue for layout in layouts]
    )
    ones = np.ones(num_sites)
    gate = np.full(num_sites, -20.0 * big_m)
    terms = [
        (0, capacity, ones), (0, cap_small, -ones), (0, cap_large, -ones),
        (1, at_small, ones), (1, at_large, ones),
        (2, cap_small, ones), (2, at_small, -small_limit),
        (3, cap_large, ones), (3, at_large, -big_m * ones),
        (4, cap_large, ones), (4, at_large, -small_limit),
        (5, solar, ones), (5, at_small, gate), (5, at_large, gate),
        (6, wind, ones), (6, at_small, gate), (6, at_large, gate),
    ]
    site_lower = np.array([0.0, -np.inf, -np.inf, -np.inf, 0.0, -np.inf, -np.inf])
    site_upper = np.array([0.0, 1.0, 0.0, 0.0, np.inf, 0.0, 0.0])
    # Constraint 11: availability, as a minimum number of datacenters.
    availability_row = num_rows + 7 * num_sites
    rows = [num_rows + 7 * site + local for local, _, _ in terms]
    rows.append(np.full(2 * num_sites, availability_row))
    cols = [columns for _, columns, _ in terms] + [np.concatenate([at_small, at_large])]
    vals = [coefficients for _, _, coefficients in terms] + [np.ones(2 * num_sites)]

    base_cols = np.repeat(np.arange(num_cols, dtype=np.int64), np.diff(lp.a_indptr))
    shape = (availability_row + 1, num_cols + 4 * num_sites)
    indptr, indices, data = coo_to_csc(
        np.concatenate([lp.a_indices, *rows]),
        np.concatenate([base_cols, *cols]),
        np.concatenate([lp.a_data, *vals]),
        shape,
    )
    integer = np.zeros((num_sites, 4), dtype=np.int64)
    integer[:, [_AT_SMALL, _AT_LARGE]] = 1
    siting_upper = np.full((num_sites, 4), np.inf)
    siting_upper[:, [_AT_SMALL, _AT_LARGE]] = 1.0
    row_form = RowFormLP(
        cost=cost,
        a_indptr=indptr,
        a_indices=indices,
        a_data=data,
        shape=shape,
        row_lower=np.concatenate(
            [lp.row_lower, np.tile(site_lower, num_sites), [float(problem.min_datacenters)]]
        ),
        row_upper=np.concatenate([lp.row_upper, np.tile(site_upper, num_sites), [np.inf]]),
        lower=np.concatenate([lp.lower, np.zeros(4 * num_sites)]),
        upper=np.concatenate([lp.upper, siting_upper.ravel()]),
        integrality=np.concatenate([lp.integrality, integer.ravel()]),
        maximise=False,
        objective_constant=0.0,
    )
    # The compiled LP ends with its minimum-green row(s).
    if params.min_green_fraction > 0:
        per_epoch = problem.green_enforcement is GreenEnforcement.PER_EPOCH
        num_green = problem.num_epochs if per_epoch else 1
    else:
        num_green = 0
    return FullMilp(
        row_form=row_form,
        names=names,
        small_cols=at_small,
        large_cols=at_large,
        green_rows=np.arange(num_rows - num_green, num_rows),
        availability_row=availability_row,
    )


def solve_full_milp(
    problem: SitingProblem, options: Optional[SolverOptions] = None
) -> ProvisioningResult:
    """Solve the full MILP, then re-solve the fixed-siting LP to extract the plan.

    The two-stage extraction keeps the plan construction logic in one place
    (:mod:`repro.core.provisioning`): the MILP determines the siting and size
    classes, and the provisioning LP — which has the identical objective for a
    fixed siting — rebuilds the detailed plan.
    """
    options = options or SolverOptions(time_limit=120.0)
    milp = build_full_milp(problem)
    result = highs_backend.solve_row_form(milp.row_form, options)
    if not result.is_optimal:
        return ProvisioningResult(
            feasible=False,
            monthly_cost=float("inf"),
            plan=None,
            message=f"MILP {result.status.value}: {result.message}",
        )
    small = result.value_array(milp.small_cols) > 0.5
    large = result.value_array(milp.large_cols) > 0.5
    siting: Dict[str, str] = {}
    for name, is_small, is_large in zip(milp.names, small, large):
        if is_small:
            siting[name] = "small"
        elif is_large:
            siting[name] = "large"
    if not siting:
        return ProvisioningResult(
            feasible=False,
            monthly_cost=float("inf"),
            plan=None,
            message="MILP selected no locations",
        )
    return solve_provisioning(problem, siting, enforce_spread=False)
