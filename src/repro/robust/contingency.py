"""N-1 survivable provisioning: contingency LP, fixed-sizing evaluation, report.

Power-systems planning sizes a grid so it survives the loss of any single
component (the *N-1 criterion*).  Applied to a green-datacenter federation:
one shared first-stage sizing must keep unserved demand within a
``survivability_epsilon`` energy budget under every single-site outage.

The LP reuses the joint-stochastic block machinery
(:func:`repro.robust.stochastic.solve_ensemble_lp`): ``S + 1``
"draws" over one unperturbed compiler — draw 0 is the nominal year at
weight 1.0, draw ``c`` (``c >= 1``) is the year with site ``c - 1`` dark
(its whole epoch block forced to zero via ``blocked_sites``) and its
unserved energy capped at ``epsilon * total_capacity_kw * hours_per_year``
via ``unserved_energy_budget``.  Contingency recourse enters the objective
at a small ``contingency_weight`` (unnormalized, so the nominal cost trade
against sizing is undistorted): the sizing pays for survivability through
the budget *constraints*, not through an expectation over outages.

Fixed-sizing evaluation of a plan solves the nominal case and each outage
as its own single-draw LP, in turn on one HiGHS handle: the cases share a
shape, so each warm-starts from the previous optimum.  It is
differential-tested against cold one-by-one solves.

N-1 sizing can cross the small-datacenter class threshold that the siting
fixed for the deterministic plan; when the contingency LP is infeasible
under the plan's size classes it is retried once with every site upgraded
to ``large`` (``size_classes_upgraded`` flags this in the result).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.provisioning import ProvisioningCompiler
from repro.lpsolver import MutableHighsModel, SolverOptions, SolverStatusError
from repro.robust.stochastic import _sizing_tuples, solve_ensemble_lp

#: Unserved-energy slack below this fraction of the budget counts as zero
#: when deciding whether a contingency violates its epsilon bound.
_VIOLATION_REL_TOL = 1e-6


@dataclass(frozen=True)
class ContingencyConfig:
    """Declarative knobs of the N-1 survivability study (JSON scalars only)."""

    #: Per-contingency unserved-energy budget, as a fraction of the annual
    #: demand energy ``total_capacity_kw * hours_per_year``.
    survivability_epsilon: float = 0.05
    #: Objective weight of the summed contingency recourse (kept small: the
    #: budget rows, not the expectation, enforce survivability).
    contingency_weight: float = 1e-3
    #: Unserved-demand price multiple of the dearest brown coefficient.
    unserved_penalty_x: float = 10.0
    #: Replay-study outage window (used by the operator wire-through).
    outage_start_step: int = 6
    outage_duration_steps: int = 12

    def __post_init__(self) -> None:
        if not 0.0 < self.survivability_epsilon <= 1.0:
            raise ValueError("survivability_epsilon must be in (0, 1]")
        if self.contingency_weight <= 0:
            raise ValueError("contingency_weight must be positive")
        if self.unserved_penalty_x <= 0:
            raise ValueError("unserved_penalty_x must be positive")
        if self.outage_start_step < 0:
            raise ValueError("outage_start_step must be >= 0")
        if self.outage_duration_steps <= 0:
            raise ValueError("outage_duration_steps must be positive")


@dataclass
class ContingencySolution:
    """Outcome of one N-1 survivability solve."""

    sizing: Dict[str, Dict[str, float]]   #: shared first-stage decision
    objective: float                      #: weighted LP objective
    nominal_cost: float                   #: unweighted cost of the nominal year
    per_contingency_costs: np.ndarray     #: unweighted cost, site c dark
    per_contingency_unserved_kwh: np.ndarray  #: unserved energy, site c dark
    budget_unserved_kwh: float            #: epsilon budget in kWh/year
    site_names: Tuple[str, ...]
    num_cols: int
    num_rows: int
    iterations: int
    solver: str
    size_classes_upgraded: bool = False

    @property
    def worst_unserved_kwh(self) -> float:
        return float(self.per_contingency_unserved_kwh.max())


def _annual_budget_kwh(compiler: ProvisioningCompiler, epsilon: float) -> float:
    problem = compiler.problem
    hours = float(np.sum(problem.epochs.epoch_weights_hours()))
    return float(epsilon * problem.params.total_capacity_kw * hours)


def _upgraded(siting: Mapping[str, str]) -> Dict[str, str]:
    return {name: "large" for name in siting}


def solve_contingency_lp(
    compiler: ProvisioningCompiler,
    siting: Mapping[str, str],
    config: Optional[ContingencyConfig] = None,
    options: Optional[SolverOptions] = None,
    sizing_bounds: Optional[Mapping[str, Sequence[float]]] = None,
) -> ContingencySolution:
    """Size the sited federation so every single-site outage stays in budget.

    One joint LP: shared sizing columns, a nominal epoch block at weight
    1.0 plus one blocked epoch block per site, each with an unserved-energy
    budget row.  With ``sizing_bounds`` the first stage is clamped, which
    turns the solve into a feasibility check of a given plan.
    """
    config = config or ContingencyConfig()
    options = options or SolverOptions()
    names = list(siting)
    S = len(names)
    budget = _annual_budget_kwh(compiler, config.survivability_epsilon)
    kwargs = dict(
        options=options,
        weights=[1.0] + [config.contingency_weight / S] * S,
        normalize_weights=False,
        sizing_bounds=sizing_bounds,
        unserved_penalty_x=config.unserved_penalty_x,
        blocked_sites=[None] + list(range(S)),
        unserved_energy_budget=[None] + [budget] * S,
    )
    compilers = [compiler] * (S + 1)
    upgraded = False
    try:
        joint = solve_ensemble_lp(compilers, siting, **kwargs)
    except SolverStatusError:
        if all(size_class != "small" for size_class in siting.values()):
            raise
        # The plan's small-class threshold caps a site the N-1 sizing must
        # grow; retry with every site priced as a large datacenter.
        siting = _upgraded(siting)
        joint = solve_ensemble_lp(compilers, siting, **kwargs)
        upgraded = True
    return ContingencySolution(
        sizing=joint.sizing,
        objective=joint.objective,
        nominal_cost=float(joint.per_draw_costs[0]),
        per_contingency_costs=joint.per_draw_costs[1:].copy(),
        per_contingency_unserved_kwh=joint.per_draw_unserved_energy[1:].copy(),
        budget_unserved_kwh=budget,
        site_names=tuple(names),
        num_cols=joint.num_cols,
        num_rows=joint.num_rows,
        iterations=joint.iterations,
        solver=joint.solver,
        size_classes_upgraded=upgraded,
    )


def evaluate_contingencies(
    compiler: ProvisioningCompiler,
    siting: Mapping[str, str],
    sizing: Mapping[str, Sequence[float]],
    options: Optional[SolverOptions] = None,
    unserved_penalty_x: float = 10.0,
) -> Dict[str, np.ndarray]:
    """Re-price a fixed sizing under the nominal year and every N-1 outage.

    No budget rows here — a deterministic plan may well violate epsilon,
    and the point is to *measure* by how much.  Returns arrays of length
    ``S + 1`` (index 0 nominal, index ``c`` with site ``c - 1`` dark):
    ``costs`` (unserved priced in) and ``unserved_kwh``.  The cases are
    solved in turn on one handle, each warm-started from the previous one.
    """
    options = options or SolverOptions()
    handle = MutableHighsModel()
    cases: List[Optional[int]] = [None] + list(range(len(siting)))
    costs = np.empty(len(cases))
    unserved = np.empty(len(cases))
    for i, case in enumerate(cases):
        sol = solve_ensemble_lp(
            [compiler],
            siting,
            options=options,
            sizing_bounds=sizing,
            unserved_penalty_x=unserved_penalty_x,
            blocked_sites=[case],
            highs=handle,
        )
        costs[i] = sol.per_draw_costs[0]
        unserved[i] = sol.per_draw_unserved_energy[0]
    return {"costs": costs, "unserved_kwh": unserved}


def _worst_case(
    names: Sequence[str], costs: np.ndarray, unserved: np.ndarray, tol: float
) -> int:
    """Index of the worst outage: most unserved energy, up to ``tol``.

    Outages within ``tol`` kWh of the maximum tie (an N-1 sizing puts
    several exactly on their budget row, apart only by LP round-off); the
    costliest of them wins, then the first site name.
    """
    tied = np.flatnonzero(unserved >= unserved.max() - tol)
    return int(min(tied, key=lambda s: (-costs[s], names[s])))


def contingency_report(
    compiler: ProvisioningCompiler,
    siting: Mapping[str, str],
    det_sizing: Mapping[str, Sequence[float]],
    config: Optional[ContingencyConfig] = None,
    options: Optional[SolverOptions] = None,
) -> Dict[str, object]:
    """Compare a deterministic sizing against the N-1 survivable sizing.

    Solves the joint contingency LP for the survivable sizing, then
    re-prices both sizings under every single-site outage (fixed-sizing
    evaluation, no budget) to report worst-case contingency cost, a
    per-site criticality ranking and unserved-vs-epsilon margins.
    JSON-ready.
    """
    config = config or ContingencyConfig()
    options = options or SolverOptions()
    names = list(siting)
    n1 = solve_contingency_lp(compiler, siting, config=config, options=options)
    n1_siting = _upgraded(siting) if n1.size_classes_upgraded else siting
    n1_sizing = _sizing_tuples(n1.sizing)
    det_eval = evaluate_contingencies(
        compiler, siting, det_sizing, options=options,
        unserved_penalty_x=config.unserved_penalty_x,
    )
    n1_eval = evaluate_contingencies(
        compiler, n1_siting, n1_sizing, options=options,
        unserved_penalty_x=config.unserved_penalty_x,
    )
    budget = n1.budget_unserved_kwh
    tol = _VIOLATION_REL_TOL * budget + 1e-3
    det_costs, det_unserved = det_eval["costs"][1:], det_eval["unserved_kwh"][1:]
    n1_costs, n1_unserved = n1_eval["costs"][1:], n1_eval["unserved_kwh"][1:]
    det_nominal = float(det_eval["costs"][0])
    n1_nominal = float(n1_eval["costs"][0])

    # Criticality: which site's loss hurts the deterministic plan most.
    order = sorted(
        range(len(names)),
        key=lambda s: (-det_unserved[s], -det_costs[s], names[s]),
    )
    criticality = [
        {
            "site": names[s],
            "det_unserved_kwh": float(det_unserved[s]),
            "det_cost": float(det_costs[s]),
            "n1_unserved_kwh": float(n1_unserved[s]),
            "n1_cost": float(n1_costs[s]),
            "margin_kwh": float(budget - n1_unserved[s]),
        }
        for s in order
    ]
    worst_det = _worst_case(names, det_costs, det_unserved, tol)
    worst_n1 = _worst_case(names, n1_costs, n1_unserved, tol)
    return {
        "epsilon": float(config.survivability_epsilon),
        "budget_unserved_kwh": float(budget),
        "contingency_weight": float(config.contingency_weight),
        "num_sites": len(names),
        "site_names": list(names),
        "size_classes_upgraded": bool(n1.size_classes_upgraded),
        "joint_lp": {
            "num_cols": int(n1.num_cols),
            "num_rows": int(n1.num_rows),
            "iterations": int(n1.iterations),
            "solver": n1.solver,
        },
        "n1_sizing": n1.sizing,
        "det_nominal_cost": det_nominal,
        "n1_nominal_cost": n1_nominal,
        "cost_premium_pct": (
            float(100.0 * (n1_nominal - det_nominal) / det_nominal)
            if det_nominal > 0
            else 0.0
        ),
        "worst_case": {
            "det": {
                "site": names[worst_det],
                "cost": float(det_costs[worst_det]),
                "unserved_kwh": float(det_unserved[worst_det]),
            },
            "n1": {
                "site": names[worst_n1],
                "cost": float(n1_costs[worst_n1]),
                "unserved_kwh": float(n1_unserved[worst_n1]),
            },
        },
        "criticality": criticality,
        "det_violations": int(np.count_nonzero(det_unserved > budget + tol)),
        "n1_violations": int(np.count_nonzero(n1_unserved > budget + tol)),
    }


def plan_with_sizing(plan, sizing: Mapping[str, Mapping[str, float]]):
    """A copy of a network plan with each site's sizing fields replaced.

    The per-epoch operating series of the original plan are kept as-is —
    the operator re-dispatches from scratch anyway; only the sizing fields
    (capacity, solar, wind, battery) matter downstream.
    """
    datacenters = []
    for dc in plan.datacenters:
        block = sizing.get(dc.name)
        if block is None:
            datacenters.append(dc)
            continue
        datacenters.append(
            dataclasses.replace(
                dc,
                capacity_kw=float(block["capacity_kw"]),
                solar_kw=float(block["solar_kw"]),
                wind_kw=float(block["wind_kw"]),
                battery_kwh=float(block["battery_kwh"]),
            )
        )
    return dataclasses.replace(plan, datacenters=datacenters)
