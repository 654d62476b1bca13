"""Solve entry point of the LP/MILP modelling layer.

Continuous models go to SciPy's bundled HiGHS through
:func:`repro.lpsolver.highs_backend.solve_row_form`; models with integer
variables go to ``scipy.optimize.milp``.  Constraint matrices stay sparse
end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import optimize

from repro.lpsolver import highs_backend
from repro.lpsolver.model import CompiledModel, Model
from repro.lpsolver.result import SolveResult, SolveStatus


@dataclass
class SolverOptions:
    """Knobs shared by the HiGHS and MILP solves.

    Attributes
    ----------
    time_limit:
        Wall-clock limit in seconds (``None`` = no limit).
    mip_gap:
        Relative optimality gap accepted by the MILP backend.
    presolve:
        Whether to let HiGHS presolve the problem.
    force_continuous:
        Solve the LP relaxation even when the model declares integer variables.
        Used by the heuristic solver, which fixes the integer siting decisions
        itself and only needs the continuous provisioning sub-problem.
    """

    time_limit: Optional[float] = None
    mip_gap: float = 1e-4
    presolve: bool = True
    force_continuous: bool = False


_MILP_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve_model(
    model: Model,
    options: Optional[SolverOptions] = None,
    highs: Optional["highs_backend.MutableHighsModel"] = None,
) -> SolveResult:
    """Solve ``model`` and return a :class:`SolveResult`.

    ``highs`` (a long-lived :class:`~repro.lpsolver.highs_backend.MutableHighsModel`)
    enables basis reuse across structurally identical continuous solves; the
    MILP solve ignores it.
    """
    options = options or SolverOptions()
    if model.is_mixed_integer and not options.force_continuous:
        return _solve_milp(model.to_matrices(), options)
    return highs_backend.solve_row_form(model.to_row_form(), options, highs)


def _solve_milp(compiled: CompiledModel, options: SolverOptions) -> SolveResult:
    constraints = []
    if compiled.a_ub is not None:
        constraints.append(
            optimize.LinearConstraint(compiled.a_ub, -np.inf, compiled.b_ub)
        )
    if compiled.a_eq is not None:
        constraints.append(
            optimize.LinearConstraint(compiled.a_eq, compiled.b_eq, compiled.b_eq)
        )
    milp_options = {"presolve": options.presolve, "mip_rel_gap": options.mip_gap}
    if options.time_limit is not None:
        milp_options["time_limit"] = options.time_limit
    result = optimize.milp(
        c=compiled.cost,
        constraints=constraints or None,
        bounds=optimize.Bounds(compiled.lower, compiled.upper),
        integrality=compiled.integrality,
        options=milp_options,
    )
    status = _MILP_STATUS.get(result.status, SolveStatus.ERROR)
    if status is SolveStatus.OPTIMAL and result.x is not None:
        x: Optional[np.ndarray] = np.asarray(result.x, dtype=float)
        raw = float(np.dot(compiled.cost, x))
        objective = (-raw if compiled.maximise else raw) + compiled.objective_constant
    else:
        x = None
        objective = float("nan")
    return SolveResult(
        status=status,
        objective=objective,
        message=str(result.message),
        solver="milp",
        iterations=0,
        x=x,
    )
