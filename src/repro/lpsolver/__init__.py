"""Row-form LP/MILP substrate: one model form, one HiGHS handle.

The siting/provisioning framework of the paper is expressed as a MILP
(Fig. 1) and, after the heuristic fixes the siting decision, as a sequence
of LPs.  The original authors used an off-the-shelf commercial solver; this
subpackage is the substrate we use instead.

Every model is assembled by its builder as COO triplets and compiled to one
:class:`RowFormLP` (through :func:`coo_to_csc` or :func:`csc_order`) — a CSC
matrix with per-row bounds, column bounds, costs and per-column integrality.  :func:`repro.lpsolver.highs_backend.solve_row_form`
loads it into a :class:`MutableHighsModel`, the one HiGHS handle, which solves
LPs and MILPs alike, carries the basis across structurally identical LP
solves and edits a loaded LP in place.  SciPy's bundled HiGHS bindings are
required: importing this package raises a clear :class:`ImportError` when the
installed SciPy lacks them.

Typical usage (``min x + y`` subject to ``x + 2 y >= 4``)::

    import numpy as np
    from repro.lpsolver import RowFormLP, SolverOptions, coo_to_csc, highs_backend

    # One row, two columns: triplets (row, col, value) of x + 2 y.
    indptr, indices, data = coo_to_csc(
        np.array([0, 0]), np.array([0, 1]), np.array([1.0, 2.0]), (1, 2)
    )
    lp = RowFormLP(
        cost=np.array([1.0, 1.0]), a_indptr=indptr, a_indices=indices,
        a_data=data, shape=(1, 2), row_lower=np.array([4.0]),
        row_upper=np.array([np.inf]), lower=np.zeros(2), upper=np.full(2, np.inf),
        integrality=np.zeros(2, dtype=np.int64), maximise=False,
        objective_constant=0.0,
    )
    result = highs_backend.solve_row_form(lp, SolverOptions())
    assert result.is_optimal
    print(result.x, result.objective)

Setting ``integrality=np.ones(2, dtype=np.int64)`` makes the same call a MILP.
"""

from repro.lpsolver.highs_backend import MutableHighsModel, SolverOptions
from repro.lpsolver.model import ConstraintSense, RowFormLP, coo_to_csc, csc_order
from repro.lpsolver.result import SolveResult, SolveStatus, SolverStatusError
from repro.lpsolver.validate import (
    LPValidationError,
    validate_row_form,
    validation_enabled,
)

__all__ = [
    "ConstraintSense",
    "LPValidationError",
    "MutableHighsModel",
    "RowFormLP",
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "SolverStatusError",
    "coo_to_csc",
    "csc_order",
    "validate_row_form",
    "validation_enabled",
]
