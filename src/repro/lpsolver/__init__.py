"""Linear and mixed-integer linear programming modelling layer.

The siting/provisioning framework of the paper is expressed as a MILP
(Fig. 1) and, after the heuristic fixes the siting decision, as a sequence
of LPs.  The original authors used an off-the-shelf commercial solver; this
subpackage provides the substrate we use instead: a small, typed modelling
language (variables, linear expressions, constraints, objective) compiled
directly to :mod:`scipy.sparse` matrices.

Two constraint-building styles compose freely:

* the readable object API (``x + 2 * y >= 4``) for small models, and
* the vectorized block API — :meth:`Model.add_variable_array` plus
  :meth:`Model.add_linear_block` with COO triplet arrays — which ingests a
  whole per-epoch constraint family in one call and is what keeps the
  provisioning hot path out of Python-level dict arithmetic.

Every continuous LP is solved by SciPy's bundled HiGHS bindings through
:func:`repro.lpsolver.highs_backend.solve_row_form`, which loads the compiled
:class:`RowFormLP` into a :class:`MutableHighsModel` — the one HiGHS handle,
which also carries the basis across structurally identical solves and edits
a loaded LP in place.  Those bindings are required: importing this package
raises a clear :class:`ImportError` when the installed SciPy lacks them.
Models with integer variables go to ``scipy.optimize.milp``.

Typical usage::

    from repro.lpsolver import Model

    model = Model("example", sense="min")
    x = model.add_variable("x", lower=0.0)
    y = model.add_variable("y", lower=0.0)
    model.add_constraint(x + 2 * y >= 4, name="demand")
    model.set_objective(3 * x + 5 * y)
    result = model.solve()
    assert result.is_optimal
    print(result.value(x), result.value(y), result.objective)

Batched usage (one constraint family, many rows)::

    import numpy as np
    from repro.lpsolver import ConstraintSense, Model

    model = Model("batched", sense="min")
    idx = model.add_variable_array([f"x[{t}]" for t in range(96)])
    model.add_linear_block(
        rows=np.arange(96), cols=idx, vals=np.ones(96),
        sense=ConstraintSense.GREATER_EQUAL, rhs=np.full(96, 2.0),
        name="floor",
    )
"""

from repro.lpsolver.blocks import LinearConstraintBlock
from repro.lpsolver.expressions import (
    Constraint,
    ConstraintSense,
    LinearExpression,
    Variable,
    VariableKind,
)
from repro.lpsolver.batch import stack_block_diagonal
from repro.lpsolver.highs_backend import MutableHighsModel
from repro.lpsolver.model import CompiledModel, Model, ModelError, RowFormLP
from repro.lpsolver.result import SolveResult, SolveStatus, SolverStatusError
from repro.lpsolver.solvers import SolverOptions, solve_model
from repro.lpsolver.validate import (
    LPValidationError,
    validate_row_form,
    validation_enabled,
)

__all__ = [
    "CompiledModel",
    "Constraint",
    "ConstraintSense",
    "LPValidationError",
    "LinearConstraintBlock",
    "LinearExpression",
    "Model",
    "ModelError",
    "MutableHighsModel",
    "RowFormLP",
    "SolveResult",
    "SolveStatus",
    "SolverOptions",
    "SolverStatusError",
    "Variable",
    "VariableKind",
    "solve_model",
    "stack_block_diagonal",
    "validate_row_form",
    "validation_enabled",
]
