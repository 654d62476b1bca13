"""The :class:`Model` container for LP/MILP problems.

A model owns variables (with bounds and kinds), constraints, and an
objective.  Constraints come in two flavours that can be mixed freely:

* scalar :class:`~repro.lpsolver.expressions.Constraint` objects built with
  the readable object API (``x + 2 * y >= 4``), and
* :class:`~repro.lpsolver.blocks.LinearConstraintBlock` families ingested in
  batch through :meth:`Model.add_linear_block` as sparse COO triplets, which
  is how the vectorized provisioning builder emits whole per-epoch constraint
  families at once.

Compilation produces :mod:`scipy.sparse` matrices directly — either the
``A_ub``/``A_eq`` split consumed by ``scipy.optimize.milp``
(:meth:`Model.to_matrices`) or the single row-bounded form
``row_lower <= A x <= row_upper`` loaded into HiGHS
(:meth:`Model.to_row_form`).  The model can also check candidate solutions
for feasibility, which the heuristic solver uses to validate provisioning
plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.lpsolver.blocks import LinearConstraintBlock, make_block
from repro.lpsolver.expressions import (
    Constraint,
    ConstraintSense,
    ExpressionLike,
    LinearExpression,
    Variable,
    VariableKind,
)
from repro.lpsolver.result import SolveResult

if TYPE_CHECKING:
    from repro.lpsolver.highs_backend import MutableHighsModel
    from repro.lpsolver.solvers import SolverOptions


class ModelError(ValueError):
    """Raised for malformed models (duplicate names, bad bounds, ...)."""


class Model:
    """A linear (or mixed-integer linear) optimisation model.

    Parameters
    ----------
    name:
        Human-readable model name (used in error messages and benchmarks).
    sense:
        ``"min"`` or ``"max"``.
    """

    def __init__(self, name: str = "model", sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ModelError(f"unknown optimisation sense {sense!r}")
        self.name = name
        self.sense = sense
        # Variables live in parallel arrays; Variable handles are materialised
        # lazily so bulk registration does not pay per-object costs.
        self._var_names: List[str] = []
        self._lower: List[float] = []
        self._upper: List[float] = []
        self._kinds: Dict[int, VariableKind] = {}  # only non-continuous entries
        self._handles: List[Optional[Variable]] = []
        self._names: Dict[str, int] = {}
        self.constraints: List[Constraint] = []
        self.blocks: List[LinearConstraintBlock] = []
        self.objective: LinearExpression = LinearExpression()

    # -- variables -------------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = float("inf"),
        kind: VariableKind = VariableKind.CONTINUOUS,
    ) -> Variable:
        """Register a new decision variable and return its handle."""
        if name in self._names:
            raise ModelError(f"variable {name!r} already exists in model {self.name!r}")
        if kind is VariableKind.BINARY:
            lower, upper = 0.0, 1.0
        if lower > upper:
            raise ModelError(f"variable {name!r} has lower bound {lower} > upper bound {upper}")
        index = len(self._var_names)
        variable = Variable(name=name, index=index, kind=kind)
        self._var_names.append(name)
        self._lower.append(float(lower))
        self._upper.append(float(upper))
        if kind is not VariableKind.CONTINUOUS:
            self._kinds[index] = kind
        self._handles.append(variable)
        self._names[name] = index
        return variable

    def add_variable_array(
        self,
        names: Sequence[str],
        lower: Union[float, Sequence[float], np.ndarray] = 0.0,
        upper: Union[float, Sequence[float], np.ndarray] = float("inf"),
    ) -> np.ndarray:
        """Register a batch of continuous variables; return their index array.

        This is the fast path used by the vectorized model builders: no
        :class:`Variable` objects are created up front (handles materialise
        lazily on :meth:`variable`/:attr:`variables` access) and bounds may be
        given as scalars or per-variable arrays.
        """
        count = len(names)
        lower_arr = np.broadcast_to(np.asarray(lower, dtype=float), (count,))
        upper_arr = np.broadcast_to(np.asarray(upper, dtype=float), (count,))
        if np.any(lower_arr > upper_arr):
            bad = int(np.argmax(lower_arr > upper_arr))
            raise ModelError(
                f"variable {names[bad]!r} has lower bound {lower_arr[bad]} > "
                f"upper bound {upper_arr[bad]}"
            )
        # Validate the whole batch before touching any model state, so a
        # rejected batch leaves the model exactly as it was.
        name_map = self._names
        if len(set(names)) != count:
            raise ModelError(f"duplicate names within the variable batch in model {self.name!r}")
        for name in names:
            if name in name_map:
                raise ModelError(f"variable {name!r} already exists in model {self.name!r}")
        start = len(self._var_names)
        for offset, name in enumerate(names):
            name_map[name] = start + offset
        self._var_names.extend(names)
        self._lower.extend(lower_arr.tolist())
        self._upper.extend(upper_arr.tolist())
        self._handles.extend([None] * count)
        return np.arange(start, start + count, dtype=np.int64)

    def add_binary(self, name: str) -> Variable:
        """Shorthand for a 0/1 variable."""
        return self.add_variable(name, kind=VariableKind.BINARY)

    def add_integer(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Variable:
        """Shorthand for an integer variable."""
        return self.add_variable(name, lower=lower, upper=upper, kind=VariableKind.INTEGER)

    def _handle(self, index: int) -> Variable:
        handle = self._handles[index]
        if handle is None:
            handle = Variable(
                name=self._var_names[index],
                index=index,
                kind=self._kinds.get(index, VariableKind.CONTINUOUS),
            )
            self._handles[index] = handle
        return handle

    def variable(self, name: str) -> Variable:
        """Look up a variable by name."""
        try:
            return self._handle(self._names[name])
        except KeyError:
            raise ModelError(f"no variable named {name!r} in model {self.name!r}") from None

    @property
    def variables(self) -> List[Variable]:
        return [self._handle(index) for index in range(len(self._var_names))]

    @property
    def num_variables(self) -> int:
        return len(self._var_names)

    @property
    def num_constraints(self) -> int:
        """Total constraint rows: scalar constraints plus block rows."""
        return len(self.constraints) + sum(block.num_rows for block in self.blocks)

    def bounds(self, variable: Union[Variable, int]) -> Tuple[float, float]:
        """Return ``(lower, upper)`` bounds of a variable (or variable index)."""
        index = variable.index if isinstance(variable, Variable) else int(variable)
        return self._lower[index], self._upper[index]

    def set_bounds(
        self,
        variable: Union[Variable, int],
        lower: Optional[float] = None,
        upper: Optional[float] = None,
    ) -> None:
        """Tighten or relax the bounds of an existing variable."""
        index = variable.index if isinstance(variable, Variable) else int(variable)
        if lower is not None:
            self._lower[index] = float(lower)
        if upper is not None:
            self._upper[index] = float(upper)
        if self._lower[index] > self._upper[index]:
            raise ModelError(
                f"variable {self._var_names[index]!r} has lower bound "
                f"{self._lower[index]} > upper bound {self._upper[index]}"
            )

    def fix(self, variable: Union[Variable, int], value: float) -> None:
        """Fix a variable to a constant by collapsing its bounds."""
        self.set_bounds(variable, lower=value, upper=value)

    @property
    def is_mixed_integer(self) -> bool:
        """True when any variable is integer or binary."""
        return bool(self._kinds)

    # -- constraints and objective ----------------------------------------------
    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint, skipping trivially satisfied constant constraints."""
        if not isinstance(constraint, Constraint):
            raise ModelError(f"expected a Constraint, got {constraint!r}")
        if name:
            constraint.name = name
        if constraint.expression.is_constant():
            if constraint.is_trivially_feasible():
                return constraint
            raise ModelError(
                f"constraint {constraint.name or constraint!r} is constant and infeasible"
            )
        self.constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    def add_linear_block(
        self,
        rows: Union[Sequence[int], np.ndarray],
        cols: Union[Sequence[int], np.ndarray],
        vals: Union[Sequence[float], np.ndarray],
        sense: ConstraintSense,
        rhs: Union[Sequence[float], np.ndarray],
        name: str = "",
    ) -> LinearConstraintBlock:
        """Ingest a whole family of constraints as sparse COO triplets.

        ``rows`` are block-local (0-based); the block contributes
        ``len(rhs)`` constraint rows, all with the same ``sense``.  This is
        the batched counterpart of :meth:`add_constraint`; the triplets are
        validated and zero coefficients dropped (:func:`make_block`).
        """
        block = make_block(
            rows, cols, vals, sense, rhs, name=name, num_variables=self.num_variables
        )
        self.blocks.append(block)
        return block

    def set_objective(self, expression: ExpressionLike) -> None:
        """Set the objective expression (interpreted with the model's sense)."""
        self.objective = LinearExpression.from_value(expression)

    # -- compilation to matrix form ----------------------------------------------
    def _gather_triplets(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Collect (rows, cols, vals, senses, rhs) across scalar constraints and blocks.

        Returns flat triplet arrays with *global* row numbering (scalar
        constraints first, then blocks in insertion order), a per-row sense
        array, and the per-row right-hand side.
        """
        row_chunks: List[np.ndarray] = []
        col_chunks: List[np.ndarray] = []
        val_chunks: List[np.ndarray] = []
        senses: List[ConstraintSense] = []
        rhs_chunks: List[np.ndarray] = []
        row_offset = 0
        if self.constraints:
            scalar_rows: List[int] = []
            scalar_cols: List[int] = []
            scalar_vals: List[float] = []
            scalar_rhs = np.empty(len(self.constraints))
            for row, constraint in enumerate(self.constraints):
                coeffs = constraint.expression.coefficients
                scalar_rows.extend([row] * len(coeffs))
                scalar_cols.extend(coeffs.keys())
                scalar_vals.extend(coeffs.values())
                scalar_rhs[row] = constraint.rhs
                senses.append(constraint.sense)
            row_chunks.append(np.asarray(scalar_rows, dtype=np.int64))
            col_chunks.append(np.asarray(scalar_cols, dtype=np.int64))
            val_chunks.append(np.asarray(scalar_vals, dtype=np.float64))
            rhs_chunks.append(scalar_rhs)
            row_offset = len(self.constraints)
        for block in self.blocks:
            row_chunks.append(block.rows + row_offset)
            col_chunks.append(block.cols)
            val_chunks.append(block.vals)
            rhs_chunks.append(block.rhs)
            senses.extend([block.sense] * block.num_rows)
            row_offset += block.num_rows
        if not rhs_chunks:
            empty_i = np.empty(0, dtype=np.int64)
            return empty_i, empty_i, np.empty(0), np.empty(0, dtype=object), np.empty(0)
        rows = np.concatenate(row_chunks)
        cols = np.concatenate(col_chunks)
        vals = np.concatenate(val_chunks)
        rhs = np.concatenate(rhs_chunks)
        sense_arr = np.array([s.value for s in senses], dtype=object)
        return rows, cols, vals, sense_arr, rhs

    def _objective_arrays(self) -> np.ndarray:
        cost = np.zeros(self.num_variables)
        if self.objective.coefficients:
            indices = np.fromiter(
                self.objective.coefficients.keys(), dtype=np.int64,
                count=len(self.objective.coefficients),
            )
            values = np.fromiter(
                self.objective.coefficients.values(), dtype=np.float64,
                count=len(self.objective.coefficients),
            )
            cost[indices] = values
        if self.sense == "max":
            cost = -cost
        return cost

    def _integrality(self) -> np.ndarray:
        integrality = np.zeros(self.num_variables, dtype=np.int64)
        for index in self._kinds:
            integrality[index] = 1
        return integrality

    def to_matrices(self) -> "CompiledModel":
        """Compile to the ``A_ub``/``A_eq`` split consumed by SciPy backends.

        Constraint matrices are assembled as :class:`scipy.sparse.csr_matrix`
        directly from COO triplets — no dense per-row intermediate is ever
        built.  ``>=`` rows are negated into ``<=`` rows as before.
        """
        n = self.num_variables
        rows, cols, vals, senses, rhs = self._gather_triplets()

        le_mask = senses == ConstraintSense.LESS_EQUAL.value
        ge_mask = senses == ConstraintSense.GREATER_EQUAL.value
        eq_mask = senses == ConstraintSense.EQUAL.value
        ub_mask = le_mask | ge_mask

        a_ub = b_ub = a_eq = b_eq = None
        if np.any(ub_mask):
            # Map original row numbers onto compact 0..m-1 numbering, flipping
            # the sign of >= rows so everything reads  A_ub x <= b_ub.
            ub_rows = np.flatnonzero(ub_mask)
            renumber = np.full(len(senses), -1, dtype=np.int64)
            renumber[ub_rows] = np.arange(len(ub_rows))
            entry_mask = ub_mask[rows]
            sign = np.where(ge_mask[rows[entry_mask]], -1.0, 1.0)
            a_ub = sparse.csr_matrix(
                (vals[entry_mask] * sign, (renumber[rows[entry_mask]], cols[entry_mask])),
                shape=(len(ub_rows), n),
            )
            b_ub = np.where(ge_mask[ub_rows], -rhs[ub_rows], rhs[ub_rows])
        if np.any(eq_mask):
            eq_rows = np.flatnonzero(eq_mask)
            renumber = np.full(len(senses), -1, dtype=np.int64)
            renumber[eq_rows] = np.arange(len(eq_rows))
            entry_mask = eq_mask[rows]
            a_eq = sparse.csr_matrix(
                (vals[entry_mask], (renumber[rows[entry_mask]], cols[entry_mask])),
                shape=(len(eq_rows), n),
            )
            b_eq = rhs[eq_rows]

        return CompiledModel(
            cost=self._objective_arrays(),
            a_ub=a_ub,
            b_ub=b_ub,
            a_eq=a_eq,
            b_eq=b_eq,
            lower=np.array(self._lower),
            upper=np.array(self._upper),
            integrality=self._integrality(),
            maximise=self.sense == "max",
            objective_constant=self.objective.constant,
        )

    def to_row_form(self) -> "RowFormLP":
        """Compile to the row-bounded form ``row_lower <= A x <= row_upper``.

        This is the native input format of HiGHS: one CSC matrix with per-row
        lower/upper bounds instead of the ``A_ub``/``A_eq`` split, so no row
        ever needs to be negated or duplicated.  Used by the direct backend in
        :mod:`repro.lpsolver.highs_backend`.
        """
        n = self.num_variables
        rows, cols, vals, senses, rhs = self._gather_triplets()
        m = len(senses)
        matrix = sparse.csc_matrix((vals, (rows, cols)), shape=(m, n))
        row_lower = np.where(senses == ConstraintSense.LESS_EQUAL.value, -np.inf, rhs)
        row_upper = np.where(senses == ConstraintSense.GREATER_EQUAL.value, np.inf, rhs)
        return RowFormLP(
            cost=self._objective_arrays(),
            a_indptr=matrix.indptr,
            a_indices=matrix.indices,
            a_data=matrix.data,
            shape=(m, n),
            row_lower=row_lower,
            row_upper=row_upper,
            lower=np.array(self._lower),
            upper=np.array(self._upper),
            integrality=self._integrality(),
            maximise=self.sense == "max",
            objective_constant=self.objective.constant,
        )

    # -- solving and checking ------------------------------------------------------
    def solve(
        self,
        options: Optional["SolverOptions"] = None,
        highs: Optional["MutableHighsModel"] = None,
    ) -> SolveResult:
        """Solve the model with HiGHS (continuous) or ``scipy.optimize.milp``.

        ``highs`` may be a long-lived
        :class:`~repro.lpsolver.highs_backend.MutableHighsModel` to reuse the
        previous optimal basis across structurally identical solves.
        """
        from repro.lpsolver.solvers import solve_model

        return solve_model(self, options, highs=highs)

    def check_solution(self, values: Mapping[int, float], tolerance: float = 1e-6) -> List[str]:
        """Return a list of violated constraint/bound descriptions (empty if feasible)."""
        violations: List[str] = []
        n = self.num_variables
        x = np.zeros(n)
        for index, value in values.items():
            if 0 <= index < n:  # tolerate stray indices, as the per-variable lookup did
                x[index] = value
        for index in range(n):
            if x[index] < self._lower[index] - tolerance or x[index] > self._upper[index] + tolerance:
                violations.append(
                    f"variable {self._var_names[index]} = {x[index]:.6g} outside "
                    f"[{self._lower[index]:.6g}, {self._upper[index]:.6g}]"
                )
        for constraint in self.constraints:
            violation = constraint.violation(values)
            if violation > tolerance:
                label = constraint.name or repr(constraint)
                violations.append(f"constraint {label} violated by {violation:.6g}")
        for block in self.blocks:
            for row in block.violations(x, tolerance):
                label = f"{block.name or 'block'}[{int(row)}]"
                violations.append(f"constraint {label} violated")
        return violations

    def objective_value(self, values: Mapping[int, float]) -> float:
        """Evaluate the objective expression for a candidate solution."""
        return self.objective.evaluate(values)

    def __repr__(self) -> str:
        kind = "MILP" if self.is_mixed_integer else "LP"
        return (
            f"Model({self.name!r}, {kind}, {self.num_variables} variables, "
            f"{self.num_constraints} constraints)"
        )


@dataclass
class CompiledModel:
    """Matrix form of a model, ready for ``milp``.

    ``a_ub``/``a_eq`` are :class:`scipy.sparse.csr_matrix` (or ``None`` when
    the model has no rows of that kind).
    """

    cost: np.ndarray
    a_ub: Optional[sparse.csr_matrix]
    b_ub: Optional[np.ndarray]
    a_eq: Optional[sparse.csr_matrix]
    b_eq: Optional[np.ndarray]
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximise: bool
    objective_constant: float


@dataclass
class RowFormLP:
    """Row-bounded compilation ``row_lower <= A @ x <= row_upper``.

    The native HiGHS input form: the constraint matrix is carried as raw CSC
    arrays (``a_indptr``/``a_indices``/``a_data`` with ``shape = (rows,
    cols)``) so they can be handed to ``HighsLp`` without conversion or
    re-validation.  ``cost`` is already negated for maximisation problems
    (mirrors :class:`CompiledModel`).
    """

    cost: np.ndarray
    a_indptr: np.ndarray
    a_indices: np.ndarray
    a_data: np.ndarray
    shape: Tuple[int, int]
    row_lower: np.ndarray
    row_upper: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    maximise: bool
    objective_constant: float

    @property
    def matrix(self) -> sparse.csc_matrix:
        """The constraint matrix as a scipy CSC matrix (built on demand)."""
        return sparse.csc_matrix(
            (self.a_data, self.a_indices, self.a_indptr), shape=self.shape
        )

    @property
    def num_variables(self) -> int:
        return int(self.shape[1])

    @property
    def num_rows(self) -> int:
        return int(self.shape[0])
