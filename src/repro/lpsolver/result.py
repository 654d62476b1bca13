"""Solve results for the LP/MILP layer."""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Optional

import numpy as np

from repro.lpsolver.expressions import LinearExpression, Variable


class SolveStatus(enum.Enum):
    """Outcome of a solver invocation."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"


class SolverStatusError(RuntimeError):
    """A solve that had to be optimal was not.

    Carries the backend's status classification and counters so callers that
    must never act on a ``nan`` objective (the incremental dispatcher, the
    stochastic-ensemble LP) can distinguish an infeasible model from an
    iteration limit or a backend error and react accordingly — retry, cold
    rebuild, or surface the failure with full context.
    """

    def __init__(
        self,
        status: "SolveStatus",
        message: str = "",
        solver: str = "",
        iterations: int = 0,
    ) -> None:
        detail = f" ({message})" if message else ""
        super().__init__(
            f"solver returned status {status.value}{detail} "
            f"[solver={solver or 'unknown'}, iterations={iterations}]"
        )
        self.status = status
        self.solver_message = message
        self.solver = solver
        self.iterations = iterations


class SolveResult:
    """The outcome of solving a :class:`~repro.lpsolver.model.Model`.

    Attributes
    ----------
    status:
        Solver status classification.
    objective:
        Objective value (``nan`` when not optimal).
    values:
        Mapping from variable index to optimal value.  Materialised lazily
        from ``x`` on first access — the solve hot paths only ever read the
        array form.
    message:
        Backend diagnostic message.
    solver:
        Which path produced the result: ``"highs-direct"`` (a row form
        solved by :func:`~repro.lpsolver.highs_backend.solve_row_form`),
        ``"highs-mutable"`` (an edited model) or ``"milp"``.
    iterations:
        Iteration count reported by the backend, if any.
    x:
        Optimal point as a dense array indexed by variable index (``None``
        when not optimal).  Preferred over ``values`` on hot paths because it
        supports vectorized fancy-indexed extraction.
    """

    __slots__ = ("status", "objective", "message", "solver", "iterations", "x", "_values")

    def __init__(
        self,
        status: SolveStatus,
        objective: float,
        values: Optional[Dict[int, float]] = None,
        message: str = "",
        solver: str = "",
        iterations: int = 0,
        x: Optional[np.ndarray] = None,
    ) -> None:
        self.status = status
        self.objective = objective
        self.message = message
        self.solver = solver
        self.iterations = iterations
        self.x = x
        self._values = values

    @property
    def values(self) -> Dict[int, float]:
        if self._values is None:
            if self.x is None:
                self._values = {}
            else:
                self._values = {index: float(value) for index, value in enumerate(self.x)}
        return self._values

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    def raise_for_status(self) -> "SolveResult":
        """Return self when optimal, raise :class:`SolverStatusError` otherwise."""
        if self.status is not SolveStatus.OPTIMAL:
            raise SolverStatusError(
                self.status,
                message=self.message,
                solver=self.solver,
                iterations=self.iterations,
            )
        return self

    def value(self, item: Variable | LinearExpression) -> float:
        """Value of a variable or linear expression at the optimum."""
        if isinstance(item, Variable):
            if self.x is not None and item.index < len(self.x):
                return float(self.x[item.index])
            return self.values.get(item.index, 0.0)
        if isinstance(item, LinearExpression):
            return item.evaluate(self.values)
        raise TypeError(f"cannot evaluate {item!r} against a solve result")

    def value_array(self, indices: np.ndarray) -> np.ndarray:
        """Values of a batch of variables given their index array."""
        if self.x is not None:
            return np.asarray(self.x[indices], dtype=float)
        return np.array([self.values.get(int(i), 0.0) for i in np.ravel(indices)]).reshape(
            np.shape(indices)
        )

    def values_by_name(self, variables: Mapping[str, Variable]) -> Dict[str, float]:
        """Return ``{variable name: value}`` for a name->variable mapping."""
        return {name: self.value(var) for name, var in variables.items()}

    def __repr__(self) -> str:
        return (
            f"SolveResult(status={self.status.value}, objective={self.objective:.6g}, "
            f"solver={self.solver!r}, n_values={len(self.values)})"
        )
