"""Typed non-optimal statuses: SolverStatusError and the check= knobs."""

import pytest

from repro.lpsolver import (
    ConstraintSense,
    SolverOptions,
    SolverStatusError,
    SolveStatus,
    highs_backend,
)

from row_collector import RowCollector


def _row_form(rows):
    """min x0 + x1 subject to ``rows`` over two nonnegative variables."""
    collector = RowCollector()
    xs = [collector.add_variable(), collector.add_variable()]
    for coeffs, sense, rhs in rows:
        collector.add_row(zip(xs, coeffs), sense, rhs)
    collector.add_objective([(x, 1.0) for x in xs])
    return collector.row_form()


FEASIBLE_ROWS = [([1.0, 1.0], ConstraintSense.GREATER_EQUAL, 2.0)]
INFEASIBLE_ROWS = [
    ([1.0, 1.0], ConstraintSense.GREATER_EQUAL, 4.0),
    ([1.0, 1.0], ConstraintSense.LESS_EQUAL, 1.0),
]


class TestRowFormCheck:
    def test_check_raises_typed_error_on_infeasible(self):
        row_form = _row_form(INFEASIBLE_ROWS)
        with pytest.raises(SolverStatusError) as excinfo:
            highs_backend.solve_row_form(row_form, SolverOptions(), check=True)
        error = excinfo.value
        assert error.status is SolveStatus.INFEASIBLE
        assert error.solver == "highs-direct"
        assert "infeasible" in str(error)

    def test_without_check_the_status_is_returned_not_raised(self):
        row_form = _row_form(INFEASIBLE_ROWS)
        result = highs_backend.solve_row_form(row_form, SolverOptions())
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.is_optimal
        with pytest.raises(SolverStatusError):
            result.raise_for_status()

    def test_raise_for_status_returns_self_when_optimal(self):
        row_form = _row_form(FEASIBLE_ROWS)
        result = highs_backend.solve_row_form(row_form, SolverOptions(), check=True)
        assert result.raise_for_status() is result
        assert result.objective == pytest.approx(2.0)


class TestMutableModelCheck:
    def test_reloaded_infeasible_raises_and_recovers(self):
        mutable = highs_backend.MutableHighsModel()
        mutable.load(_row_form(INFEASIBLE_ROWS))
        with pytest.raises(SolverStatusError) as excinfo:
            mutable.solve(SolverOptions(), check=True)
        assert excinfo.value.status is SolveStatus.INFEASIBLE

        # Reload a feasible LP on the same handle; a basis-cleared solve
        # recovers.
        mutable.load(_row_form(FEASIBLE_ROWS))
        mutable.clear_basis()
        recovered = mutable.solve(SolverOptions(), check=True)
        assert recovered.objective == pytest.approx(2.0)

    def test_error_carries_solver_context(self):
        mutable = highs_backend.MutableHighsModel()
        mutable.load(_row_form(INFEASIBLE_ROWS))
        with pytest.raises(SolverStatusError) as excinfo:
            mutable.solve(SolverOptions(), check=True)
        error = excinfo.value
        assert error.status is SolveStatus.INFEASIBLE
        assert isinstance(error.iterations, int)
        assert isinstance(error, RuntimeError)
