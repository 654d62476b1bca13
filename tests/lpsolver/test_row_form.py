"""Tests for the row form and the solve result."""

import numpy as np
import pytest
from scipy import sparse

from repro.lpsolver import ConstraintSense, SolveResult, SolveStatus, SolverStatusError

from lp_oracles import csc_matrix
from row_collector import RowCollector


def _cover(rhs):
    """min sum(x) s.t. x_i >= rhs_i, x_i <= 10."""
    rows = RowCollector()
    xs = [rows.add_variable(upper=10.0) for _ in rhs]
    for x, bound in zip(xs, rhs):
        rows.add_row([(x, 1.0)], ">=", bound)
    rows.add_objective([(x, 1.0) for x in xs])
    return rows.row_form()


def _coupled(a, b):
    """min x + 2 y s.t. x + y >= a, x <= b (two columns sharing a row)."""
    rows = RowCollector()
    x, y = rows.add_variable(), rows.add_variable()
    rows.add_row([(x, 1.0), (y, 1.0)], ">=", a)
    rows.add_row([(x, 1.0)], "<=", b)
    rows.add_objective([(x, 1.0), (y, 2.0)])
    return rows.row_form()


class TestRowFormLP:
    def test_matrix_round_trips_the_csc_arrays(self):
        row_form = _coupled(3.0, 1.0)
        matrix = csc_matrix(row_form)
        assert isinstance(matrix, sparse.csc_matrix)
        np.testing.assert_array_equal(matrix.toarray(), [[1.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(matrix.indptr, row_form.a_indptr)
        np.testing.assert_array_equal(matrix.indices, row_form.a_indices)
        np.testing.assert_array_equal(matrix.data, row_form.a_data)

    def test_dimensions_come_from_the_shape(self):
        row_form = _cover([1.0, 2.0, 3.0])
        assert (row_form.num_rows, row_form.num_variables) == row_form.shape == (3, 3)
        assert isinstance(row_form.num_rows, int) and isinstance(row_form.num_variables, int)

    def test_constraint_sense_is_looked_up_by_symbol(self):
        assert [ConstraintSense(symbol) for symbol in ("<=", ">=", "==")] == [
            ConstraintSense.LESS_EQUAL,
            ConstraintSense.GREATER_EQUAL,
            ConstraintSense.EQUAL,
        ]
        with pytest.raises(ValueError):
            ConstraintSense("<")


NOT_OPTIMAL = [status for status in SolveStatus if status is not SolveStatus.OPTIMAL]


class TestSolveResult:
    @pytest.mark.parametrize("status", list(SolveStatus))
    def test_only_optimal_is_optimal(self, status):
        result = SolveResult(status, 0.0)
        assert result.is_optimal is (status is SolveStatus.OPTIMAL)

    @pytest.mark.parametrize("status", NOT_OPTIMAL)
    def test_raise_for_status_carries_the_context(self, status):
        result = SolveResult(status, float("nan"), message="why", solver="s", iterations=7)
        with pytest.raises(SolverStatusError) as caught:
            result.raise_for_status()
        error = caught.value
        assert (error.status, error.solver_message, error.solver, error.iterations) == (
            status,
            "why",
            "s",
            7,
        )
        assert f"status {status.value} (why)" in str(error)
        assert "[solver=s, iterations=7]" in str(error)

    def test_error_without_a_solver_says_unknown(self):
        error = SolverStatusError(SolveStatus.ERROR)
        assert str(error) == "solver returned status error [solver=unknown, iterations=0]"
        assert isinstance(error, RuntimeError)

    def test_value_array_follows_the_index_order(self):
        result = SolveResult(SolveStatus.OPTIMAL, 1.0, x=np.array([10.0, 11.0, 12.0]))
        values = result.value_array(np.array([2, 0, 2]))
        np.testing.assert_array_equal(values, [12.0, 10.0, 12.0])
        assert values.dtype == float

    @pytest.mark.parametrize("status", NOT_OPTIMAL)
    def test_value_array_without_a_solution_names_the_status(self, status):
        result = SolveResult(status, float("nan"))
        with pytest.raises(ValueError, match=f"the solve ended {status.value}"):
            result.value_array(np.array([0]))

    def test_repr_names_status_objective_and_solver(self):
        result = SolveResult(SolveStatus.OPTIMAL, 2.5, solver="highs-direct")
        assert repr(result) == "SolveResult(status=optimal, objective=2.5, solver='highs-direct')"
