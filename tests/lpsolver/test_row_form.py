"""Tests for the row form, its block-diagonal stacker and the solve result."""

import numpy as np
import pytest
from scipy import sparse

from repro.lpsolver import (
    ConstraintSense,
    SolveResult,
    SolveStatus,
    SolverOptions,
    SolverStatusError,
    stack_block_diagonal,
)
from repro.lpsolver import batch as batch_module
from repro.lpsolver.highs_backend import solve_row_form

from row_collector import RowCollector


def _cover(rhs, maximise=False, integer=False, constant=0.0):
    """min (or max -) sum(x) s.t. x_i >= rhs_i, x_i <= 10; optionally integer columns."""
    rows = RowCollector(maximise=maximise)
    xs = [rows.add_variable(upper=10.0, integer=integer) for _ in rhs]
    for x, bound in zip(xs, rhs):
        rows.add_row([(x, 1.0)], ">=", bound)
    rows.add_objective([(x, -1.0 if maximise else 1.0) for x in xs], constant=constant)
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
        matrix = row_form.matrix
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


class TestStackBlockDiagonal:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one block"):
            stack_block_diagonal([])

    def test_mixed_senses_rejected(self):
        with pytest.raises(ValueError, match="same optimisation sense"):
            stack_block_diagonal([_cover([1.0]), _cover([1.0], maximise=True)])

    def test_offsets_are_cumulative_boundaries(self):
        blocks = [_cover([1.0, 2.0]), _coupled(3.0, 1.0), _cover([4.0, 5.0, 6.0])]
        stacked, col_offsets, row_offsets = stack_block_diagonal(blocks)
        np.testing.assert_array_equal(col_offsets, [0, 2, 4, 7])
        np.testing.assert_array_equal(row_offsets, [0, 2, 4, 7])
        assert stacked.shape == (7, 7)

    def test_single_block_is_unchanged(self):
        block = _coupled(3.0, 1.0)
        stacked, col_offsets, row_offsets = stack_block_diagonal([block])
        for field in ("cost", "a_indptr", "a_indices", "a_data", "row_lower", "row_upper",
                      "lower", "upper", "integrality"):
            np.testing.assert_array_equal(getattr(stacked, field), getattr(block, field))
        assert stacked.shape == block.shape
        np.testing.assert_array_equal(col_offsets, [0, 2])
        np.testing.assert_array_equal(row_offsets, [0, 2])

    def test_matrix_is_block_diagonal(self):
        blocks = [_coupled(3.0, 1.0), _cover([1.0, 2.0]), _coupled(5.0, 2.0)]
        stacked, _, _ = stack_block_diagonal(blocks)
        expected = sparse.block_diag([block.matrix for block in blocks]).toarray()
        np.testing.assert_array_equal(stacked.matrix.toarray(), expected)

    def test_vectors_concatenated_and_constants_summed(self):
        blocks = [_cover([1.0], constant=5.0), _cover([2.0, 3.0], integer=True, constant=7.0)]
        stacked, _, _ = stack_block_diagonal(blocks)
        for field in ("cost", "row_lower", "row_upper", "lower", "upper", "integrality"):
            np.testing.assert_array_equal(
                getattr(stacked, field), np.concatenate([getattr(b, field) for b in blocks])
            )
        assert stacked.objective_constant == 12.0
        assert not stacked.maximise

    def test_maximise_is_carried(self):
        blocks = [_cover([1.0], maximise=True), _cover([2.0, 3.0], maximise=True)]
        stacked, _, _ = stack_block_diagonal(blocks)
        assert stacked.maximise
        # max -sum(x) with x_i >= rhs_i: every column sits on its floor.
        assert solve_row_form(stacked, SolverOptions()).objective == pytest.approx(-6.0)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_stacked_optimum_decomposes_into_block_optima(self, count):
        blocks = [_coupled(3.0 + index, 1.0 + index) for index in range(count)]
        stacked, col_offsets, _ = stack_block_diagonal(blocks)
        result = solve_row_form(stacked, SolverOptions())
        assert result.is_optimal
        total = 0.0
        for index, block in enumerate(blocks):
            alone = solve_row_form(block, SolverOptions())
            part = result.x[col_offsets[index]:col_offsets[index + 1]]
            np.testing.assert_allclose(part, alone.x, atol=1e-9)
            assert block.cost @ part + block.objective_constant == pytest.approx(alone.objective)
            total += alone.objective
        assert result.objective == pytest.approx(total)

    def test_block_without_rows_stacks(self):
        rows = RowCollector()
        pinned = rows.add_variable(lower=2.0, upper=2.0)
        rows.add_objective([(pinned, 3.0)])
        no_rows = rows.row_form()
        assert no_rows.num_rows == 0
        stacked, col_offsets, row_offsets = stack_block_diagonal([_coupled(3.0, 1.0), no_rows])
        np.testing.assert_array_equal(col_offsets, [0, 2, 3])
        np.testing.assert_array_equal(row_offsets, [0, 2, 2])
        result = solve_row_form(stacked, SolverOptions())
        # Block one: x = 1, y = 2 costs 5; the pinned column adds 6.
        assert result.objective == pytest.approx(11.0)

    def test_integer_and_continuous_blocks_keep_their_kinds(self):
        stacked, _, _ = stack_block_diagonal([_cover([2.5], integer=True), _cover([2.5])])
        result = solve_row_form(stacked, SolverOptions())
        assert result.is_optimal
        np.testing.assert_allclose(result.x, [3.0, 2.5], atol=1e-9)

    @pytest.mark.parametrize("enabled", [True, False])
    def test_offsets_are_validated_only_when_enabled(self, monkeypatch, enabled):
        calls = []
        monkeypatch.setattr(batch_module._validate, "validation_enabled", lambda: enabled)
        monkeypatch.setattr(
            batch_module._validate,
            "validate_block_offsets",
            lambda stacked, cols, rows, count, label: calls.append((count, label)),
        )
        stack_block_diagonal([_cover([1.0]), _cover([2.0])])
        assert calls == ([(2, "stack_block_diagonal")] if enabled else [])


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
