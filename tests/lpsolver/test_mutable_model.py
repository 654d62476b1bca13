"""Unit tests for the in-place mutable HiGHS model layer.

Every mutation (add/delete column and row ranges, column and row bound
edits) is checked against a from-scratch ``linprog`` solve of an equivalent
:class:`~repro.lpsolver.RowFormLP` — the mutated model must stay
bit-compatible with the LP it claims to represent, across warm starts and
basis projections.
"""

import numpy as np
import pytest

from repro.lpsolver import ConstraintSense, SolverOptions
from repro.lpsolver import highs_backend

from lp_oracles import linprog_solve
from row_collector import RowCollector


def _reference_model(c, rows, bounds):
    """Row form of min c @ x subject to row constraints and column bounds."""
    collector = RowCollector()
    xs = [collector.add_variable(lower, upper) for lower, upper in bounds]
    for coeffs, sense, rhs in rows:
        collector.add_row([(x, v) for x, v in zip(xs, coeffs) if v != 0.0], sense, rhs)
    collector.add_objective(zip(xs, c))
    return collector.row_form()


BASE_COST = [1.0, 2.0, 0.5]
BASE_BOUNDS = [(0.0, np.inf)] * 3
BASE_ROWS = [
    ([1.0, 1.0, 1.0], ConstraintSense.GREATER_EQUAL, 6.0),
    ([2.0, 0.0, 1.0], ConstraintSense.LESS_EQUAL, 10.0),
    ([0.0, 1.0, -1.0], ConstraintSense.GREATER_EQUAL, -1.0),
]


def _load_base():
    reference = _reference_model(BASE_COST, BASE_ROWS, BASE_BOUNDS)
    mutable = highs_backend.MutableHighsModel()
    mutable.load(reference)
    return reference, mutable


def _assert_matches(mutable, reference):
    options = SolverOptions()
    got = mutable.solve(options)
    expected = linprog_solve(reference, options)
    assert got.is_optimal == expected.is_optimal
    if got.is_optimal:
        assert got.objective == pytest.approx(expected.objective, rel=1e-9)


class TestMutableHighsModel:
    def test_load_and_solve(self):
        reference, mutable = _load_base()
        _assert_matches(mutable, reference)
        assert mutable.num_cols == 3 and mutable.num_rows == 3

    def test_change_col_bounds(self):
        reference, mutable = _load_base()
        mutable.solve(SolverOptions())  # establish a basis to carry
        mutable.change_col_bounds(np.array([1]), np.array([0.5]), np.array([5.0]))
        new_bounds = [(0.0, np.inf), (0.5, 5.0), (0.0, np.inf)]
        _assert_matches(mutable, _reference_model(BASE_COST, BASE_ROWS, new_bounds))

    def test_change_row_bounds(self):
        reference, mutable = _load_base()
        mutable.solve(SolverOptions())
        mutable.change_row_bounds(0, 8.0, np.inf)
        rows = [
            ([1.0, 1.0, 1.0], ConstraintSense.GREATER_EQUAL, 8.0),
            ([2.0, 0.0, 1.0], ConstraintSense.LESS_EQUAL, 10.0),
            ([0.0, 1.0, -1.0], ConstraintSense.GREATER_EQUAL, -1.0),
        ]
        _assert_matches(mutable, _reference_model(BASE_COST, rows, BASE_BOUNDS))

    def test_add_cols_and_rows(self):
        reference, mutable = _load_base()
        mutable.solve(SolverOptions())
        # New column x3 with cost 0.25, entering existing row 0 with coeff 1.
        mutable.add_cols(
            cost=np.array([0.25]),
            lower=np.array([0.0]),
            upper=np.array([4.0]),
            starts=np.array([0, 1]),
            row_indices=np.array([0]),
            values=np.array([1.0]),
        )
        # New row: x0 + x3 <= 5.
        mutable.add_rows(
            lower=np.array([-np.inf]),
            upper=np.array([5.0]),
            starts=np.array([0, 2]),
            col_indices=np.array([0, 3]),
            values=np.array([1.0, 1.0]),
        )
        assert mutable.num_cols == 4 and mutable.num_rows == 4
        cost = BASE_COST + [0.25]
        bounds = BASE_BOUNDS + [(0.0, 4.0)]
        rows = [
            ([1.0, 1.0, 1.0, 1.0], ConstraintSense.GREATER_EQUAL, 6.0),
            ([2.0, 0.0, 1.0, 0.0], ConstraintSense.LESS_EQUAL, 10.0),
            ([0.0, 1.0, -1.0, 0.0], ConstraintSense.GREATER_EQUAL, -1.0),
            ([1.0, 0.0, 0.0, 1.0], ConstraintSense.LESS_EQUAL, 5.0),
        ]
        _assert_matches(mutable, _reference_model(cost, rows, bounds))

    def test_delete_cols_and_rows(self):
        reference, mutable = _load_base()
        mutable.solve(SolverOptions())
        mutable.delete_cols(np.array([1]))
        mutable.delete_rows(np.array([2]))
        assert mutable.num_cols == 2 and mutable.num_rows == 2
        cost = [1.0, 0.5]
        bounds = [(0.0, np.inf)] * 2
        rows = [
            ([1.0, 1.0], ConstraintSense.GREATER_EQUAL, 6.0),
            ([2.0, 1.0], ConstraintSense.LESS_EQUAL, 10.0),
        ]
        _assert_matches(mutable, _reference_model(cost, rows, bounds))

    def test_basis_snapshot_restore(self):
        reference, mutable = _load_base()
        first = mutable.solve(SolverOptions())
        snapshot = mutable.basis_snapshot()
        assert snapshot is not None
        # A fresh same-shape model adopts the stored basis and re-solves warm.
        other = highs_backend.MutableHighsModel()
        other.load(reference)
        other.restore_basis(snapshot)
        warm = other.solve(SolverOptions())
        assert warm.objective == pytest.approx(first.objective, rel=1e-12)

    def test_snapshot_none_while_projection_dirty(self):
        reference, mutable = _load_base()
        mutable.solve(SolverOptions())
        mutable.delete_cols(np.array([1]))
        # Structural edit without a re-solve: the native basis is stale.
        assert mutable.basis_snapshot() is None
