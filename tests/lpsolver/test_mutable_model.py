"""Unit tests for the persistent HiGHS model layer.

Loads and solves are checked against a from-scratch ``linprog`` solve of the
same :class:`~repro.lpsolver.RowFormLP`; the carried basis is checked across
snapshots, restores and the rolling dispatcher's one-step rotation.
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

    def test_roll_basis_rotates_statuses(self):
        # Optimal basis: x0 and x2 basic, x1 and x3 at their lower bounds; the
        # two covering rows tight, the x0 <= 5 row slack (basic).
        rows = [
            ([1.0, 1.0, 0.0, 0.0], ConstraintSense.GREATER_EQUAL, 1.0),
            ([0.0, 0.0, 1.0, 1.0], ConstraintSense.GREATER_EQUAL, 2.0),
            ([1.0, 0.0, 0.0, 0.0], ConstraintSense.LESS_EQUAL, 5.0),
        ]
        mutable = highs_backend.MutableHighsModel()
        mutable.load(_reference_model([1.0, 3.0, 1.0, 3.0], rows, [(0.0, np.inf)] * 4))
        mutable.solve(SolverOptions())
        before = mutable.basis_snapshot()
        cols, rows = list(before.basis.col_status), list(before.basis.row_status)
        mutable.roll_basis(1, 2)
        after = mutable.basis_snapshot()
        assert list(after.basis.col_status) == cols[1:] + cols[:1] != cols
        assert list(after.basis.row_status) == rows[2:] + rows[:2] != rows
        assert after.shape == before.shape
        assert (after.basis.valid, after.basis.alien) == (before.basis.valid, before.basis.alien)
        # The carried basis is replaced, not edited in place.
        assert list(before.basis.col_status) == cols

    def test_full_roll_is_identity_and_stays_warm(self):
        reference, mutable = _load_base()
        first = mutable.solve(SolverOptions())
        mutable.roll_basis(mutable.num_cols, mutable.num_rows)
        rolled = mutable.basis_snapshot()
        mutable.load(reference)
        mutable.restore_basis(rolled)
        warm = mutable.solve(SolverOptions())
        assert warm.objective == pytest.approx(first.objective, rel=1e-12)
        assert warm.iterations == 0

    def test_roll_basis_is_noop_when_cold(self):
        _, mutable = _load_base()
        mutable.roll_basis(1, 1)
        assert mutable.basis_snapshot() is None
        _assert_matches(mutable, _reference_model(BASE_COST, BASE_ROWS, BASE_BOUNDS))
