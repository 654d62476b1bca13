"""Unit tests for the persistent HiGHS model layer.

Loads and solves are checked against a from-scratch ``linprog`` solve of the
same :class:`~repro.lpsolver.RowFormLP`; the carried basis is checked across
snapshots, restores and the rolling dispatcher's one-step rotation.
"""

import dataclasses

import numpy as np
import pytest

from repro.lpsolver import ConstraintSense, SolverOptions, SolverStatusError, SolveStatus
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

    def test_same_shape_reload_resolves_warm(self):
        # Without presolve the cold solve takes simplex iterations; the
        # basis carried across the reload makes the re-solve take none.
        reference, mutable = _load_base()
        options = SolverOptions(presolve=False)
        first = mutable.solve(options)
        assert first.iterations > 0
        moved = dataclasses.replace(reference, cost=np.asarray(reference.cost) * 1.5)
        mutable.load(moved)
        assert mutable.basis_snapshot() is not None
        again = mutable.solve(options)
        assert again.iterations == 0
        assert again.objective == pytest.approx(1.5 * first.objective, rel=1e-12)

    def test_clear_basis_makes_the_next_solve_cold(self):
        reference, mutable = _load_base()
        options = SolverOptions(presolve=False)
        first = mutable.solve(options)
        mutable.clear_basis()
        mutable.load(reference)
        assert mutable.basis_snapshot() is None
        assert mutable.solve(options).iterations == first.iterations

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


def _with_entry(row_form, position, *, row=None, value=None):
    """A copy of ``row_form`` with one matrix entry's row or value replaced."""
    indices, data = row_form.a_indices.copy(), row_form.a_data.copy()
    if row is not None:
        indices[position] = row
    if value is not None:
        data[position] = value
    return dataclasses.replace(row_form, a_indices=indices, a_data=data)


class TestRejectedLoads:
    """A model HiGHS rejects raises at ``load`` and never reaches a solve."""

    @pytest.fixture(autouse=True)
    def _unvalidated(self, monkeypatch):
        # The structural validator would reject these row forms first; the
        # point here is what HiGHS's own status does.
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)

    def test_row_index_out_of_range_raises_and_the_handle_recovers(self):
        reference, mutable = _load_base()
        first = mutable.solve(SolverOptions())
        assert mutable.basis_snapshot() is not None
        bad = _with_entry(reference, 0, row=reference.num_rows)
        with pytest.raises(SolverStatusError, match="HiGHS rejected the model") as caught:
            mutable.load(bad)
        assert caught.value.status is SolveStatus.ERROR
        assert mutable.shape == (0, 0)
        assert mutable.basis_snapshot() is None
        assert mutable._highs.getNumCol() == 0 and mutable._highs.getNumRow() == 0
        # The same handle loads and solves a good LP, cold and correct.
        mutable.load(reference)
        again = mutable.solve(SolverOptions())
        assert again.objective == pytest.approx(first.objective, rel=1e-12)
        _assert_matches(mutable, reference)

    def test_short_arrays_never_reach_highs(self):
        reference, mutable = _load_base()
        short = dataclasses.replace(reference, cost=reference.cost[:-1])
        with pytest.raises(SolverStatusError, match="array lengths"):
            mutable.load(short)
        assert mutable.shape == (0, 0)
        mutable.load(reference)
        _assert_matches(mutable, reference)

    @pytest.mark.parametrize(
        "field", ["cost", "lower", "upper", "row_lower", "row_upper", "a_data"]
    )
    def test_nan_is_rejected(self, field):
        # HiGHS itself drops a NaN matrix value without an error and solves
        # the LP without that entry (objective 6.75 here instead of 17/3).
        reference, mutable = _load_base()
        values = np.array(getattr(reference, field), dtype=float)
        values[0] = np.nan
        with pytest.raises(SolverStatusError, match="NaN") as caught:
            mutable.load(dataclasses.replace(reference, **{field: values}))
        assert caught.value.status is SolveStatus.ERROR
        assert mutable.shape == (0, 0)
        assert mutable.basis_snapshot() is None
        assert mutable._highs.getNumCol() == 0 and mutable._highs.getNumRow() == 0

    def test_handle_solves_a_good_lp_after_a_nan_load(self):
        reference, mutable = _load_base()
        with pytest.raises(SolverStatusError, match="NaN"):
            mutable.load(_with_entry(reference, 0, value=np.nan))
        mutable.load(reference)
        assert mutable.solve(SolverOptions()).objective == pytest.approx(17.0 / 3.0, rel=1e-12)
        _assert_matches(mutable, reference)

    def test_warning_load_stands(self):
        # An entry below HiGHS's small_matrix_value is dropped with a warning.
        reference = _reference_model(BASE_COST, BASE_ROWS, BASE_BOUNDS)
        tiny = _with_entry(reference, 0, value=1e-12)
        mutable = highs_backend.MutableHighsModel()
        mutable.load(tiny)
        assert mutable.shape == (3, 3)
        assert len(mutable._highs.getLp().a_matrix_.value_) == len(tiny.a_data) - 1
        _assert_matches(mutable, tiny)


def _short_of_one_basic_column(snapshot):
    """``snapshot``'s basis with one basic column made nonbasic (not square)."""
    col_status = list(snapshot.basis.col_status)
    col_status[col_status.index(highs_backend._core.HighsBasisStatus.kBasic)] = (
        highs_backend._core.HighsBasisStatus.kLower
    )
    basis = highs_backend._core.HighsBasis()
    basis.col_status = col_status
    basis.row_status = list(snapshot.basis.row_status)
    basis.valid = True
    basis.alien = False
    return highs_backend.BasisSnapshot(basis, snapshot.shape)


class TestRejectedBasis:
    """HiGHS rejects a basis with too few basic variables (``alien=False``).

    The LP is reloaded before the solve, as in every warm solve, so HiGHS
    holds no basis of its own to fall back on.
    """

    def _carrying_rejected_basis(self):
        reference, mutable = _load_base()
        mutable.solve(SolverOptions())
        mutable.restore_basis(_short_of_one_basic_column(mutable.basis_snapshot()))
        return reference, mutable

    def test_raises_under_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        reference, mutable = self._carrying_rejected_basis()
        with pytest.raises(SolverStatusError, match="rejected the carried basis") as caught:
            highs_backend.solve_row_form(reference, SolverOptions(), model=mutable)
        assert caught.value.status is SolveStatus.ERROR

    def test_solves_cold_without_validation(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        reference, mutable = self._carrying_rejected_basis()
        result = highs_backend.solve_row_form(reference, SolverOptions(), model=mutable)
        assert result.is_optimal and result.iterations > 0
        assert result.objective == pytest.approx(17.0 / 3.0, rel=1e-12)
