"""Differential tests of the one COO -> CSC helper against ``scipy.sparse``.

:func:`repro.lpsolver.model.coo_to_csc` replaces ``scipy.sparse.csc_matrix``
in every row-form builder, so its ``indptr``/``indices``/``data`` must be
byte-identical to SciPy's: the same dtypes, rows sorted within each column
and a repeated coordinate summed into one entry.  SciPy sorts a column with
``std::sort``, which keeps repeats in input order for columns of at most 16
entries; the helper always sums in input order.  So the SciPy oracle covers
any triplets with short columns and long columns whose coordinates repeat at
most twice (two values add the same in either order), and a sequential sum
is the oracle for three or more repeats in a long column.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from repro.lpsolver.model import coo_to_csc, csc_order

values = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12)


@st.composite
def triplets(draw, max_dim=8, max_entries=16, max_repeats=None):
    """``(rows, cols, vals, shape)``, often with repeated coordinates and empty rows/columns."""
    shape = (draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim)))
    if 0 in shape:
        return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), shape
    cell = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    cells = draw(st.lists(cell, max_size=max_entries))
    # Repeat some coordinates, at positions spread through the list.
    for _ in range(draw(st.integers(0, len(cells)))):
        if len(cells) < max_entries:
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(cells)))
    if max_repeats is not None:
        seen = {}
        kept = []
        for coordinate in cells:
            seen[coordinate] = seen.get(coordinate, 0) + 1
            if seen[coordinate] <= max_repeats:
                kept.append(coordinate)
        cells = kept
    vals = draw(st.lists(values, min_size=len(cells), max_size=len(cells)))
    rows = np.array([row for row, _ in cells], dtype=np.int64)
    cols = np.array([col for _, col in cells], dtype=np.int64)
    return rows, cols, np.array(vals, dtype=np.float64), shape


def assert_matches_scipy(rows, cols, vals, shape):
    expected = sparse.csc_matrix((vals, (rows, cols)), shape=shape)
    got = coo_to_csc(rows, cols, vals, shape)
    for name, ours, theirs in zip(
        ("indptr", "indices", "data"), got, (expected.indptr, expected.indices, expected.data)
    ):
        assert ours.dtype == theirs.dtype, name
        assert ours.shape == theirs.shape, name
        assert ours.tobytes() == theirs.tobytes(), name


class TestAgainstScipy:
    @given(triplets())
    @settings(max_examples=300, deadline=None)
    @example((np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), (0, 0)))
    @example((np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0), (3, 4)))
    @example((np.array([2, 0, 2, 2]), np.array([3, 3, 3, 3]), np.array([0.1, 1.0, 0.2, 0.3]), (4, 5)))
    def test_short_columns_any_repeats(self, case):
        assert_matches_scipy(*case)

    @given(triplets(max_dim=4, max_entries=60, max_repeats=2))
    @settings(max_examples=200, deadline=None)
    def test_long_columns_repeated_at_most_twice(self, case):
        assert_matches_scipy(*case)


class TestRepeatsSumInInputOrder:
    @given(triplets(max_dim=3, max_entries=60))
    @settings(max_examples=200, deadline=None)
    def test_a_repeated_coordinate_sums_left_to_right(self, case):
        rows, cols, vals, shape = case
        sums = {}
        for row, col, value in zip(rows.tolist(), cols.tolist(), vals.tolist()):
            key = (col, row)
            sums[key] = sums[key] + value if key in sums else value
        indptr, indices, data = coo_to_csc(rows, cols, vals, shape)
        keys = sorted(sums)
        np.testing.assert_array_equal(indices, [row for _, row in keys])
        np.testing.assert_array_equal(np.diff(indptr), np.bincount(
            np.array([col for col, _ in keys], dtype=np.int64), minlength=shape[1]
        ))
        assert data.tobytes() == np.array([sums[key] for key in keys], dtype=np.float64).tobytes()


class TestCscOrder:
    @given(triplets(max_entries=40))
    @settings(max_examples=200, deadline=None)
    def test_order_is_the_stable_column_major_sort(self, case):
        rows, cols, _, shape = case
        indptr, order = csc_order(rows, cols, shape)
        expected = sorted(range(len(rows)), key=lambda entry: (cols[entry], rows[entry]))
        assert order.tolist() == expected
        assert indptr.dtype == np.int32
        np.testing.assert_array_equal(
            np.diff(indptr), np.bincount(cols, minlength=shape[1])
        )
