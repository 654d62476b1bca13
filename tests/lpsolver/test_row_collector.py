"""Tests for the test-local scalar row collector the LP oracles are written on."""

import numpy as np
import pytest

from repro.lpsolver import ConstraintSense

from lp_oracles import csc_matrix
from row_collector import RowCollector


class TestRowCollector:
    def test_senses_become_row_bounds(self):
        rows = RowCollector()
        x = rows.add_variable()
        rows.add_row([(x, 1.0)], "<=", 1.0)
        rows.add_row([(x, 1.0)], ">=", 2.0)
        rows.add_row([(x, 1.0)], ConstraintSense.EQUAL, 3.0)
        row_form = rows.row_form()
        np.testing.assert_array_equal(row_form.row_lower, [-np.inf, 2.0, 3.0])
        np.testing.assert_array_equal(row_form.row_upper, [1.0, np.inf, 3.0])

    def test_unknown_sense_rejected(self):
        rows = RowCollector()
        x = rows.add_variable()
        with pytest.raises(ValueError):
            rows.add_row([(x, 1.0)], "=<", 1.0)

    def test_duplicate_terms_are_summed(self):
        """``x[t] - x[t-1]`` with one epoch names one column twice: it cancels."""
        rows = RowCollector()
        x, y = rows.add_variable(), rows.add_variable()
        rows.add_row([(x, 1.0), (y, 2.0), (x, -1.0), (y, 0.5)], "==", 0.0)
        np.testing.assert_array_equal(csc_matrix(rows.row_form()).toarray(), [[0.0, 2.5]])

    def test_objective_terms_and_constants_accumulate(self):
        rows = RowCollector()
        x, y = rows.add_variable(), rows.add_variable()
        rows.add_objective([(x, 1.0), (y, 2.0)], constant=3.0)
        rows.add_objective([(x, 4.0)], constant=5.0)
        row_form = rows.row_form()
        np.testing.assert_array_equal(row_form.cost, [5.0, 2.0])
        assert row_form.objective_constant == 8.0

    def test_maximise_negates_the_cost(self):
        rows = RowCollector(maximise=True)
        x = rows.add_variable()
        rows.add_objective([(x, 2.0)])
        row_form = rows.row_form()
        assert row_form.maximise
        np.testing.assert_array_equal(row_form.cost, [-2.0])

    def test_columns_carry_bounds_and_integrality(self):
        rows = RowCollector()
        rows.add_variable(lower=-1.0, upper=4.0)
        rows.add_variable(upper=1.0, integer=True)
        rows.add_variable()
        row_form = rows.row_form()
        np.testing.assert_array_equal(row_form.lower, [-1.0, 0.0, 0.0])
        np.testing.assert_array_equal(row_form.upper, [4.0, 1.0, np.inf])
        np.testing.assert_array_equal(row_form.integrality, [0, 1, 0])
        assert row_form.integrality.dtype == np.int64
        assert row_form.shape == (0, 3)
