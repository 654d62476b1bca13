"""Corrupted-model fixtures for the ``REPRO_VALIDATE=1`` structural validator.

Each validator check gets a deliberately broken :class:`RowFormLP` (or a
tampered :class:`MutableHighsModel`) that must trigger exactly that
violation, plus the matching sound model that must pass clean — the
validator is only trustworthy if it is silent on every model the assembly
paths legitimately produce.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lpsolver.highs_backend import MutableHighsModel
from repro.lpsolver.model import RowFormLP
from repro.lpsolver.highs_backend import SolverOptions
from repro.lpsolver.validate import (
    LPValidationError,
    row_form_violations,
    validate_mutable_model,
    validate_row_form,
    validation_enabled,
)

INF = float("inf")


def make_lp(**overrides) -> RowFormLP:
    """A sound 2x2 LP: minimise x+y subject to x>=1, y>=1, 0<=x,y<=10."""
    fields = dict(
        cost=np.array([1.0, 1.0]),
        a_indptr=np.array([0, 1, 2]),
        a_indices=np.array([0, 1]),
        a_data=np.array([1.0, 1.0]),
        shape=(2, 2),
        row_lower=np.array([1.0, 1.0]),
        row_upper=np.array([INF, INF]),
        lower=np.array([0.0, 0.0]),
        upper=np.array([10.0, 10.0]),
        integrality=np.zeros(2, dtype=np.int64),
        maximise=False,
        objective_constant=0.0,
    )
    fields.update(overrides)
    return RowFormLP(**fields)


def sole_violation(lp: RowFormLP, **kwargs) -> str:
    violations = row_form_violations(lp, **kwargs)
    assert len(violations) == 1, violations
    return violations[0]


class TestRowFormChecks:
    def test_sound_model_is_clean(self):
        assert row_form_violations(make_lp()) == []

    def test_nan_cost(self):
        message = sole_violation(make_lp(cost=np.array([1.0, np.nan])))
        assert "cost contains NaN" in message
        assert "index 1" in message

    def test_inf_cost(self):
        assert "cost contains Inf" in sole_violation(make_lp(cost=np.array([INF, 1.0])))

    def test_nan_in_matrix_data(self):
        message = sole_violation(make_lp(a_data=np.array([np.nan, 1.0])))
        assert "a_data contains NaN" in message

    def test_inf_bound_is_legal_but_nan_bound_is_not(self):
        # +/-inf bounds are the normal way to express one-sided constraints.
        assert row_form_violations(make_lp(lower=np.array([-INF, 0.0]))) == []
        message = sole_violation(make_lp(upper=np.array([np.nan, 10.0])))
        assert "upper contains NaN" in message

    def test_crossed_column_bounds(self):
        message = sole_violation(make_lp(lower=np.array([0.0, 5.0]), upper=np.array([10.0, 2.0])))
        assert "crossed column bounds" in message
        assert "column 1" in message

    def test_crossed_row_bounds(self):
        message = sole_violation(
            make_lp(row_lower=np.array([3.0, 1.0]), row_upper=np.array([2.0, INF]))
        )
        assert "crossed row bounds" in message
        assert "row 0" in message

    def test_wrong_cost_length(self):
        message = sole_violation(make_lp(cost=np.array([1.0])))
        assert "cost has length 1, expected 2" in message

    def test_indices_data_length_mismatch(self):
        message = sole_violation(make_lp(a_data=np.array([1.0, 1.0, 1.0])))
        assert "lengths differ" in message

    def test_indptr_must_start_at_zero(self):
        message = sole_violation(make_lp(a_indptr=np.array([1, 1, 2])))
        assert "must start at 0" in message

    def test_indptr_must_end_at_nnz(self):
        message = sole_violation(make_lp(a_indptr=np.array([0, 1, 3])))
        assert "must end at nnz=2" in message

    def test_indptr_must_be_monotone(self):
        violations = row_form_violations(make_lp(a_indptr=np.array([0, 2, 1])))
        assert any("not monotonically non-decreasing" in v for v in violations)

    def test_row_index_out_of_range(self):
        message = sole_violation(make_lp(a_indices=np.array([0, 7])))
        assert "a_indices outside [0, 2)" in message

    def test_negative_row_index(self):
        message = sole_violation(make_lp(a_indices=np.array([-1, 1])))
        assert "a_indices outside [0, 2)" in message

    def test_duplicate_coo_coordinate(self):
        # Column 0 carries two entries for row 0: HiGHS would sum them.
        lp = make_lp(
            a_indptr=np.array([0, 2, 3]),
            a_indices=np.array([0, 0, 1]),
            a_data=np.array([1.0, 2.0, 1.0]),
        )
        message = sole_violation(lp)
        assert "duplicate COO coordinate (row 0, col 0)" in message

    def test_multiple_violations_all_reported(self):
        lp = make_lp(cost=np.array([np.nan, 1.0]), lower=np.array([0.0, 50.0]))
        violations = row_form_violations(lp)
        assert len(violations) == 2
        with pytest.raises(LPValidationError) as excinfo:
            validate_row_form(lp, "corrupted fixture")
        assert excinfo.value.label == "corrupted fixture"
        assert excinfo.value.violations == violations
        assert "corrupted fixture" in str(excinfo.value)


class TestEmptyRowsAndOrphans:
    def make_staged(self) -> RowFormLP:
        """Row 2 has no entries and bounds excluding 0 (a staged coupling row)."""
        return make_lp(
            shape=(3, 2),
            row_lower=np.array([1.0, 1.0, 1.0]),
            row_upper=np.array([INF, INF, INF]),
        )

    def test_infeasible_empty_row_flagged(self):
        message = sole_violation(self.make_staged())
        assert "empty row 2 with bounds excluding 0" in message

    def test_dead_weight_empty_row_flagged(self):
        lp = make_lp(
            shape=(3, 2),
            row_lower=np.array([1.0, 1.0, -INF]),
            row_upper=np.array([INF, INF, INF]),
        )
        message = sole_violation(lp)
        assert "1 empty row(s) (first: 2)" in message

    def test_staged_assembly_escape_hatch(self):
        # Load-time validation skips row coverage (check_empty_rows=False):
        # rows may be loaded before the columns that fill them.
        assert row_form_violations(self.make_staged(), check_empty_rows=False) == []

    def test_pinned_orphan_column_is_legal(self):
        # Uniform per-site blocks fix unused variable families at lb=ub=0
        # with nonzero cost and no matrix entries — by design, not a bug.
        lp = make_lp(
            cost=np.array([1.0, 1.0, 5.0]),
            shape=(2, 3),
            a_indptr=np.array([0, 1, 2, 2]),
            lower=np.array([0.0, 0.0, 0.0]),
            upper=np.array([10.0, 10.0, 0.0]),
            integrality=np.zeros(3, dtype=np.int64),
        )
        assert row_form_violations(lp) == []

    def test_orphan_column_unbounded_below_flagged(self):
        # Positive cost pushing toward lower = -inf with no constraining row:
        # the minimisation is unbounded by construction.
        lp = make_lp(
            cost=np.array([1.0, 1.0, 5.0]),
            shape=(2, 3),
            a_indptr=np.array([0, 1, 2, 2]),
            lower=np.array([0.0, 0.0, -INF]),
            upper=np.array([10.0, 10.0, 0.0]),
            integrality=np.zeros(3, dtype=np.int64),
        )
        message = sole_violation(lp)
        assert "orphan column 2" in message
        assert "unbounded by construction" in message

    def test_orphan_column_unbounded_above_flagged(self):
        lp = make_lp(
            cost=np.array([1.0, 1.0, -5.0]),
            shape=(2, 3),
            a_indptr=np.array([0, 1, 2, 2]),
            lower=np.array([0.0, 0.0, 0.0]),
            upper=np.array([10.0, 10.0, INF]),
            integrality=np.zeros(3, dtype=np.int64),
        )
        assert "orphan column 2" in sole_violation(lp)


class TestValidationKnob:
    @pytest.mark.parametrize("value", ["1", "true", "YES", " on "])
    def test_truthy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert validation_enabled()

    @pytest.mark.parametrize("value", ["", "0", "off", "nope"])
    def test_falsy_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_VALIDATE", value)
        assert not validation_enabled()

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        assert not validation_enabled()

    def test_error_is_an_assertion(self):
        # The retry ladders catch SolverStatusError; an assembly bug must
        # never be retried into silence.
        assert issubclass(LPValidationError, AssertionError)


class TestMutableModelValidation:
    def load_model(self) -> MutableHighsModel:
        model = MutableHighsModel()
        model.load(make_lp())
        return model

    def test_sound_model_passes_and_solves(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        model = self.load_model()
        validate_mutable_model(model)
        result = model.solve(SolverOptions(), check=True)
        assert result.objective == pytest.approx(2.0)

    def test_load_rejects_corrupted_model_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        model = MutableHighsModel()
        with pytest.raises(LPValidationError, match="MutableHighsModel.load"):
            model.load(make_lp(cost=np.array([np.nan, 1.0])))

    def test_load_skips_validation_when_disabled(self, monkeypatch):
        monkeypatch.delenv("REPRO_VALIDATE", raising=False)
        model = MutableHighsModel()
        # Crossed bounds would be caught with the knob on; off = zero checks.
        model.load(make_lp(lower=np.array([5.0, 0.0]), upper=np.array([2.0, 10.0])))

    def test_dimension_drift_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        model = self.load_model()
        model.num_cols += 1  # simulate a tracker that drifted from HiGHS
        with pytest.raises(LPValidationError) as excinfo:
            model.solve(SolverOptions())
        assert any("tracked num_cols=3" in v for v in excinfo.value.violations)

    def test_live_crossed_bounds_detected(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE", "1")
        model = self.load_model()
        # Corrupt the live HiGHS model directly (bypassing load validation).
        model._highs.changeColBounds(0, 5.0, 2.0)
        with pytest.raises(LPValidationError) as excinfo:
            model.solve(SolverOptions())
        assert any("live crossed column bounds" in v for v in excinfo.value.violations)
