"""Tests for the one HiGHS solve path, LPs and MILPs alike."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.lpsolver import MutableHighsModel, SolveStatus, SolverOptions
from repro.lpsolver.highs_backend import SCIPY_REQUIREMENT, solve_row_form

from lp_oracles import assert_feasible, linprog_solve
from row_collector import RowCollector


def _solve(rows: RowCollector, options=None):
    return solve_row_form(rows.row_form(), options or SolverOptions())


def _two_var():
    rows = RowCollector()
    return rows, [rows.add_variable() for _ in range(2)]


class TestLinearPrograms:
    def test_simple_minimisation(self):
        rows, (x, y) = _two_var()
        rows.add_row([(x, 1.0), (y, 2.0)], ">=", 4.0)
        rows.add_row([(x, 3.0), (y, 1.0)], ">=", 6.0)
        rows.add_objective([(x, 1.0), (y, 1.0)])
        result = _solve(rows)
        assert result.is_optimal
        assert result.solver == "highs-direct"  # the one solve path
        # Optimum at the intersection of the two constraints: x=1.6, y=1.2.
        np.testing.assert_allclose(result.value_array(np.array([x, y])), [1.6, 1.2], atol=1e-6)
        assert result.objective == pytest.approx(2.8, abs=1e-6)

    def test_maximisation(self):
        rows = RowCollector(maximise=True)
        x = rows.add_variable(upper=4.0)
        y = rows.add_variable(upper=3.0)
        rows.add_row([(x, 1.0), (y, 1.0)], "<=", 5.0)
        rows.add_objective([(x, 2.0), (y, 3.0)])
        result = _solve(rows)
        assert result.is_optimal
        assert result.objective == pytest.approx(2 * 2 + 3 * 3, abs=1e-6)

    def test_objective_constant_included(self):
        rows = RowCollector()
        x = rows.add_variable(lower=1.0, upper=2.0)
        rows.add_objective([(x, 1.0)], constant=100.0)
        assert _solve(rows).objective == pytest.approx(101.0, abs=1e-6)

    def test_infeasible_detected(self):
        rows = RowCollector()
        x = rows.add_variable(upper=1.0)
        rows.add_row([(x, 1.0)], ">=", 2.0)
        rows.add_objective([(x, 1.0)])
        result = _solve(rows)
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.is_optimal
        assert result.x is None
        with pytest.raises(ValueError, match="infeasible"):
            result.value_array(np.array([x]))

    def test_unbounded_detected(self):
        rows = RowCollector(maximise=True)
        x = rows.add_variable()
        rows.add_objective([(x, 1.0)])
        result = _solve(rows)
        assert result.status in (SolveStatus.UNBOUNDED, SolveStatus.INFEASIBLE, SolveStatus.ERROR)
        assert not result.is_optimal

    def test_solution_satisfies_constraints(self):
        rows, (x, y) = _two_var()
        rows.add_row([(x, 2.0), (y, 1.0)], ">=", 10.0)
        rows.add_row([(x, 1.0), (y, 3.0)], ">=", 15.0)
        rows.add_objective([(x, 4.0), (y, 5.0)])
        row_form = rows.row_form()
        result = solve_row_form(row_form, SolverOptions())
        assert result.is_optimal
        assert_feasible(row_form, result.x)

    def test_equality_constraints(self):
        rows, (x, y) = _two_var()
        rows.add_row([(x, 1.0), (y, 1.0)], "==", 10.0)
        rows.add_objective([(x, 1.0), (y, 2.0)])
        result = _solve(rows)
        assert result.is_optimal
        np.testing.assert_allclose(result.value_array(np.array([x, y])), [10.0, 0.0], atol=1e-6)

    def test_cover_optimum_and_linprog_agree(self):
        """min sum(x) s.t. x_i >= i + 1, sum(x) <= 100; the linprog oracle agrees."""
        row_form = _cover_lp([1.0, 2.0, 3.0], budget=100.0)
        direct = solve_row_form(row_form, SolverOptions())
        linprog = linprog_solve(row_form)
        assert direct.solver == "highs-direct" and linprog.solver == "linprog"
        assert direct.objective == pytest.approx(6.0, abs=1e-9)
        np.testing.assert_allclose(direct.x, [1.0, 2.0, 3.0], atol=1e-9)
        assert direct.objective == pytest.approx(linprog.objective, abs=1e-9)


def _integer_floor():
    """min n s.t. 2 n >= 5 over the integers 0..10 (relaxation optimum 2.5)."""
    rows = RowCollector()
    n = rows.add_variable(upper=10.0, integer=True)
    rows.add_row([(n, 2.0)], ">=", 5.0)
    rows.add_objective([(n, 1.0)])
    return rows, n


def _declared(highs):
    """The variable type of each column of the model HiGHS holds."""
    return [kind.name for kind in highs._highs.getLp().integrality_]


class TestMixedIntegerPrograms:
    def test_knapsack_milp(self):
        rows = RowCollector(maximise=True)
        values = [10.0, 13.0, 7.0, 4.0]
        weights = [5.0, 6.0, 4.0, 2.0]
        items = [rows.add_variable(upper=1.0, integer=True) for _ in range(4)]
        rows.add_row(zip(items, weights), "<=", 10.0)
        rows.add_objective(zip(items, values))
        result = _solve(rows)
        assert result.is_optimal
        assert result.solver == "highs-direct"  # MILPs share the one solve path
        chosen = [i for i in range(4) if result.x[items[i]] > 0.5]
        assert chosen == [1, 2] or result.objective == pytest.approx(20.0, abs=1e-6)

    def test_integrality_respected(self):
        rows, n = _integer_floor()
        result = _solve(rows)
        assert result.is_optimal
        assert result.x[n] == pytest.approx(3.0, abs=1e-6)

    def test_milp_infeasible(self):
        rows = RowCollector()
        b = rows.add_variable(upper=1.0, integer=True)
        rows.add_row([(b, 1.0)], ">=", 2.0)
        rows.add_objective([(b, 1.0)])
        assert _solve(rows).status is SolveStatus.INFEASIBLE

    def test_time_limit_option_accepted(self):
        rows = RowCollector()
        b = rows.add_variable(upper=1.0, integer=True)
        rows.add_row([(b, 1.0)], ">=", 1.0)
        rows.add_objective([(b, 1.0)])
        assert _solve(rows, SolverOptions(time_limit=10.0)).is_optimal

    def test_integrality_declared_only_for_integer_columns(self):
        continuous, _ = _two_var()
        mixed, _ = _integer_floor()
        mixed.add_variable()
        highs = MutableHighsModel()
        highs.load(continuous.row_form())
        assert _declared(highs) == ["kContinuous", "kContinuous"]
        highs.load(mixed.row_form())
        assert _declared(highs) == ["kInteger", "kContinuous"]

    def test_mip_gap_is_reset_on_every_solve(self):
        """One handle solves MILPs and LPs; no option leaks between solves."""
        rows, n = _integer_floor()
        highs = MutableHighsModel()
        result = solve_row_form(rows.row_form(), SolverOptions(mip_gap=0.25), highs)
        assert result.x[n] == pytest.approx(3.0, abs=1e-6)
        assert highs._highs.getOptionValue("mip_rel_gap")[1] == 0.25
        relaxed = solve_row_form(_cover_lp([1.0, 2.0]), SolverOptions(), highs)
        assert highs._highs.getOptionValue("mip_rel_gap")[1] == SolverOptions().mip_gap
        assert relaxed.objective == pytest.approx(3.0)

    def test_integrality_does_not_leak_into_the_next_lp(self):
        """The LP relaxation of a MILP solved on the same handle stays fractional."""
        rows, n = _integer_floor()
        milp = rows.row_form()
        highs = MutableHighsModel()
        assert solve_row_form(milp, SolverOptions(), highs).x[n] == pytest.approx(3.0)
        milp.integrality = np.zeros_like(milp.integrality)
        relaxed = solve_row_form(milp, SolverOptions(), highs)
        assert relaxed.x[n] == pytest.approx(2.5)

    def test_time_limit_and_presolve_are_reset_on_every_solve(self):
        highs = MutableHighsModel()
        solve_row_form(_cover_lp([1.0]), SolverOptions(time_limit=10.0, presolve=False), highs)
        assert highs._highs.getOptionValue("time_limit")[1] == 10.0
        assert highs._highs.getOptionValue("presolve")[1] == "off"
        solve_row_form(_cover_lp([1.0]), SolverOptions(), highs)
        assert highs._highs.getOptionValue("time_limit")[1] == np.inf
        assert highs._highs.getOptionValue("presolve")[1] == "choose"


def _cover_lp(rhs, extra_row=None, budget=None):
    """min sum(x) s.t. x_i >= rhs_i, optionally x_0 <= extra_row and sum(x) <= budget."""
    rows = RowCollector()
    xs = [rows.add_variable() for _ in rhs]
    for x, bound in zip(xs, rhs):
        rows.add_row([(x, 1.0)], ">=", bound)
    if extra_row is not None:
        rows.add_row([(xs[0], 1.0)], "<=", extra_row)
    if budget is not None:
        rows.add_row([(x, 1.0) for x in xs], "<=", budget)
    rows.add_objective([(x, 1.0) for x in xs])
    return rows.row_form()


#: Presolve would solve these tiny LPs outright; without it a cold solve
#: takes simplex iterations and a warm start visibly takes none.
NO_PRESOLVE = SolverOptions(presolve=False)


class TestSolveRowFormWarmStarts:
    def test_one_shot_and_handle_solves_agree(self):
        row_form = _cover_lp([1.0, 2.0, 3.0])
        highs = MutableHighsModel()
        cold = solve_row_form(row_form, NO_PRESOLVE)
        warm = solve_row_form(row_form, NO_PRESOLVE, highs)
        assert cold.solver == warm.solver == "highs-direct"
        assert cold.objective == warm.objective == pytest.approx(6.0)
        np.testing.assert_array_equal(cold.x, warm.x)
        assert highs.basis_snapshot() is not None

    def test_same_shape_resolve_reuses_the_basis(self):
        assert solve_row_form(_cover_lp([1.5, 2.0, 3.0]), NO_PRESOLVE).iterations > 0
        highs = MutableHighsModel()
        solve_row_form(_cover_lp([1.0, 2.0, 3.0]), NO_PRESOLVE, highs)
        again = solve_row_form(_cover_lp([1.5, 2.0, 3.0]), NO_PRESOLVE, highs)
        assert again.objective == pytest.approx(6.5)
        assert again.iterations == 0

    def test_failed_solve_of_another_shape_keeps_the_basis(self):
        highs = MutableHighsModel()
        solve_row_form(_cover_lp([1.0, 2.0, 3.0]), NO_PRESOLVE, highs)
        stored = highs.basis_snapshot()
        infeasible = solve_row_form(
            _cover_lp([1.0, 2.0, 3.0], extra_row=0.5), NO_PRESOLVE, highs
        )
        assert infeasible.status is SolveStatus.INFEASIBLE
        assert highs.basis_snapshot() is stored
        again = solve_row_form(_cover_lp([1.0, 2.0, 3.0]), NO_PRESOLVE, highs)
        assert again.objective == pytest.approx(6.0)
        assert again.iterations == 0


class TestHighsRequired:
    def test_missing_bindings_raise_a_clear_import_error(self):
        code = textwrap.dedent(
            """
            import sys
            sys.modules["scipy.optimize._highspy._core"] = None  # hide the bindings
            try:
                import repro.lpsolver
            except ImportError as error:
                print(error)
            else:
                raise SystemExit("repro.lpsolver imported without the HiGHS bindings")
            """
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert "scipy.optimize._highspy._core" in result.stdout
        assert SCIPY_REQUIREMENT in result.stdout
