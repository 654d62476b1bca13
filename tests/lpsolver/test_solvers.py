"""Tests for the SciPy/HiGHS solving backends."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.lpsolver import Model, MutableHighsModel, SolveStatus, SolverOptions, solve_model
from repro.lpsolver.highs_backend import SCIPY_REQUIREMENT, solve_row_form


class TestLinearPrograms:
    def test_simple_minimisation(self):
        model = Model("lp")
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(x + 2 * y >= 4)
        model.add_constraint(3 * x + y >= 6)
        model.set_objective(x + y)
        result = model.solve()
        assert result.is_optimal
        assert result.solver == "highs-direct"  # the one continuous solve path
        # Optimum at the intersection of the two constraints: x=1.6, y=1.2.
        assert result.value(x) == pytest.approx(1.6, abs=1e-6)
        assert result.value(y) == pytest.approx(1.2, abs=1e-6)
        assert result.objective == pytest.approx(2.8, abs=1e-6)

    def test_maximisation(self):
        model = Model("lp-max", sense="max")
        x = model.add_variable("x", upper=4.0)
        y = model.add_variable("y", upper=3.0)
        model.add_constraint(x + y <= 5)
        model.set_objective(2 * x + 3 * y)
        result = model.solve()
        assert result.is_optimal
        assert result.objective == pytest.approx(2 * 2 + 3 * 3, abs=1e-6)

    def test_objective_constant_included(self):
        model = Model("lp-const")
        x = model.add_variable("x", lower=1.0, upper=2.0)
        model.set_objective(x + 100.0)
        result = model.solve()
        assert result.objective == pytest.approx(101.0, abs=1e-6)

    def test_infeasible_detected(self):
        model = Model("lp-infeasible")
        x = model.add_variable("x", upper=1.0)
        model.add_constraint(x >= 2.0)
        model.set_objective(x)
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.is_optimal
        assert result.values == {}

    def test_unbounded_detected(self):
        model = Model("lp-unbounded", sense="max")
        x = model.add_variable("x")
        model.set_objective(x)
        result = model.solve()
        assert result.status in (SolveStatus.UNBOUNDED, SolveStatus.INFEASIBLE, SolveStatus.ERROR)
        assert not result.is_optimal

    def test_solution_satisfies_constraints(self):
        model = Model("lp-feasibility")
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(2 * x + y >= 10)
        model.add_constraint(x + 3 * y >= 15)
        model.set_objective(4 * x + 5 * y)
        result = model.solve()
        assert result.is_optimal
        assert model.check_solution(result.values) == []

    def test_equality_constraints(self):
        model = Model("lp-eq")
        x = model.add_variable("x")
        y = model.add_variable("y")
        model.add_constraint(x + y == 10)
        model.set_objective(x + 2 * y)
        result = model.solve()
        assert result.is_optimal
        assert result.value(x) == pytest.approx(10.0, abs=1e-6)
        assert result.value(y) == pytest.approx(0.0, abs=1e-6)


class TestMixedIntegerPrograms:
    def test_knapsack_milp(self):
        model = Model("knapsack", sense="max")
        values = [10.0, 13.0, 7.0, 4.0]
        weights = [5.0, 6.0, 4.0, 2.0]
        items = [model.add_binary(f"item{i}") for i in range(4)]
        model.add_constraint(
            sum((weights[i] * items[i] for i in range(4)), start=0 * items[0]) <= 10
        )
        model.set_objective(sum((values[i] * items[i] for i in range(4)), start=0 * items[0]))
        result = model.solve()
        assert result.is_optimal
        assert result.solver == "milp"
        chosen = [i for i in range(4) if result.value(items[i]) > 0.5]
        assert chosen == [1, 2] or result.objective == pytest.approx(20.0, abs=1e-6)

    def test_integrality_respected(self):
        model = Model("int")
        n = model.add_integer("n", lower=0, upper=10)
        model.add_constraint(2 * n >= 5)
        model.set_objective(n)
        result = model.solve()
        assert result.is_optimal
        assert result.value(n) == pytest.approx(3.0, abs=1e-6)

    def test_force_continuous_relaxation(self):
        model = Model("relaxed")
        n = model.add_integer("n", lower=0, upper=10)
        model.add_constraint(2 * n >= 5)
        model.set_objective(n)
        result = solve_model(model, SolverOptions(force_continuous=True))
        assert result.solver == "highs-direct"  # the one continuous solve path
        assert result.value(n) == pytest.approx(2.5, abs=1e-6)

    def test_milp_infeasible(self):
        model = Model("milp-infeasible")
        b = model.add_binary("b")
        model.add_constraint(b >= 2)
        model.set_objective(b)
        result = model.solve()
        assert result.status is SolveStatus.INFEASIBLE

    def test_time_limit_option_accepted(self):
        model = Model("milp-timelimit")
        b = model.add_binary("b")
        model.add_constraint(b >= 1)
        model.set_objective(b)
        result = model.solve(SolverOptions(time_limit=10.0))
        assert result.is_optimal


class TestResultHelpers:
    def test_value_of_expression(self):
        model = Model("expr-eval")
        x = model.add_variable("x", lower=2.0, upper=2.0)
        y = model.add_variable("y", lower=3.0, upper=3.0)
        model.set_objective(x + y)
        result = model.solve()
        assert result.value(x + 2 * y) == pytest.approx(8.0, abs=1e-6)

    def test_value_rejects_unknown_type(self):
        model = Model("bad-value")
        x = model.add_variable("x", upper=1.0)
        model.set_objective(x)
        result = model.solve()
        with pytest.raises(TypeError):
            result.value("x")  # type: ignore[arg-type]

    def test_values_by_name(self):
        model = Model("by-name")
        x = model.add_variable("x", lower=1.0, upper=1.0)
        y = model.add_variable("y", lower=4.0, upper=4.0)
        model.set_objective(x + y)
        result = model.solve()
        named = result.values_by_name({"x": x, "y": y})
        assert named == {"x": pytest.approx(1.0), "y": pytest.approx(4.0)}


def _cover_lp(rhs, extra_row=None):
    """min sum(x) s.t. x_i >= rhs_i, optionally one more row on x_0."""
    model = Model("cover")
    xs = [model.add_variable(f"x{i}") for i in range(len(rhs))]
    for x, bound in zip(xs, rhs):
        model.add_constraint(x >= bound)
    if extra_row is not None:
        model.add_constraint(xs[0] <= extra_row)
    model.set_objective(sum(xs[1:], xs[0]))
    return model.to_row_form()


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
