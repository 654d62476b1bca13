"""Property-based tests for the row-form LP solve path."""

from hypothesis import given, settings, strategies as st

from repro.lpsolver import SolveStatus, SolverOptions
from repro.lpsolver.highs_backend import solve_row_form

from lp_oracles import assert_feasible
from row_collector import RowCollector


class TestSolverProperties:
    @given(
        demand=st.floats(min_value=1.0, max_value=100.0),
        cost_a=st.floats(min_value=0.1, max_value=10.0),
        cost_b=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_two_supplier_lp_picks_cheaper_source(self, demand, cost_a, cost_b):
        """min cost_a*a + cost_b*b subject to a + b >= demand uses the cheaper one."""
        rows = RowCollector()
        a, b = rows.add_variable(), rows.add_variable()
        rows.add_row([(a, 1.0), (b, 1.0)], ">=", demand)
        rows.add_objective([(a, cost_a), (b, cost_b)])
        row_form = rows.row_form()
        result = solve_row_form(row_form, SolverOptions())
        assert result.is_optimal
        expected = min(cost_a, cost_b) * demand
        assert abs(result.objective - expected) <= 1e-6 * max(1.0, expected)
        assert_feasible(row_form, result.x)

    @given(
        bound=st.floats(min_value=0.5, max_value=20.0),
        floor=st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_feasibility_matches_bound_arithmetic(self, bound, floor):
        """x <= bound with x >= floor is feasible iff floor <= bound."""
        rows = RowCollector()
        x = rows.add_variable(upper=bound)
        rows.add_row([(x, 1.0)], ">=", floor)
        rows.add_objective([(x, 1.0)])
        result = solve_row_form(rows.row_form(), SolverOptions())
        if floor <= bound + 1e-9:
            assert result.is_optimal
            assert result.x[x] >= floor - 1e-6
        else:
            assert result.status is SolveStatus.INFEASIBLE

    @given(values=st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=2, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_optimal_solutions_are_feasible(self, values):
        """Whatever the data, an OPTIMAL result must satisfy every constraint."""
        rows = RowCollector()
        xs = [rows.add_variable(upper=100.0) for _ in values]
        for x, value in zip(xs, values):
            rows.add_row([(x, 1.0)], ">=", value)
        rows.add_row([(x, 1.0) for x in xs], "<=", 1000.0)
        rows.add_objective([(x, 1.0) for x in xs])
        row_form = rows.row_form()
        result = solve_row_form(row_form, SolverOptions())
        assert result.is_optimal
        assert_feasible(row_form, result.x)
        assert result.objective <= 1000.0 + 1e-6
