"""The ensemble row form, its read-back, and warm solves on one HiGHS handle.

Every robust LP (the stochastic SAA, the joint N-1 contingency LP, the
fixed-sizing evaluations) is assembled by ``_build_ensemble_row_form`` and
read back by ``_extract_ensemble_solution``.  The layout tests pin where
each draw's columns and rows land; the warm-handle tests check that
solving a sequence of cases on one ``MutableHighsModel`` gives what cold
solves give, across case changes, shape changes and a failed solve.
"""

import numpy as np
import pytest

from repro.core.provisioning import ProvisioningCompiler, _SiteLayout
from repro.lpsolver import MutableHighsModel, SolverStatusError
from repro.lpsolver.validate import row_form_violations
from repro.robust.contingency import _annual_budget_kwh
from repro.robust.ensemble import EnsembleConfig, perturbed_problem
from repro.robust.stochastic import (
    _build_ensemble_row_form,
    _extract_ensemble_solution,
    solve_ensemble_lp,
)

from lp_oracles import csc_matrix


@pytest.fixture(scope="module")
def siting(two_site_problem):
    return {profile.name: "large" for profile in two_site_problem.profiles}


@pytest.fixture(scope="module")
def compiler(two_site_problem):
    return ProvisioningCompiler(two_site_problem)


@pytest.fixture(scope="module")
def draws(two_site_problem):
    config = EnsembleConfig(draws=2, seed=11)
    return [
        ProvisioningCompiler(perturbed_problem(two_site_problem, config, draw))
        for draw in range(config.draws)
    ]


@pytest.fixture(scope="module")
def sizing(compiler, siting, solver_options):
    free = solve_ensemble_lp([compiler], siting, options=solver_options)
    return {
        name: tuple(
            free.sizing[name][key]
            for key in ("capacity_kw", "solar_kw", "wind_kw", "battery_kwh")
        )
        for name in siting
    }


def _epoch_block(layout, d, s):
    start = layout.epoch_base + (d * layout.num_sites + s) * layout.epoch_width
    return slice(start, start + layout.epoch_width)


def _unserved_block(layout, d):
    start = layout.unserved_base + d * layout.num_epochs
    return slice(start, start + layout.num_epochs)


def _sizing_block(s):
    return slice(_SiteLayout.NUM_SIZING * s, _SiteLayout.NUM_SIZING * (s + 1))


class TestLayout:
    @pytest.mark.parametrize("num_draws", [1, 2, 3])
    def test_column_and_row_counts(self, compiler, siting, num_draws):
        row_form, layout = _build_ensemble_row_form([compiler] * num_draws, siting)
        S, T, E = len(siting), layout.num_epochs, layout.epoch_width
        skeleton = compiler.site_skeleton(*next(iter(siting.items())))
        assert E == len(skeleton.lower) - _SiteLayout.NUM_SIZING
        assert layout.num_draws == num_draws
        assert layout.num_cols == _SiteLayout.NUM_SIZING * S + num_draws * (S * E + T)
        assert row_form.shape == (layout.num_rows, layout.num_cols)
        # Draws replicate the recourse rows; sizing adds none of its own.
        single, _ = _build_ensemble_row_form([compiler], siting)
        assert layout.num_rows == num_draws * single.shape[0]

    def test_one_budget_row_per_budgeted_draw(self, compiler, siting):
        plain, _ = _build_ensemble_row_form([compiler] * 3, siting)
        row_form, layout = _build_ensemble_row_form(
            [compiler] * 3, siting, unserved_energy_budget=[None, 5.0, 7.0]
        )
        assert row_form.shape[0] == plain.shape[0] + 2
        assert np.array_equal(row_form.row_upper[-2:], [5.0, 7.0])
        assert np.all(np.isneginf(row_form.row_lower[-2:]))
        rows = csc_matrix(row_form).tocsr()
        for offset, d in ((2, 1), (1, 2)):
            row = rows.getrow(row_form.shape[0] - offset)
            # The row sums the draw's unserved columns by epoch hours, nothing else.
            block = _unserved_block(layout, d)
            assert np.array_equal(row.indices, np.arange(block.start, block.stop))
            assert np.array_equal(row.data, layout.weights_hours)

    @pytest.mark.parametrize("dark", [0, 1])
    def test_a_blocked_site_zeroes_only_its_epoch_block(self, compiler, siting, dark):
        free, layout = _build_ensemble_row_form([compiler] * 2, siting)
        blocked, _ = _build_ensemble_row_form(
            [compiler] * 2, siting, blocked_sites=[None, dark]
        )
        zeroed = _epoch_block(layout, 1, dark)
        assert np.all(blocked.upper[zeroed] == 0.0)
        assert np.all(blocked.lower[zeroed] == 0.0)
        untouched = np.ones(layout.num_cols, dtype=bool)
        untouched[zeroed] = False
        assert np.array_equal(blocked.upper[untouched], free.upper[untouched])
        assert np.array_equal(blocked.lower, free.lower)
        assert np.array_equal(blocked.cost, free.cost)

    def test_sizing_bounds_clamp_only_the_sizing_columns(self, compiler, siting, sizing):
        free, layout = _build_ensemble_row_form([compiler], siting)
        fixed, _ = _build_ensemble_row_form([compiler], siting, sizing_bounds=sizing)
        for s, name in enumerate(siting):
            assert np.array_equal(fixed.lower[_sizing_block(s)], sizing[name])
            assert np.array_equal(fixed.upper[_sizing_block(s)], sizing[name])
        rest = slice(layout.epoch_base, layout.num_cols)
        assert np.array_equal(fixed.lower[rest], free.lower[rest])
        assert np.array_equal(fixed.upper[rest], free.upper[rest])

    @pytest.mark.parametrize("normalize", [True, False])
    def test_draw_weights_scale_recourse_but_not_sizing(self, compiler, siting, normalize):
        unit, layout = _build_ensemble_row_form(
            [compiler] * 2, siting, weights=[1.0, 1.0], normalize_weights=False
        )
        weighted, _ = _build_ensemble_row_form(
            [compiler] * 2, siting, weights=[1.0, 3.0], normalize_weights=normalize
        )
        expected = [0.25, 0.75] if normalize else [1.0, 3.0]
        for s in range(len(siting)):
            block = _sizing_block(s)
            assert np.array_equal(weighted.cost[block], unit.cost[block])
            for d, w in enumerate(expected):
                block = _epoch_block(layout, d, s)
                assert np.allclose(weighted.cost[block], w * unit.cost[block], rtol=1e-15)
        for d, w in enumerate(expected):
            block = _unserved_block(layout, d)
            assert np.allclose(weighted.cost[block], w * unit.cost[block], rtol=1e-15)
        assert weighted.objective_constant == unit.objective_constant

    @pytest.mark.parametrize(
        "knobs",
        [
            lambda names: {"blocked_sites": [None]},
            lambda names: {"unserved_energy_budget": [1.0, 2.0, 3.0]},
            lambda names: {"blocked_sites": [None, 2]},
            lambda names: {"weights": [1.0, -1.0]},
            lambda names: {"weights": [1.0]},
            lambda names: {"sizing_bounds": {name: (1.0, 2.0, 3.0) for name in names}},
        ],
        ids=[
            "blocked-length",
            "budget-length",
            "blocked-out-of-range",
            "negative-weight",
            "weight-count",
            "sizing-bounds-length",
        ],
    )
    def test_malformed_knobs_are_rejected(self, compiler, siting, knobs):
        with pytest.raises(ValueError):
            _build_ensemble_row_form([compiler] * 2, siting, **knobs(list(siting)))

    @pytest.mark.parametrize(
        "case", ["nominal", "dark-site", "budgeted", "fixed-sizing", "two-draws"]
    )
    def test_every_form_is_structurally_sound(
        self, compiler, draws, siting, sizing, case
    ):
        budget = _annual_budget_kwh(compiler, 0.05)
        compilers, kwargs = {
            "nominal": ([compiler], {}),
            "dark-site": ([compiler], {"blocked_sites": [1]}),
            "budgeted": (
                [compiler] * 2,
                {"blocked_sites": [None, 0], "unserved_energy_budget": [None, budget]},
            ),
            "fixed-sizing": ([compiler], {"sizing_bounds": sizing}),
            "two-draws": (draws, {}),
        }[case]
        row_form, _ = _build_ensemble_row_form(compilers, siting, **kwargs)
        assert row_form_violations(row_form) == []


class TestExtract:
    def test_the_zero_vector_costs_only_the_fixed_cost(self, draws, siting):
        _, layout = _build_ensemble_row_form(draws, siting)
        solution = _extract_ensemble_solution(
            np.zeros(layout.num_cols), layout, objective=0.0
        )
        assert np.all(solution.per_draw_costs == layout.fixed_cost)
        assert np.all(solution.per_draw_unserved_cost == 0.0)
        assert np.all(solution.per_draw_unserved_energy == 0.0)
        assert all(v == 0.0 for block in solution.sizing.values() for v in block.values())
        assert (solution.num_cols, solution.num_rows) == (layout.num_cols, layout.num_rows)

    def test_weighted_draw_costs_reproduce_the_objective(
        self, draws, siting, solver_options
    ):
        joint = solve_ensemble_lp(
            draws, siting, options=solver_options, weights=[1.0, 3.0]
        )
        assert joint.draws == 2
        expected = 0.25 * joint.per_draw_costs[0] + 0.75 * joint.per_draw_costs[1]
        assert joint.objective == pytest.approx(expected, rel=1e-9)


class TestWarmHandle:
    @pytest.mark.parametrize("case", [None, 0, 1], ids=["nominal", "site-0-dark", "site-1-dark"])
    def test_a_warm_case_matches_its_cold_solve(
        self, compiler, siting, sizing, solver_options, case
    ):
        handle = MutableHighsModel()
        kwargs = dict(options=solver_options, sizing_bounds=sizing)
        # Prime the handle with a different case of the same shape.
        other = 0 if case is None else None
        solve_ensemble_lp([compiler], siting, blocked_sites=[other], highs=handle, **kwargs)
        warm = solve_ensemble_lp(
            [compiler], siting, blocked_sites=[case], highs=handle, **kwargs
        )
        cold = solve_ensemble_lp([compiler], siting, blocked_sites=[case], **kwargs)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        assert np.allclose(warm.per_draw_costs, cold.per_draw_costs, rtol=1e-9)
        assert np.allclose(
            warm.per_draw_unserved_energy,
            cold.per_draw_unserved_energy,
            rtol=1e-7,
            atol=1e-3,
        )

    def test_the_handle_survives_a_change_of_shape(
        self, draws, siting, solver_options
    ):
        handle = MutableHighsModel()
        for compilers in ([draws[0]], draws, [draws[1]]):
            warm = solve_ensemble_lp(
                compilers, siting, options=solver_options, highs=handle
            )
            cold = solve_ensemble_lp(compilers, siting, options=solver_options)
            assert warm.num_cols == cold.num_cols
            assert warm.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_resolving_the_same_lp_starts_at_its_optimum(
        self, compiler, siting, solver_options
    ):
        handle = MutableHighsModel()
        first = solve_ensemble_lp([compiler], siting, options=solver_options, highs=handle)
        again = solve_ensemble_lp([compiler], siting, options=solver_options, highs=handle)
        assert again.objective == pytest.approx(first.objective, rel=1e-12)
        assert first.iterations > 0
        assert again.iterations == 0

    def test_a_failed_solve_raises_and_the_handle_recovers(
        self, compiler, siting, solver_options
    ):
        handle = MutableHighsModel()
        lone = {next(iter(siting)): "large"}
        kwargs = dict(options=solver_options, highs=handle)
        before = solve_ensemble_lp([compiler], siting, **kwargs)
        # The only site dark with a budget far below the demand: infeasible.
        with pytest.raises(SolverStatusError):
            solve_ensemble_lp(
                [compiler],
                lone,
                blocked_sites=[0],
                unserved_energy_budget=[1.0],
                **kwargs,
            )
        after = solve_ensemble_lp([compiler], siting, **kwargs)
        assert after.objective == pytest.approx(before.objective, rel=1e-9)
