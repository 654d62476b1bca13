"""Differential tests pinning the vectorized provisioning fast path.

Three independent model-construction routes must produce the same LP:

* the **scalar** oracle (readable per-epoch object-API loops, the reference
  implementation of the Fig. 1 constraints, kept in ``tests/lp_oracles.py``),
* the production builder's Model route (blocked COO triplets), and
* the **templated row-form** route (cached CSC pattern, values only).

The tests compare canonicalized constraint matrices entry-for-entry and the
optimal objectives of representative provisioning problems (the oracle
solved through ``linprog``, production through HiGHS directly), plus the
behavioural guarantees the heuristic relies on: the siting-evaluation memo
returns the identical result object, and parallel annealing chains are
deterministic under a fixed seed.
"""

import numpy as np
import pytest

from repro.core import (
    EnergySources,
    HeuristicSolver,
    SearchSettings,
    SitingProblem,
    StorageMode,
)
from repro.core.problem import GreenEnforcement
from repro.core.provisioning import (
    ProvisioningCompiler,
    ProvisioningModelBuilder,
    solve_provisioning,
)

from lp_oracles import ScalarProvisioningBuilder


def _canonical_rows(model):
    """Dense [A | row_lower | row_upper] with rows sorted canonically."""
    row_form = model.to_row_form()
    dense = np.column_stack(
        [row_form.matrix.toarray(), row_form.row_lower, row_form.row_upper]
    )
    dense = np.nan_to_num(dense, posinf=1e300, neginf=-1e300)
    return dense[np.lexsort(dense.T[::-1])]


def _scenario(two_site_problem, storage, enforcement):
    return two_site_problem.with_updates(storage=storage, green_enforcement=enforcement)


SCENARIOS = [
    (StorageMode.NET_METERING, GreenEnforcement.ANNUAL),
    (StorageMode.NET_METERING, GreenEnforcement.PER_EPOCH),
    (StorageMode.BATTERIES, GreenEnforcement.ANNUAL),
    (StorageMode.NONE, GreenEnforcement.ANNUAL),
]


class TestBuilderEquivalence:
    @pytest.mark.parametrize("storage,enforcement", SCENARIOS)
    def test_identical_matrices(self, two_site_problem, storage, enforcement):
        problem = _scenario(two_site_problem, storage, enforcement)
        siting = {problem.profiles[0].name: "large", problem.profiles[1].name: "small"}
        scalar = ScalarProvisioningBuilder(problem, siting)
        vectorized = ProvisioningModelBuilder(problem, siting)
        assert scalar.model.num_variables == vectorized.model.num_variables
        assert scalar.model.num_constraints == vectorized.model.num_constraints
        np.testing.assert_allclose(
            _canonical_rows(scalar.model),
            _canonical_rows(vectorized.model),
            rtol=1e-12,
            atol=1e-12,
        )
        # Objectives and bounds agree exactly.
        scalar_compiled = scalar.model.to_matrices()
        vector_compiled = vectorized.model.to_matrices()
        np.testing.assert_allclose(
            scalar_compiled.cost, vector_compiled.cost, rtol=1e-12, atol=1e-12
        )
        np.testing.assert_array_equal(scalar_compiled.lower, vector_compiled.lower)
        np.testing.assert_array_equal(scalar_compiled.upper, vector_compiled.upper)
        assert scalar.model.objective.constant == pytest.approx(
            vectorized.model.objective.constant, rel=1e-12
        )

    @pytest.mark.parametrize("storage,enforcement", SCENARIOS)
    def test_identical_objectives(self, two_site_problem, storage, enforcement):
        problem = _scenario(two_site_problem, storage, enforcement)
        siting = {profile.name: "large" for profile in problem.profiles}
        scalar = ScalarProvisioningBuilder(problem, siting).solve()
        vectorized = solve_provisioning(problem, siting)
        assert scalar.feasible and vectorized.feasible
        assert vectorized.monthly_cost == pytest.approx(scalar.monthly_cost, rel=1e-6)
        # The extracted plans price to the same total through the cost model.
        assert vectorized.plan.total_monthly_cost == pytest.approx(
            scalar.plan.total_monthly_cost, rel=1e-6
        )

    def test_template_route_matches_model_route(self, two_site_problem):
        """The cached-pattern row form is entry-for-entry the Model's row form."""
        compiler = ProvisioningCompiler(two_site_problem)
        names = [profile.name for profile in two_site_problem.profiles]
        for siting in (
            {names[0]: "large", names[1]: "large"},
            # Same shape, different location order: exercises template reuse.
            {names[1]: "large", names[0]: "large"},
            {names[0]: "small"},
        ):
            fast = compiler.compile_row_form(siting, enforce_spread=True)
            assert fast is not None
            row_form, layouts = fast
            model, _ = compiler.compile(siting, enforce_spread=True)
            reference = model.to_row_form()
            assert row_form.shape == reference.shape
            lhs = np.column_stack(
                [row_form.matrix.toarray(), row_form.row_lower, row_form.row_upper]
            )
            rhs = np.column_stack(
                [reference.matrix.toarray(), reference.row_lower, reference.row_upper]
            )
            lhs = np.nan_to_num(lhs, posinf=1e300, neginf=-1e300)
            rhs = np.nan_to_num(rhs, posinf=1e300, neginf=-1e300)
            np.testing.assert_array_equal(
                lhs[np.lexsort(lhs.T[::-1])], rhs[np.lexsort(rhs.T[::-1])]
            )
            np.testing.assert_array_equal(row_form.cost, reference.cost)
            np.testing.assert_array_equal(row_form.lower, reference.lower)
            np.testing.assert_array_equal(row_form.upper, reference.upper)
            assert len(layouts) == len(siting)

    @pytest.mark.slow
    def test_identical_matrices_hourly_grid(self, two_site_problem, profile_builder, hourly_grid, small_catalog):
        """The equivalence holds on the fine 96-epoch grid too."""
        profiles = [
            profile_builder.build(small_catalog.get(profile.name), hourly_grid)
            for profile in two_site_problem.profiles
        ]
        problem = SitingProblem(
            profiles=profiles,
            params=two_site_problem.params,
            sources=two_site_problem.sources,
            storage=StorageMode.BATTERIES,
        )
        siting = {profiles[0].name: "large", profiles[1].name: "large"}
        scalar = ScalarProvisioningBuilder(problem, siting)
        vectorized = ProvisioningModelBuilder(problem, siting)
        np.testing.assert_allclose(
            _canonical_rows(scalar.model),
            _canonical_rows(vectorized.model),
            rtol=1e-12,
            atol=1e-12,
        )


class TestEvaluationCache:
    @pytest.fixture()
    def solver(self, two_site_problem, fast_settings):
        return HeuristicSolver(two_site_problem, fast_settings)

    def test_cache_returns_identical_result_object(self, solver, two_site_problem):
        siting = {profile.name: "large" for profile in two_site_problem.profiles}
        first = solver.evaluate(siting)
        second = solver.evaluate(dict(siting))
        assert second is first  # bit-identical: the memo hands back the same object
        assert solver.cache_hits == 1
        # Lazy plans materialise once and are shared through the cached result.
        assert second.plan is first.plan

    def test_cache_keyed_by_frozen_siting(self, solver, two_site_problem):
        names = [profile.name for profile in two_site_problem.profiles]
        forward = solver.evaluate({names[0]: "large", names[1]: "large"})
        reversed_order = solver.evaluate({names[1]: "large", names[0]: "large"})
        assert reversed_order is forward


class TestParallelDeterminism:
    def _solve(self, problem, parallel, workers, executor="thread"):
        settings = SearchSettings(
            keep_locations=6,
            max_iterations=10,
            patience=6,
            num_chains=3,
            seed=11,
            max_datacenters=4,
            parallel_chains=parallel,
            max_workers=workers,
            executor=executor,
        )
        return HeuristicSolver(problem, settings).solve()

    def test_parallel_chains_deterministic_under_fixed_seed(self, all_profiles, params):
        problem = SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        first = self._solve(problem, parallel=True, workers=4)
        second = self._solve(problem, parallel=True, workers=4)
        fewer_workers = self._solve(problem, parallel=True, workers=2)
        assert first.feasible
        assert first.monthly_cost == second.monthly_cost == fewer_workers.monthly_cost
        assert first.history == second.history == fewer_workers.history
        names = sorted(dc.name for dc in first.plan.datacenters)
        assert names == sorted(dc.name for dc in second.plan.datacenters)
        assert names == sorted(dc.name for dc in fewer_workers.plan.datacenters)

    def test_process_executor_matches_thread_and_serial(self, all_profiles, params):
        """The executor kind is pure mechanism: identical bits on every path."""
        problem = SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        thread = self._solve(problem, parallel=True, workers=4, executor="thread")
        serial = self._solve(problem, parallel=True, workers=1, executor="serial")
        process = self._solve(problem, parallel=True, workers=4, executor="process")
        assert process.monthly_cost == thread.monthly_cost == serial.monthly_cost
        assert process.history == thread.history == serial.history
        names = sorted(dc.name for dc in process.plan.datacenters)
        assert names == sorted(dc.name for dc in thread.plan.datacenters)
        assert names == sorted(dc.name for dc in serial.plan.datacenters)

    def test_parallel_not_worse_than_initial(self, all_profiles, params):
        problem = SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        solution = self._solve(problem, parallel=True, workers=4)
        solver = HeuristicSolver(problem, SearchSettings(keep_locations=6, seed=11))
        initial = solver.evaluate(solver._initial_siting(solver.filter_locations()))
        assert solution.monthly_cost <= initial.monthly_cost + 1e-6
