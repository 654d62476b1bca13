"""Differential tests pinning the vectorized provisioning fast path.

Two independent model-construction routes must produce the same LP:

* the **scalar** oracle (readable per-epoch row-by-row loops, the reference
  implementation of the Fig. 1 constraints, kept in ``tests/lp_oracles.py``),
  and
* the production **templated row-form** route (cached per-site COO
  skeletons stitched through a cached CSC pattern, values only).

The tests compare canonicalized constraint matrices entry-for-entry and the
optimal objectives of representative provisioning problems (the oracle
solved through ``linprog``, production through HiGHS directly), plus the
behavioural guarantee the heuristic relies on: the siting-evaluation memo
returns the identical result object.
"""

import pytest

from repro.core import (
    HeuristicSolver,
    SitingProblem,
    StorageMode,
)
from repro.core.problem import GreenEnforcement
from repro.core.provisioning import ProvisioningCompiler, solve_provisioning

from lp_oracles import ScalarProvisioningBuilder, assert_compiled_matches_scalar


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
        assert_compiled_matches_scalar(problem, siting)

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

    def test_template_reuse_matches_scalar_oracle(self, two_site_problem):
        """A cached CSC pattern, reused across sitings, stays entry-exact."""
        compiler = ProvisioningCompiler(two_site_problem)
        names = [profile.name for profile in two_site_problem.profiles]
        for siting in (
            {names[0]: "large", names[1]: "large"},
            # Same shape, different location order: exercises template reuse.
            {names[1]: "large", names[0]: "large"},
            {names[0]: "small"},
        ):
            assert_compiled_matches_scalar(two_site_problem, siting, compiler=compiler)

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
        assert_compiled_matches_scalar(problem, siting)


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
