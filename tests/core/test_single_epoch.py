"""Single-epoch grids go through the same templated row form as every grid.

With one epoch the cyclic previous epoch is the epoch itself, so the
migration and storage-dynamics blocks name one matrix coordinate twice; the
per-site skeleton sums those duplicates.  These tests pin the compiled LP
against the scalar oracle, the heuristic's warm-started evaluations against
cold solves, and a whole heuristic search against its recorded result.
"""

import pytest

from repro.core import (
    EnergySources,
    FrameworkParameters,
    HeuristicSolver,
    SearchSettings,
    SitingProblem,
    StorageMode,
)
from repro.core.problem import GreenEnforcement
from repro.core.provisioning import ProvisioningCompiler, solve_provisioning
from repro.energy import EpochGrid, ProfileBuilder

from lp_oracles import ScalarProvisioningBuilder, assert_compiled_matches_scalar

STORAGE = [StorageMode.NET_METERING, StorageMode.BATTERIES, StorageMode.NONE]
GREEN = [
    (0.0, GreenEnforcement.ANNUAL),
    (0.3, GreenEnforcement.ANNUAL),
    (0.3, GreenEnforcement.PER_EPOCH),
]


@pytest.fixture(scope="module")
def single_epoch_profiles(small_catalog):
    grid = EpochGrid(representative_days=(100,), hours_per_epoch=24)
    assert grid.num_epochs == 1
    return ProfileBuilder(small_catalog).build_all(grid)


def _problem(profiles, storage, green, enforcement):
    return SitingProblem(
        profiles=profiles,
        params=FrameworkParameters().with_updates(
            total_capacity_kw=50_000.0, min_green_fraction=green
        ),
        sources=EnergySources.SOLAR_AND_WIND,
        storage=storage,
        green_enforcement=enforcement,
    )


@pytest.mark.parametrize("storage", STORAGE)
@pytest.mark.parametrize("green,enforcement", GREEN)
class TestSingleEpochGrid:
    def test_row_form_matches_scalar_oracle(
        self, single_epoch_profiles, storage, green, enforcement
    ):
        problem = _problem(single_epoch_profiles, storage, green, enforcement)
        names = [profile.name for profile in problem.profiles]
        compiler = ProvisioningCompiler(problem)
        for siting in (
            {names[0]: "large", names[1]: "small"},
            {names[2]: "small"},
            {names[1]: "large", names[0]: "small"},
        ):
            assert_compiled_matches_scalar(problem, siting, compiler=compiler)
        siting = {names[0]: "large", names[1]: "large"}
        scalar = ScalarProvisioningBuilder(problem, siting).solve()
        compiled = solve_provisioning(problem, siting, compiler=compiler)
        assert compiled.feasible == scalar.feasible
        if scalar.feasible:
            assert compiled.monthly_cost == pytest.approx(scalar.monthly_cost, rel=1e-6)

    def test_incremental_matches_cold_solves(
        self, single_epoch_profiles, storage, green, enforcement
    ):
        problem = _problem(single_epoch_profiles, storage, green, enforcement)
        names = [profile.name for profile in problem.profiles]
        compiler = ProvisioningCompiler(problem)
        solver = HeuristicSolver(problem, compiler=compiler)
        feasible = 0
        for siting in (
            {names[0]: "large", names[1]: "large"},
            {names[0]: "large", names[1]: "large", names[2]: "large"},  # add
            {names[0]: "large", names[2]: "large"},                     # remove
            {names[0]: "large", names[2]: "small"},                     # resize
            {names[3]: "large", names[4]: "large", names[5]: "small"},  # full swap
        ):
            warm = solver.evaluate(siting)
            cold = solve_provisioning(problem, siting, compiler=compiler)
            assert warm.feasible == cold.feasible, siting
            if cold.feasible:
                feasible += 1
                assert warm.monthly_cost == pytest.approx(cold.monthly_cost, rel=1e-9)
        assert feasible > 0


def test_search_result_is_unchanged(single_epoch_profiles):
    """The full heuristic on a one-epoch grid: filter, annealing and result."""
    problem = _problem(
        single_epoch_profiles, StorageMode.NET_METERING, 0.3, GreenEnforcement.ANNUAL
    )
    settings = SearchSettings(keep_locations=8, num_chains=2, seed=3)
    solution = HeuristicSolver(problem, settings).solve()
    assert solution.feasible
    assert solution.filtered_locations == [
        "Grissom, IN, USA",
        "north-america-0003",
        "Kiev, Ukraine",
        "europe-0003",
        "east-asia-0000",
        "Andersen, Guam",
        "Nairobi, Kenya",
        "Mexico City, Mexico",
    ]
    assert solution.evaluations == 47
    assert solution.monthly_cost == pytest.approx(19947036.160133854, rel=1e-9)
    assert sorted((dc.name, dc.size_class) for dc in solution.plan.datacenters) == [
        ("Kiev, Ukraine", "large"),
        ("north-america-0003", "large"),
    ]
