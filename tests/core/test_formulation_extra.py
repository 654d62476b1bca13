"""Additional tests for the full MILP formulation and its interaction with scenarios."""

import numpy as np
import pytest

from repro.core import (
    EnergySources,
    GreenEnforcement,
    SitingProblem,
    StorageMode,
    build_full_milp,
    solve_full_milp,
    solve_provisioning,
)
from repro.lpsolver import SolverOptions, highs_backend
from repro.lpsolver.validate import row_form_violations

from lp_oracles import csc_matrix

KIEV, GRISSOM = "Kiev, Ukraine", "Grissom, IN, USA"


@pytest.fixture(scope="module")
def three_profiles(anchor_profiles):
    return [
        anchor_profiles["Kiev, Ukraine"],
        anchor_profiles["Grissom, IN, USA"],
        anchor_profiles["Burke Lakefront, OH, USA"],
    ]


def _problem(profiles, params, green, storage=StorageMode.NONE, **kwargs):
    return SitingProblem(
        profiles=profiles,
        params=params.with_updates(total_capacity_kw=15_000.0, min_green_fraction=green),
        sources=EnergySources.SOLAR_AND_WIND,
        storage=storage,
        **kwargs,
    )


class TestBuildFullMilp:
    def test_two_integer_columns_per_site(self, three_profiles, params):
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=20_000.0, min_green_fraction=0.0),
            sources=EnergySources.NONE,
        )
        milp = build_full_milp(problem)
        assert milp.names == [profile.name for profile in three_profiles]
        integer = np.flatnonzero(milp.row_form.integrality)
        assert sorted(integer) == sorted(np.concatenate([milp.small_cols, milp.large_cols]))
        assert len(integer) == 2 * 3
        np.testing.assert_array_equal(milp.row_form.upper[integer], 1.0)
        # Two binaries per site plus the continuous machinery.
        assert milp.row_form.num_variables > 6

    def test_availability_constraint_present(self, three_profiles, params):
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=20_000.0, min_green_fraction=0.0),
            sources=EnergySources.NONE,
        )
        milp = build_full_milp(problem)
        row = csc_matrix(milp.row_form).tocsr()[milp.availability_row]
        assert sorted(row.indices) == sorted(np.concatenate([milp.small_cols, milp.large_cols]))
        np.testing.assert_array_equal(row.data, 1.0)
        assert milp.row_form.row_lower[milp.availability_row] == problem.min_datacenters
        assert milp.row_form.row_upper[milp.availability_row] == np.inf

    @pytest.mark.parametrize(
        "green, enforcement, expected",
        [
            (0.0, GreenEnforcement.ANNUAL, 0),
            (0.5, GreenEnforcement.ANNUAL, 1),
            (0.5, GreenEnforcement.PER_EPOCH, "T"),
        ],
    )
    def test_green_rows_follow_the_enforcement(
        self, three_profiles, params, green, enforcement, expected
    ):
        problem = _problem(three_profiles, params, green, green_enforcement=enforcement)
        milp = build_full_milp(problem)
        expected = problem.num_epochs if expected == "T" else expected
        assert len(milp.green_rows) == expected
        if expected:
            # ``sum(delivered green) - frac * sum(demand) >= 0``.
            np.testing.assert_array_equal(milp.row_form.row_lower[milp.green_rows], 0.0)
            np.testing.assert_array_equal(milp.row_form.row_upper[milp.green_rows], np.inf)
            green_block = csc_matrix(milp.row_form).tocsr()[milp.green_rows]
            assert (green_block.data > 0).any() and (green_block.data < 0).any()

    @pytest.mark.parametrize("enforcement", list(GreenEnforcement))
    @pytest.mark.parametrize("storage", list(StorageMode))
    def test_fixed_siting_is_the_provisioning_lp(
        self, three_profiles, params, enforcement, storage
    ):
        """With the binaries fixed to an all-small siting, the MILP is that siting's LP.

        Small sites never meet the large-class floor, so no MILP-only row
        binds: the optimum must equal ``solve_provisioning`` of the siting.
        """
        problem = _problem(three_profiles, params, 0.6, storage, green_enforcement=enforcement)
        milp = build_full_milp(problem)
        row_form = milp.row_form
        row_form.lower[milp.small_cols] = 1.0
        row_form.upper[milp.large_cols] = 0.0
        result = highs_backend.solve_row_form(row_form, SolverOptions())
        siting = {name: "small" for name in milp.names}
        expected = solve_provisioning(problem, siting, enforce_spread=False)
        assert result.is_optimal and expected.feasible
        assert result.objective == pytest.approx(expected.monthly_cost, rel=1e-7)


    @pytest.mark.parametrize("enforcement", list(GreenEnforcement))
    @pytest.mark.parametrize("storage", list(StorageMode))
    def test_row_form_is_structurally_sound(self, three_profiles, params, enforcement, storage):
        """Finite data, consistent CSC arrays, no duplicate, empty or orphan entries."""
        problem = _problem(three_profiles, params, 0.6, storage, green_enforcement=enforcement)
        milp = build_full_milp(problem)
        assert row_form_violations(milp.row_form) == []
        # Siting columns come after the provisioning LP: four per site, seven
        # rows per site, then the availability row last.
        num_rows, num_cols = milp.row_form.shape
        assert milp.availability_row == num_rows - 1
        assert max(milp.large_cols) < num_cols and min(milp.small_cols) >= num_cols - 4 * 3


#: Siting and returned ``monthly_cost`` of the annual-enforcement MILP on the
#: three anchors at 15 MW, recorded from the earlier scalar formulation of
#: Fig. 1 (solved by ``scipy.optimize.milp``) before it was rebuilt on the
#: provisioning skeletons.
GOLDEN = {
    (StorageMode.NONE, 0.0): ({KIEV: "large", GRISSOM: "small"}, 5737293.244392103),
    (StorageMode.NONE, 0.6): ({KIEV: "small", GRISSOM: "large"}, 7122609.790901306),
    (StorageMode.BATTERIES, 0.0): ({KIEV: "large", GRISSOM: "small"}, 5737293.244392103),
    (StorageMode.BATTERIES, 0.6): ({KIEV: "small", GRISSOM: "large"}, 6994193.961645761),
    (StorageMode.NET_METERING, 0.0): ({KIEV: "large", GRISSOM: "small"}, 5737293.244392103),
    (StorageMode.NET_METERING, 0.6): ({KIEV: "small", GRISSOM: "large"}, 6669204.60359411),
}


class TestSolveFullMilp:
    def test_green_milp_meets_requirement(self, three_profiles, params):
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=15_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        result = solve_full_milp(problem, SolverOptions(time_limit=90.0))
        assert result.feasible
        assert result.plan.green_fraction >= 0.5 - 1e-3
        assert result.plan.num_datacenters >= problem.min_datacenters

    def test_milp_never_beaten_by_fixed_siting(self, three_profiles, params):
        """Any specific siting the heuristic could try costs at least the MILP optimum."""
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(total_capacity_kw=15_000.0, min_green_fraction=0.25),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        milp = solve_full_milp(problem, SolverOptions(time_limit=90.0))
        assert milp.feasible
        names = [profile.name for profile in three_profiles]
        fixed = solve_provisioning(
            problem, {names[0]: "small", names[1]: "small"}, enforce_spread=False
        )
        assert fixed.feasible
        assert milp.monthly_cost <= fixed.monthly_cost * 1.02

    @pytest.mark.parametrize("storage, green", sorted(GOLDEN, key=lambda k: (k[0].value, k[1])))
    def test_golden_annual_sitings_and_costs(self, three_profiles, params, storage, green):
        siting, monthly_cost = GOLDEN[(storage, green)]
        result = solve_full_milp(_problem(three_profiles, params, green, storage))
        assert result.feasible
        assert {dc.profile.name: dc.size_class for dc in result.plan.datacenters} == siting
        assert result.monthly_cost == pytest.approx(monthly_cost, rel=1e-9)

    @pytest.mark.parametrize("enforcement", list(GreenEnforcement))
    @pytest.mark.parametrize("storage", list(StorageMode))
    def test_returned_plan_costs_no_more_than_the_milp_optimum(
        self, three_profiles, params, enforcement, storage
    ):
        """The MILP picks the siting under the same green rule as the plan it returns.

        The returned plan is the fixed-siting LP of the MILP's siting, whose
        only differences from the MILP are relaxations (no size-class floor,
        no gates on sited locations), so it can never cost more than the
        MILP optimum — unless the MILP enforced a looser green rule.
        """
        problem = _problem(
            three_profiles, params, 0.6, storage, green_enforcement=enforcement
        )
        options = SolverOptions(time_limit=120.0)
        milp = highs_backend.solve_row_form(build_full_milp(problem).row_form, options)
        assert milp.is_optimal
        returned = solve_full_milp(problem, options)
        assert returned.feasible
        assert returned.monthly_cost <= milp.objective * (1.0 + options.mip_gap)

    @pytest.mark.parametrize("min_availability, needed", [(0.9, 1), (0.99999, 2), (0.9999999, 3)])
    def test_sites_the_datacenters_availability_needs(
        self, three_profiles, params, min_availability, needed
    ):
        problem = SitingProblem(
            profiles=three_profiles,
            params=params.with_updates(
                total_capacity_kw=15_000.0,
                min_green_fraction=0.6,
                min_availability=min_availability,
            ),
            sources=EnergySources.SOLAR_AND_WIND,
        )
        assert problem.min_datacenters == needed
        result = solve_full_milp(problem)
        assert result.feasible
        assert result.plan.num_datacenters >= needed

    def test_cost_rises_with_the_availability_requirement(self, three_profiles, params):
        """Each extra required datacenter adds a fixed cost the optimum cannot avoid."""
        costs = [
            solve_full_milp(
                SitingProblem(
                    profiles=three_profiles,
                    params=params.with_updates(
                        total_capacity_kw=15_000.0, min_availability=min_availability
                    ),
                    sources=EnergySources.SOLAR_AND_WIND,
                )
            ).monthly_cost
            for min_availability in (0.9, 0.99999, 0.9999999)
        ]
        assert costs[0] < costs[1] < costs[2]
