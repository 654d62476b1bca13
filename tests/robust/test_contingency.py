"""N-1 contingency LP: budgets, differential oracles, the report shape."""

import json

import numpy as np
import pytest

from repro.core.provisioning import ProvisioningCompiler, solve_provisioning
from repro.lpsolver import SolverStatusError
from repro.robust import (
    ContingencyConfig,
    contingency_report,
    evaluate_contingencies,
    plan_with_sizing,
    solve_contingency_lp,
)
from repro.robust import contingency
from repro.robust.contingency import _annual_budget_kwh, _worst_case
from repro.robust.stochastic import solve_ensemble_lp
from repro.robust.stochastic import plan_siting_and_sizing


@pytest.fixture(scope="module")
def siting(two_site_problem):
    return {profile.name: "large" for profile in two_site_problem.profiles}


@pytest.fixture(scope="module")
def compiler(two_site_problem):
    return ProvisioningCompiler(two_site_problem)


@pytest.fixture(scope="module")
def det_sizing(two_site_problem, siting, solver_options):
    plan = solve_provisioning(
        two_site_problem, siting, options=solver_options, enforce_spread=False
    ).plan
    _, sizing = plan_siting_and_sizing(plan)
    return sizing


def _evaluate_one_by_one(compiler, siting, sizing, options, unserved_penalty_x=10.0):
    """Brute-force oracle for ``evaluate_contingencies``: one LP per contingency."""
    cases = [None] + list(range(len(siting)))
    costs = np.empty(len(cases))
    unserved = np.empty(len(cases))
    for i, case in enumerate(cases):
        single = solve_ensemble_lp(
            [compiler],
            siting,
            options=options,
            sizing_bounds=sizing,
            unserved_penalty_x=unserved_penalty_x,
            blocked_sites=[case],
        )
        costs[i] = single.per_draw_costs[0]
        unserved[i] = single.per_draw_unserved_energy[0]
    return {"costs": costs, "unserved_kwh": unserved}


class TestContingencyConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ContingencyConfig(survivability_epsilon=0.0)
        with pytest.raises(ValueError):
            ContingencyConfig(survivability_epsilon=1.5)
        with pytest.raises(ValueError):
            ContingencyConfig(contingency_weight=0.0)
        with pytest.raises(ValueError):
            ContingencyConfig(unserved_penalty_x=-1.0)
        with pytest.raises(ValueError):
            ContingencyConfig(outage_start_step=-1)
        with pytest.raises(ValueError):
            ContingencyConfig(outage_duration_steps=0)


class TestJointSolve:
    def test_every_contingency_stays_within_the_budget(
        self, compiler, siting, solver_options
    ):
        config = ContingencyConfig(survivability_epsilon=0.05)
        solution = solve_contingency_lp(
            compiler, siting, config=config, options=solver_options
        )
        budget = solution.budget_unserved_kwh
        assert budget == pytest.approx(
            _annual_budget_kwh(compiler, config.survivability_epsilon)
        )
        tolerance = 1e-6 * budget + 1e-3
        assert solution.per_contingency_unserved_kwh.shape == (len(siting),)
        assert np.all(solution.per_contingency_unserved_kwh <= budget + tolerance)
        assert solution.worst_unserved_kwh <= budget + tolerance
        for name in siting:
            assert solution.sizing[name]["capacity_kw"] > 0.0

    def test_solve_is_deterministic(self, compiler, siting, solver_options):
        def solve():
            return solve_contingency_lp(compiler, siting, options=solver_options)

        assert solve().objective == solve().objective

    def test_tighter_epsilon_cannot_be_cheaper(self, compiler, siting, solver_options):
        loose = solve_contingency_lp(
            compiler,
            siting,
            config=ContingencyConfig(survivability_epsilon=0.20),
            options=solver_options,
        )
        tight = solve_contingency_lp(
            compiler,
            siting,
            config=ContingencyConfig(survivability_epsilon=0.02),
            options=solver_options,
        )
        assert tight.objective >= loose.objective - 1e-6 * abs(loose.objective)

    def test_single_site_siting_is_infeasible(self, compiler, siting, solver_options):
        lone = {next(iter(siting)): "large"}
        with pytest.raises(SolverStatusError):
            solve_contingency_lp(
                compiler,
                lone,
                config=ContingencyConfig(survivability_epsilon=0.05),
                options=solver_options,
            )


class TestEvaluationDifferential:
    def test_warm_evaluation_matches_cold_one_by_one(
        self, compiler, siting, det_sizing, solver_options
    ):
        warm = evaluate_contingencies(compiler, siting, det_sizing, options=solver_options)
        cold = _evaluate_one_by_one(compiler, siting, det_sizing, solver_options)
        assert np.allclose(warm["costs"], cold["costs"], rtol=1e-7)
        assert np.allclose(
            warm["unserved_kwh"], cold["unserved_kwh"], rtol=1e-6, atol=1e-3
        )

    def test_evaluation_is_bit_identical_across_calls(
        self, compiler, siting, det_sizing, solver_options
    ):
        # Each call warm-starts on its own fresh handle, so no state leaks
        # from one call into the next.
        first = evaluate_contingencies(compiler, siting, det_sizing, options=solver_options)
        second = evaluate_contingencies(compiler, siting, det_sizing, options=solver_options)
        for key in ("costs", "unserved_kwh"):
            assert first[key].tobytes() == second[key].tobytes()

    def test_an_outage_never_lowers_the_cost(
        self, compiler, siting, det_sizing, solver_options
    ):
        # A dark site only restricts the nominal LP (its epoch block is
        # forced to zero), so no outage can beat the nominal year.
        evaluation = evaluate_contingencies(
            compiler, siting, det_sizing, options=solver_options
        )
        costs = evaluation["costs"]
        assert costs.shape == evaluation["unserved_kwh"].shape == (len(siting) + 1,)
        assert np.all(costs[1:] >= costs[0] * (1.0 - 1e-9))

    def test_dearer_unserved_never_lowers_the_cost(
        self, compiler, siting, det_sizing, solver_options
    ):
        cheap, dear = (
            evaluate_contingencies(
                compiler, siting, det_sizing, options=solver_options,
                unserved_penalty_x=penalty,
            )["costs"]
            for penalty in (5.0, 20.0)
        )
        assert np.all(dear >= cheap * (1.0 - 1e-9))

    def test_joint_unserved_matches_fixed_sizing_repricing(
        self, compiler, siting, solver_options
    ):
        """Differential oracle: re-pricing the N-1 sizing per contingency
        reproduces the joint LP's per-contingency unserved energy."""
        config = ContingencyConfig(survivability_epsilon=0.05)
        joint = solve_contingency_lp(
            compiler, siting, config=config, options=solver_options
        )
        from repro.robust.stochastic import _sizing_tuples

        repriced = evaluate_contingencies(
            compiler,
            siting,
            _sizing_tuples(joint.sizing),
            options=solver_options,
            unserved_penalty_x=config.unserved_penalty_x,
        )
        # Index 0 is the nominal (no-outage) case; contingencies follow.  The
        # unconstrained repricing reaches the physical unserved minimum; the
        # joint LP's budget rows clip it at epsilon, so the two agree up to
        # that clip.
        scale = max(joint.budget_unserved_kwh, 1.0)
        assert np.allclose(
            np.minimum(repriced["unserved_kwh"][1:], joint.budget_unserved_kwh),
            joint.per_contingency_unserved_kwh,
            atol=1e-5 * scale,
        )

    def test_deterministic_sizing_exceeds_a_tight_budget(
        self, compiler, siting, det_sizing, solver_options
    ):
        """The cost-optimal sizing concentrates capacity, so losing its main
        site must blow through a tight epsilon budget somewhere."""
        evaluation = evaluate_contingencies(
            compiler, siting, det_sizing, options=solver_options
        )
        budget = _annual_budget_kwh(compiler, 0.05)
        assert float(np.max(evaluation["unserved_kwh"][1:])) > budget


class TestContingencyReport:
    def test_report_shape_and_acceptance(
        self, compiler, siting, det_sizing, solver_options
    ):
        config = ContingencyConfig(survivability_epsilon=0.05)
        report = contingency_report(
            compiler, siting, det_sizing, config=config, options=solver_options
        )
        json.dumps(report)
        assert report["num_sites"] == len(siting)
        # The N-1 sizing survives every single-site outage; the deterministic
        # plan fails at least its worst one.
        assert report["n1_violations"] == 0
        assert report["det_violations"] >= 1
        assert (
            report["worst_case"]["det"]["unserved_kwh"]
            > report["worst_case"]["n1"]["unserved_kwh"]
        )
        # Survivability costs something, and the premium is reported.
        assert report["n1_nominal_cost"] >= report["det_nominal_cost"] - 1e-6
        assert report["cost_premium_pct"] >= -1e-9
        # Criticality is ranked by deterministic damage, worst first.
        damages = [entry["det_unserved_kwh"] for entry in report["criticality"]]
        assert damages == sorted(damages, reverse=True)
        assert set(report["n1_sizing"]) == set(siting)

    def test_worst_case_ignores_round_off_on_the_budget(
        self, compiler, siting, det_sizing, solver_options, monkeypatch
    ):
        """Two outages on the budget row, 3e-8 kWh apart: the gap is LP
        round-off, so the costlier outage is the worst case."""
        config = ContingencyConfig(survivability_epsilon=0.05)
        budget = _annual_budget_kwh(compiler, config.survivability_epsilon)
        first, second = list(siting)

        def on_the_budget(compiler, siting, sizing, options=None, unserved_penalty_x=10.0):
            return {
                "costs": np.array([1.0e6, 2.0e6, 3.0e6]),
                "unserved_kwh": np.array([0.0, budget + 3e-8, budget]),
            }

        monkeypatch.setattr(contingency, "evaluate_contingencies", on_the_budget)
        report = contingency_report(
            compiler, siting, det_sizing, config=config, options=solver_options
        )
        for plan in ("det", "n1"):
            assert report["worst_case"][plan] == {
                "site": second,
                "cost": 3.0e6,
                "unserved_kwh": budget,
            }
        assert report["criticality"][0]["site"] == first

    def test_worst_case_ties_break_by_cost_then_name(self):
        names = ["b", "a", "c"]
        unserved = np.array([10.0, 10.0, 5.0])
        assert _worst_case(names, np.array([2.0, 1.0, 9.0]), unserved, 1e-3) == 0
        assert _worst_case(names, np.array([1.0, 1.0, 9.0]), unserved, 1e-3) == 1
        # Outside the tolerance the most unserved energy wins, whatever it costs.
        assert _worst_case(names, np.array([1.0, 1.0, 9.0]), unserved, 4.0) == 1
        assert _worst_case(names, np.array([1.0, 1.0, 9.0]), unserved, 5.0) == 2


class TestPlanWithSizing:
    def test_sizing_fields_are_replaced(
        self, two_site_problem, siting, solver_options
    ):
        plan = solve_provisioning(
            two_site_problem, siting, options=solver_options, enforce_spread=False
        ).plan
        sizing = {
            dc.name: {
                "capacity_kw": dc.capacity_kw + 1000.0,
                "solar_kw": dc.solar_kw + 10.0,
                "wind_kw": dc.wind_kw,
                "battery_kwh": dc.battery_kwh,
            }
            for dc in plan.datacenters
        }
        swapped = plan_with_sizing(plan, sizing)
        assert swapped is not plan
        for dc in swapped.datacenters:
            assert dc.capacity_kw == pytest.approx(sizing[dc.name]["capacity_kw"])
            assert dc.solar_kw == pytest.approx(sizing[dc.name]["solar_kw"])
        # The original plan is untouched.
        assert plan.total_capacity_kw == pytest.approx(
            sum(s["capacity_kw"] for s in sizing.values()) - 2000.0
        )
