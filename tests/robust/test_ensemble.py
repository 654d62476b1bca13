"""Ensemble determinism, the stochastic LP's differential oracles, CVaR."""

import dataclasses

import numpy as np
import pytest

from repro.core.provisioning import ProvisioningCompiler, solve_provisioning
from repro.robust import (
    EnsembleConfig,
    cvar,
    demand_factor,
    ensemble_report,
    perturbed_problem,
    solve_ensemble_lp,
    weather_factors,
)
from repro.robust import stochastic
from repro.robust.stochastic import plan_siting_and_sizing
from repro.scenarios import ExperimentRunner, ScenarioSpec


@pytest.fixture(scope="module")
def siting(two_site_problem):
    return {profile.name: "large" for profile in two_site_problem.profiles}


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(draws=0)
        with pytest.raises(ValueError):
            EnsembleConfig(weather_noise=-0.1)
        with pytest.raises(ValueError):
            EnsembleConfig(alpha=1.0)
        with pytest.raises(ValueError):
            EnsembleConfig(mode="pessimistic")
        with pytest.raises(ValueError):
            EnsembleConfig(unserved_penalty_x=0.0)


class TestDraws:
    def test_draws_are_bit_identical_across_calls(self):
        config = EnsembleConfig(draws=4, seed=11)
        first = weather_factors(config, 2, "solar:x", 32)
        second = weather_factors(config, 2, "solar:x", 32)
        assert np.array_equal(first, second)
        assert demand_factor(config, 3) == demand_factor(config, 3)

    def test_draws_and_series_are_distinct(self):
        config = EnsembleConfig(draws=4, seed=11)
        assert not np.array_equal(
            weather_factors(config, 0, "solar:x", 32),
            weather_factors(config, 1, "solar:x", 32),
        )
        assert not np.array_equal(
            weather_factors(config, 0, "solar:x", 32),
            weather_factors(config, 0, "wind:x", 32),
        )

    def test_perturbation_leaves_the_base_problem_untouched(self, two_site_problem):
        config = EnsembleConfig(draws=2, seed=5)
        before = [profile.solar_alpha.copy() for profile in two_site_problem.profiles]
        perturbed = perturbed_problem(two_site_problem, config, 0)
        for profile, original in zip(two_site_problem.profiles, before):
            assert np.array_equal(profile.solar_alpha, original)
        assert perturbed.params.total_capacity_kw != pytest.approx(
            two_site_problem.params.total_capacity_kw
        ) or config.demand_noise == 0

    def test_zero_noise_draw_is_the_base_problem(self, two_site_problem):
        config = EnsembleConfig(draws=1, weather_noise=0.0, demand_noise=0.0)
        perturbed = perturbed_problem(two_site_problem, config, 0)
        for original, copy in zip(two_site_problem.profiles, perturbed.profiles):
            assert np.array_equal(original.solar_alpha, copy.solar_alpha)
            assert np.array_equal(original.wind_beta, copy.wind_beta)
        assert perturbed.params.total_capacity_kw == pytest.approx(
            two_site_problem.params.total_capacity_kw
        )


class TestCvar:
    def test_tail_mean(self):
        costs = list(range(1, 11))
        assert cvar(costs, 0.9) == 10.0       # worst single draw
        assert cvar(costs, 0.5) == np.mean([6, 7, 8, 9, 10])

    def test_small_samples_use_at_least_one_draw(self):
        assert cvar([3.0, 7.0], 0.99) == 7.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            cvar([], 0.9)


class TestStochasticLP:
    def test_zero_noise_single_draw_matches_deterministic_solver(
        self, two_site_problem, siting, solver_options
    ):
        config = EnsembleConfig(draws=1, weather_noise=0.0, demand_noise=0.0)
        compiler = ProvisioningCompiler(perturbed_problem(two_site_problem, config, 0))
        joint = solve_ensemble_lp([compiler], siting, options=solver_options)
        deterministic = solve_provisioning(
            two_site_problem, siting, options=solver_options, enforce_spread=False
        )
        assert joint.objective == pytest.approx(deterministic.monthly_cost, rel=1e-9)

    def test_joint_objective_decomposes_over_fixed_sizing_draws(
        self, two_site_problem, siting, solver_options
    ):
        """Differential oracle: with sizing fixed, draws decouple exactly."""
        config = EnsembleConfig(draws=3, seed=7)
        compilers = [
            ProvisioningCompiler(perturbed_problem(two_site_problem, config, draw))
            for draw in range(config.draws)
        ]
        joint = solve_ensemble_lp(compilers, siting, options=solver_options)
        bounds = {
            name: tuple(
                joint.sizing[name][key]
                for key in ("capacity_kw", "solar_kw", "wind_kw", "battery_kwh")
            )
            for name in siting
        }
        per_draw = [
            solve_ensemble_lp(
                [compiler], siting, options=solver_options, sizing_bounds=bounds
            ).per_draw_costs[0]
            for compiler in compilers
        ]
        assert joint.objective == pytest.approx(float(np.mean(per_draw)), rel=1e-7)
        assert np.allclose(joint.per_draw_costs, per_draw, rtol=1e-6)

    def test_stochastic_objective_is_deterministic_across_solves(
        self, two_site_problem, siting, solver_options
    ):
        config = EnsembleConfig(draws=2, seed=3)
        def solve():
            compilers = [
                ProvisioningCompiler(perturbed_problem(two_site_problem, config, draw))
                for draw in range(config.draws)
            ]
            return solve_ensemble_lp(compilers, siting, options=solver_options)
        assert solve().objective == solve().objective

    def test_input_validation(self, two_site_problem, siting, solver_options):
        with pytest.raises(ValueError):
            solve_ensemble_lp([], siting, options=solver_options)
        compiler = ProvisioningCompiler(two_site_problem)
        with pytest.raises(ValueError):
            solve_ensemble_lp([compiler], {}, options=solver_options)
        with pytest.raises(ValueError):
            solve_ensemble_lp([compiler], siting, weights=[0.5, 0.5], options=solver_options)


class TestEnsembleReport:
    def test_regret_is_nonnegative_and_report_is_json_ready(
        self, two_site_problem, siting, solver_options
    ):
        import json

        plan = solve_provisioning(
            two_site_problem, siting, options=solver_options, enforce_spread=False
        ).plan
        plan_siting, sizing = plan_siting_and_sizing(plan)
        config = EnsembleConfig(draws=3, mode="stochastic", seed=2)
        report = ensemble_report(
            two_site_problem, plan_siting, sizing, config, options=solver_options
        )
        assert report["draws"] == 3
        assert min(report["per_draw_regret"]) >= -1e-6
        assert report["cvar_cost"] >= report["expected_cost"] - 1e-9
        # The joint stochastic sizing can only improve on the fixed plan.
        assert report["stochastic_expected_cost"] <= report["expected_cost"] + 1e-6
        json.dumps(report)

    def test_warm_repricing_matches_cold_solves_per_draw(
        self, two_site_problem, siting, solver_options
    ):
        plan = solve_provisioning(
            two_site_problem, siting, options=solver_options, enforce_spread=False
        ).plan
        plan_siting, sizing = plan_siting_and_sizing(plan)
        config = EnsembleConfig(draws=4, seed=5)
        report = ensemble_report(
            two_site_problem, plan_siting, sizing, config, options=solver_options
        )
        for draw in range(config.draws):
            compiler = ProvisioningCompiler(perturbed_problem(two_site_problem, config, draw))
            fixed, free = (
                solve_ensemble_lp(
                    [compiler],
                    plan_siting,
                    options=solver_options,
                    sizing_bounds=bounds,
                    unserved_penalty_x=config.unserved_penalty_x,
                )
                for bounds in (sizing, None)
            )
            assert report["per_draw_cost"][draw] == pytest.approx(
                fixed.per_draw_costs[0], rel=1e-9
            )
            assert report["per_draw_optimum"][draw] == pytest.approx(
                free.per_draw_costs[0], rel=1e-9
            )


    def test_only_sited_profiles_are_perturbed(
        self, two_site_problem, anchor_profiles, siting, solver_options, monkeypatch
    ):
        plan = solve_provisioning(
            two_site_problem, siting, options=solver_options, enforce_spread=False
        ).plan
        plan_siting, sizing = plan_siting_and_sizing(plan)
        config = EnsembleConfig(draws=3, mode="stochastic", seed=4)
        narrow = ensemble_report(
            two_site_problem, plan_siting, sizing, config, options=solver_options
        )
        sited = {profile.name for profile in two_site_problem.profiles}
        extras = [profile for name, profile in anchor_profiles.items() if name not in sited]
        assert extras
        wide = dataclasses.replace(
            two_site_problem, profiles=extras + list(two_site_problem.profiles)
        )
        seen = []

        def recording(problem, config, draw):
            seen.append(sorted(profile.name for profile in problem.profiles))
            return perturbed_problem(problem, config, draw)

        monkeypatch.setattr(stochastic, "perturbed_problem", recording)
        report = ensemble_report(wide, plan_siting, sizing, config, options=solver_options)
        assert seen == [sorted(plan_siting)] * config.draws
        assert report == narrow

class TestExecutorDeterminism:
    @pytest.fixture(scope="class")
    def robust_spec(self):
        return ScenarioSpec(
            name="robust-determinism",
            num_locations=12,
            catalog_seed=3,
            days_per_season=1,
            hours_per_epoch=6,
            total_capacity_kw=20_000.0,
            min_green_fraction=0.5,
            search={
                "keep_locations": 4,
                "max_iterations": 3,
                "patience": 3,
                "num_chains": 1,
                "seed": 3,
                "max_datacenters": 3,
            },
            ensemble={"draws": 2, "mode": "stochastic", "seed": 9},
        )

    def test_serial_and_thread_records_are_bit_identical(self, robust_spec):
        serial = ExperimentRunner(workers=1, executor="serial").run_point(robust_spec)
        threaded = ExperimentRunner(workers=2, executor="thread").run_point(robust_spec)
        assert serial.record == threaded.record
        assert serial.record["robustness"]["per_draw_cost"] == (
            threaded.record["robustness"]["per_draw_cost"]
        )

    @pytest.mark.multicore
    def test_process_records_are_bit_identical(self, robust_spec):
        serial = ExperimentRunner(workers=1, executor="serial").run_point(robust_spec)
        process = ExperimentRunner(workers=2, executor="process").run_point(robust_spec)
        assert serial.record == process.record
