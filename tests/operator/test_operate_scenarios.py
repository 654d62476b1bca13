"""The operate workflow end to end: spec, runner, CLI, executor determinism."""

import json
import math

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.tool import PlacementTool
from repro.operator.dispatch import DispatchDecision
from repro.operator.replay import OperateConfig, operate_plan
from repro.scenarios import (
    ExperimentRunner,
    OPERATE_DEFAULTS,
    ScenarioSpec,
    get_scenario,
    scenario_names,
)


def _smoke_sweep():
    return get_scenario("operate-smoke").build()


@pytest.fixture(scope="module")
def smoke_results():
    return ExperimentRunner().run(_smoke_sweep())


class TestOperateSpec:
    def test_operate_defaults_are_json_scalars(self):
        json.dumps(OPERATE_DEFAULTS)
        assert OPERATE_DEFAULTS["steps"] == 168
        assert OPERATE_DEFAULTS["horizon_hours"] == 24

    def test_unknown_operate_knob_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(workflow="operate", operate={"time_travel": True})

    def test_round_trip_preserves_operate_block(self):
        spec = ScenarioSpec(
            name="x", workflow="operate", operate={"steps": 24, "forecast_error": 0.2}
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.operate_knobs()["steps"] == 24
        assert again.operate_knobs()["horizon_hours"] == 24  # default filled in

    def test_operate_knobs_change_content_hash(self):
        base = ScenarioSpec(name="x", workflow="operate")
        tweaked = base.with_updates(**{"operate.forecast_error": 0.3})
        assert base.content_hash() != tweaked.content_hash()

    def test_operate_block_invisible_to_other_workflows(self):
        # Pre-operate artifact hashes must stay valid: a plan spec hashes the
        # same whether or not the (ignored) operate block is present.
        plan = ScenarioSpec(name="x", workflow="plan")
        with_block = ScenarioSpec(name="x", workflow="plan", operate={"steps": 24})
        assert plan.content_hash() == with_block.content_hash()
        assert "operate" not in plan.hash_payload()

    def test_problem_signature_ignores_operate(self):
        base = ScenarioSpec(name="x", workflow="operate")
        tweaked = base.with_updates(**{"operate.forecast_error": 0.3})
        assert base.problem_signature() == tweaked.problem_signature()

    def test_operate_scenarios_registered(self):
        names = scenario_names()
        for expected in ("operate-fig06", "operate-forecast", "operate-policy", "operate-smoke"):
            assert expected in names


class TestOperateRunner:
    def test_smoke_records_complete(self, smoke_results):
        assert len(smoke_results) == 2
        for point in smoke_results:
            record = point.record
            assert record["workflow"] == "operate"
            assert record["feasible"]
            assert record["steps"] == 24
            assert record["lp_solves"] == 24
            assert record["cold_loads"] == 1
            assert record["slides"] == 23
            assert record["forecast"]["policy"] == "forecast"
            assert record["oracle"]["policy"] == "oracle"
            json.dumps(record)  # artifact-cache ready

    def test_zero_error_point_has_zero_regret(self, smoke_results):
        exact = smoke_results.find(**{"operate.forecast_error": 0.0})
        assert exact.record["regret_cost_usd"] == pytest.approx(0.0, abs=1e-6)
        noisy = smoke_results.find(**{"operate.forecast_error": 0.25})
        assert noisy.record["forecast_cost_usd"] != exact.record["forecast_cost_usd"]

    def test_thread_executor_matches_serial(self, smoke_results):
        threaded = ExperimentRunner(executor="thread", workers=2).run(_smoke_sweep())
        for a, b in zip(smoke_results, threaded):
            assert a.record == b.record

    @pytest.mark.multicore
    def test_process_executor_matches_serial(self, smoke_results):
        processed = ExperimentRunner(executor="process", workers=2).run(_smoke_sweep())
        for a, b in zip(smoke_results, processed):
            assert a.record == b.record

    def test_artifact_cache_serves_second_run(self, tmp_path, smoke_results):
        cache_dir = tmp_path / "cache"
        runner = ExperimentRunner(cache_dir=cache_dir)
        first = runner.run(_smoke_sweep())
        assert first.cache_hits == 0
        second = ExperimentRunner(cache_dir=cache_dir).run(_smoke_sweep())
        assert second.cache_hits == 2
        for a, b in zip(first, second):
            assert a.record == b.record
        for a, b in zip(smoke_results, second):
            assert a.record == b.record


class TestOperateAnalysis:
    def test_regret_table_rows(self, smoke_results):
        from repro.analysis import format_table, operator_regret_table

        rows = operator_regret_table(smoke_results)
        assert len(rows) == 2
        by_error = {row["operate.forecast_error"]: row for row in rows}
        assert by_error[0.0]["regret_cost_usd"] == pytest.approx(0.0, abs=1e-6)
        assert by_error[0.25]["regret_cost_usd"] > 0.0
        assert format_table(rows)  # renders without error


class TestOperateCli:
    def test_cli_operate_smoke(self, capsys):
        exit_code = cli_main(
            ["operate", "--scenario", "operate-smoke", "--steps", "12", "--no-cache"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "window slides" in output
        assert "regret" in output

    def test_cli_operate_json(self, capsys):
        exit_code = cli_main(
            ["operate", "--scenario", "operate-smoke", "--steps", "8", "--no-cache", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["points"]) == 2
        record = payload["points"][0]["record"]
        assert record["steps"] == 8
        assert record["cold_loads"] == 1

    def test_cli_rejects_non_operate_scenario(self, capsys):
        exit_code = cli_main(["operate", "--scenario", "fig06", "--no-cache"])
        assert exit_code == 2
        assert "not an operate-workflow" in capsys.readouterr().out

    def test_cli_rejects_workflow_override(self, capsys):
        exit_code = cli_main(
            ["operate", "--scenario", "operate-smoke", "--set", "workflow=plan", "--no-cache"]
        )
        assert exit_code == 2
        assert "not an operate-workflow" in capsys.readouterr().out

    def test_cli_unknown_scenario(self, capsys):
        exit_code = cli_main(["operate", "--scenario", "operate-fig99", "--no-cache"])
        assert exit_code == 1


def _decision(migrate_kw):
    zeros = np.zeros(len(migrate_kw))
    return DispatchDecision(
        step=0, objective=0.0, compute_kw=zeros, migrate_kw=np.asarray(migrate_kw),
        brown_kw=zeros, green_direct_kw=zeros, charge_kw=zeros, discharge_kw=zeros,
        level_kwh=zeros, export_kw=zeros, unserved_kw=0.0,
    )


class TestSolverRoundOffMoves:
    """Migrate columns are bounded at 0 but may come back a round-off below."""

    @pytest.mark.parametrize(
        "migrate_kw,moved_kw",
        [([-3.64e-12, 0.0], 0.0), ([0.0, 0.0], 0.0), ([1.5, 2.25], 3.75)],
    )
    def test_only_round_off_below_zero_is_clamped(self, migrate_kw, moved_kw):
        assert _decision(migrate_kw).moved_kw == moved_kw

    def test_operate_fig06_week_with_round_off_moves_completes(self):
        # This week's LP once returned a step's migrate total as -3.64e-12,
        # and the replay died with "the moved power cannot be negative".
        spec = get_scenario("operate-fig06").build().base
        plan = PlacementTool.from_spec(spec).plan_spec(spec).plan
        config = OperateConfig(**dict(spec.operate_knobs(), traffic_seed=387, start_hour=3192))
        record = operate_plan(plan, config, total_capacity_kw=spec.total_capacity_kw)
        assert math.isfinite(record["forecast_cost_usd"])
        assert math.isfinite(record["oracle_cost_usd"])
        for policy in ("forecast", "oracle"):
            assert record[policy]["moved_kw"] >= 0.0
            assert not record[policy]["degraded"]
