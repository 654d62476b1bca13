"""Tests for the experiment runner: determinism, memoization, artifact cache."""

import json
import os
import threading
import time

import pytest

from repro.core.provisioning import ProvisioningCompiler
from repro.scenarios import ExperimentRunner, ParameterSweep, ResultSet, ScenarioSpec, get_scenario

#: A deliberately tiny plan scenario so each point solves in well under a second.
TINY_SEARCH = {
    "keep_locations": 4,
    "max_iterations": 3,
    "patience": 3,
    "num_chains": 1,
    "seed": 3,
    "max_datacenters": 3,
}


def tiny_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(
        num_locations=12,
        catalog_seed=3,
        days_per_season=1,
        hours_per_epoch=6,
        total_capacity_kw=20_000.0,
        search=dict(TINY_SEARCH),
    )
    return spec.with_updates(**overrides) if overrides else spec


def tiny_sweep(**axes) -> ParameterSweep:
    axes = axes or {"min_green_fraction": (0.0, 0.5)}
    return ParameterSweep(base=tiny_spec(), axes=axes)


def comparable(results: ResultSet):
    return [(point.overrides, point.record) for point in results]


class TestPlanWorkflow:
    def test_single_point_record(self):
        point = ExperimentRunner().run_point(tiny_spec())
        assert point.record["workflow"] == "plan"
        assert point.record["feasible"]
        assert point.record["monthly_cost"] > 0
        assert point.record["num_datacenters"] >= 1
        assert point.solution is not None and point.solution.plan is not None
        # The record round-trips through JSON (it is what the cache stores).
        assert json.loads(json.dumps(point.record))["feasible"] is True

    def test_matches_direct_placement_tool(self):
        from repro.core import PlacementTool

        spec = tiny_spec(min_green_fraction=0.5)
        direct = PlacementTool.from_spec(spec).plan_spec(spec)
        point = ExperimentRunner().run_point(spec)
        assert point.record["monthly_cost"] == direct.monthly_cost
        assert point.record["evaluations"] == direct.evaluations

    def test_infeasible_point_is_recorded_not_raised(self):
        # A 100 % green, per-epoch requirement over one tiny candidate set can
        # fail; whatever happens it must produce a record, not an exception.
        spec = tiny_spec(
            min_green_fraction=1.0,
            green_enforcement="per_epoch",
            storage="none",
            candidate_names=("Kiev, Ukraine",),
        )
        point = ExperimentRunner().run_point(spec)
        assert point.record["workflow"] == "plan"
        assert isinstance(point.record["feasible"], bool)


class TestDeterminism:
    def test_identical_results_across_runs_and_workers(self):
        baseline = comparable(ExperimentRunner(workers=1).run(tiny_sweep()))
        for workers in (1, 3):
            results = ExperimentRunner(workers=workers).run(tiny_sweep())
            assert comparable(results) == baseline

    def test_memo_dedupes_equivalent_points(self):
        # All 0 %-green source variants canonicalise to the same brown
        # scenario: the runner must evaluate it once and reuse the result.
        runner = ExperimentRunner()
        sweep = ParameterSweep(
            base=tiny_spec(min_green_fraction=0.0),
            axes={"sources": ("wind", "solar", "solar+wind")},
        )
        results = runner.run(sweep)
        assert len(results) == 3
        records = [point.record for point in results]
        assert records[0] == records[1] == records[2]
        assert len(runner._memo) == 1

    def test_rerun_uses_in_memory_memo(self):
        runner = ExperimentRunner()
        first = runner.run(tiny_sweep())
        second = runner.run(tiny_sweep())
        assert comparable(first) == comparable(second)
        # Live solutions are shared, not recomputed.
        assert first[0].solution is second[0].solution

    def test_records_are_not_aliased_between_served_points(self):
        runner = ExperimentRunner()
        first = runner.run_point(tiny_spec())
        first.record["scribble"] = True
        second = runner.run_point(tiny_spec())
        assert "scribble" not in second.record

    def test_failed_point_is_not_memoized(self):
        runner = ExperimentRunner()
        bad = tiny_spec(candidate_names=("Nowhere, Atlantis",))
        with pytest.raises(KeyError):
            runner.run_point(bad)
        # The failure is not cached: the memo is clean for a retry.
        assert runner._memo == {}


class TestArtifactCache:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cache_dir = tmp_path / "artifacts"
        first = ExperimentRunner(cache_dir=cache_dir).run(tiny_sweep())
        assert first.cache_hits == 0 and first.computed == 2
        assert len(list(cache_dir.glob("point-*.json"))) == 2

        second = ExperimentRunner(cache_dir=cache_dir).run(tiny_sweep())
        assert second.cache_hits == 2 and second.computed == 0
        assert [p.record for p in second] == [p.record for p in first]
        # Cache-served points carry no live solution, by design.
        assert all(point.solution is None for point in second)

    def test_changed_spec_misses_cache(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        runner.run_point(tiny_spec())
        edited = ExperimentRunner(cache_dir=tmp_path).run_point(
            tiny_spec(**{"search.seed": 4})
        )
        assert not edited.from_cache

    def test_corrupt_artifact_is_recomputed(self, tmp_path):
        runner = ExperimentRunner(cache_dir=tmp_path)
        point = runner.run_point(tiny_spec())
        [artifact] = list(tmp_path.glob("point-*.json"))
        artifact.write_text("{not json")
        fresh = ExperimentRunner(cache_dir=tmp_path).run_point(tiny_spec())
        assert not fresh.from_cache
        assert fresh.record == point.record

    def test_cache_disabled_writes_nothing(self, tmp_path):
        ExperimentRunner(cache_dir=None).run_point(tiny_spec())
        assert not os.listdir(tmp_path)


class TestSingleSiteWorkflow:
    def test_records_per_location_rows(self):
        spec = tiny_spec(workflow="single_site", total_capacity_kw=25_000.0, sources="wind")
        point = ExperimentRunner().run_point(spec)
        record = point.record
        assert record["workflow"] == "single_site"
        assert record["num_locations"] == 12
        assert record["num_feasible"] >= 1
        assert len(record["locations"]) == 12
        row = record["locations"][0]
        assert {"location", "monthly_cost", "feasible", "monthly_cost_musd"} <= set(row)

    def test_matches_direct_analyzer(self):
        from repro.core import SingleSiteAnalyzer

        spec = tiny_spec(workflow="single_site", total_capacity_kw=25_000.0)
        runner = ExperimentRunner()
        tool = runner.tool_for(spec)
        direct = SingleSiteAnalyzer.from_spec(spec).cost_distribution(
            tool.profiles,
            capacity_kw=spec.total_capacity_kw,
            min_green_fraction=spec.min_green_fraction,
            sources=spec.sources_enum,
            storage=spec.storage_enum,
        )
        record = runner.run_point(spec).record
        assert [row["monthly_cost"] for row in record["locations"]] == [
            cost.monthly_cost for cost in direct
        ]


class TestEmulateWorkflow:
    def test_emulation_record(self):
        spec = ScenarioSpec(
            workflow="emulate",
            num_locations=20,
            catalog_seed=2014,
            hours_per_epoch=1,
            emulation={"seed": 7, "duration_hours": 4, "num_vms": 4},
        )
        point = ExperimentRunner().run_point(spec)
        record = point.record
        assert record["workflow"] == "emulate"
        assert record["total_hours"] == 4
        assert len(record["sites"]) == 3
        for name in record["sites"]:
            assert len(record["load_series"][name]) == 4
        # The live cloud rides along for trace-level inspection.
        assert point.solution is not None
        assert sum(dc.num_vms for dc in point.solution.datacenters) == 4

    def test_records_hold_no_wall_clock_reading(self):
        # Two serial runs of one scenario give the same record bytes, so a
        # record (and the artifact cache storing it) holds results only.
        spec = _scenario_point("sec5b")
        records = [
            json.dumps(
                ExperimentRunner(workers=1, executor="serial").run_point(spec).record,
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert records[0] == records[1]


class TestRunnerSharedCaches:
    def test_profiles_shared_between_points(self):
        runner = ExperimentRunner()
        runner.run(tiny_sweep())
        assert len(runner._profiles) == 1
        assert len(runner._catalogs) == 1

    def test_problems_keyed_by_signature(self):
        runner = ExperimentRunner()
        runner.run(tiny_sweep(**{"search.seed": (3, 5)}))
        # Two points, same problem: one shared problem + compiler pair.
        assert len(runner._problems) == 1
        runner.run_point(tiny_spec(storage="none", min_green_fraction=1.0))
        assert len(runner._problems) == 2

    @staticmethod
    def _race(runner, spec, count=2):
        """``count`` threads asking for one catalogue; returns (values, errors)."""
        values, errors = [None] * count, [None] * count

        def ask(index):
            try:
                values[index] = runner._catalog_for(spec)
            except Exception as error:
                errors[index] = error

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        return threads, values, errors

    @staticmethod
    def _wait_for(predicate, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "threads never reached the build"
            time.sleep(0.005)

    def test_concurrent_points_build_one_catalogue(self, monkeypatch):
        gate = threading.Event()
        builds = []

        def gated_build(spec):
            builds.append(spec)
            assert gate.wait(10.0)
            return object()

        monkeypatch.setattr(ScenarioSpec, "build_catalog", gated_build)
        runner = ExperimentRunner()
        threads, values, errors = self._race(runner, tiny_spec())
        # Both threads are in: one builds, the other waits as a hit.
        self._wait_for(
            lambda: runner.cache_counters["catalog_builds"]
            + runner.cache_counters["catalog_hits"] == 2
        )
        gate.set()
        for thread in threads:
            thread.join(10.0)
        assert errors == [None, None]
        assert len(builds) == 1
        assert values[0] is values[1] is not None
        stats = runner.cache_stats()
        assert (stats["catalog_builds"], stats["catalog_hits"]) == (1, 1)
        assert runner._catalog_for(tiny_spec()) is values[0]

    def test_failed_build_raises_in_every_waiter_and_retries(self, monkeypatch):
        gate = threading.Event()
        builds = []

        def failing_build(spec):
            builds.append(spec)
            assert gate.wait(10.0)
            if len(builds) == 1:
                raise RuntimeError("catalogue synthesis failed")
            return "catalogue"

        monkeypatch.setattr(ScenarioSpec, "build_catalog", failing_build)
        runner = ExperimentRunner()
        threads, values, errors = self._race(runner, tiny_spec())
        self._wait_for(
            lambda: runner.cache_counters["catalog_builds"]
            + runner.cache_counters["catalog_hits"] == 2
        )
        gate.set()
        for thread in threads:
            thread.join(10.0)
        assert values == [None, None]
        assert all(isinstance(error, RuntimeError) for error in errors)
        assert len(builds) == 1
        # The failure is not cached: the next call builds afresh.
        assert runner._catalog_for(tiny_spec()) == "catalogue"
        assert len(builds) == 2
        assert runner.cache_stats()["catalog_builds"] == 2

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(workers=0)


def _scenario_point(name, index=0):
    return get_scenario(name).build().points()[index].spec


class TestSkeletonCounting:
    """``cache_stats()`` skeleton counters against spies on the compilers themselves.

    Every ``site_skeleton`` call of any compiler counts exactly one hit,
    derive or build, and every build makes one class structure, whichever
    code owns the compiler.
    """

    @staticmethod
    def _spy(monkeypatch):
        calls = {"site_skeleton": 0, "_class_structure": 0}
        lock = threading.Lock()
        for name in calls:
            original = getattr(ProvisioningCompiler, name)

            def spy(compiler, *args, _original=original, _name=name):
                with lock:
                    calls[_name] += 1
                return _original(compiler, *args)

            monkeypatch.setattr(ProvisioningCompiler, name, spy)
        return calls

    @staticmethod
    def _assert_counted(runner, calls):
        stats = runner.cache_stats()
        assert calls["_class_structure"] > 0
        assert (
            stats["skeleton_hits"] + stats["skeleton_derives"] + stats["skeleton_builds"]
            == calls["site_skeleton"]
        )
        assert stats["skeleton_builds"] == calls["_class_structure"]

    @pytest.mark.parametrize(
        "make_spec",
        [
            lambda: tiny_spec(),
            lambda: tiny_spec(search=dict(TINY_SEARCH, coarse_epoch_factor=2)),
            lambda: _scenario_point("table2"),
            lambda: _scenario_point("robust-smoke"),
            lambda: _scenario_point("operate-smoke"),
        ],
        ids=["plan-fine", "plan-adaptive", "table2", "robust-smoke", "operate"],
    )
    def test_one_point_counts_every_skeleton_request(self, monkeypatch, make_spec):
        spec = make_spec()
        calls = self._spy(monkeypatch)
        runner = ExperimentRunner(workers=1, executor="serial")
        runner.run_point(spec)
        self._assert_counted(runner, calls)

    def test_thread_points_sharing_a_compiler_count_every_request(self, monkeypatch):
        calls = self._spy(monkeypatch)
        runner = ExperimentRunner(workers=2, executor="thread")
        runner.run(tiny_sweep(**{"search.seed": (3, 5)}))
        assert len(runner._problems) == 1
        self._assert_counted(runner, calls)
