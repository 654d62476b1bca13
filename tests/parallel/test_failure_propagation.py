"""Failure propagation through the runner's point fan-out.

A sweep point that raises must (a) surface the exception to *every* waiter —
no future may be left pending for a ``result()`` call to deadlock on — and
(b) leave the evaluation memos clean, so a later run of the same work
recomputes instead of replaying a stale error.  Both the thread and the
process executors are covered.
"""

import pytest

from repro.scenarios import ExperimentRunner, ParameterSweep, ScenarioSpec

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


class TestRunnerThreadFailures:
    def test_all_waiters_raise_and_memo_stays_clean(self, monkeypatch):
        runner = ExperimentRunner(workers=3, executor="thread")
        calls = {"n": 0}

        def explode(key, spec):
            calls["n"] += 1
            raise RuntimeError("worker detonated")

        monkeypatch.setattr(runner, "_evaluate", explode)
        # Three sweep points that canonicalise onto ONE memo future (all
        # 0 %-green source variants are the same brown scenario): one
        # computation, three waiters.
        sweep = ParameterSweep(
            base=tiny_spec(min_green_fraction=0.0),
            axes={"sources": ("wind", "solar", "solar+wind")},
        )
        with pytest.raises(RuntimeError, match="worker detonated"):
            runner.run(sweep)
        assert calls["n"] == 1  # one future, every waiter saw its exception
        assert runner._memo == {}  # the failure was not memoized

        monkeypatch.undo()
        results = runner.run(sweep)  # same runner recomputes cleanly
        assert len(results) == 3
        assert all(point.record["feasible"] for point in results)


class TestRunnerProcessFailures:
    def test_worker_error_propagates_and_is_not_memoized(self):
        runner = ExperimentRunner(workers=2, executor="process")
        # An emulation site missing from the catalogue raises KeyError inside
        # the worker process, after the task crossed the pickling boundary.
        bad = ScenarioSpec(
            workflow="emulate",
            num_locations=12,
            catalog_seed=3,
            hours_per_epoch=1,
            emulation={"sites": ("Nowhere, Atlantis",), "duration_hours": 2, "num_vms": 2},
        )
        with pytest.raises(KeyError):
            runner.run_point(bad)
        assert runner._memo == {}
        # The same runner recomputes (same error again — not a stale future,
        # not a deadlock) and still serves healthy points afterwards.
        with pytest.raises(KeyError):
            runner.run_point(bad)
        good = runner.run_point(tiny_spec())
        assert good.record["feasible"]

    def test_failure_of_one_point_does_not_block_others(self):
        runner = ExperimentRunner(workers=2, executor="process")
        bad = ScenarioSpec(
            workflow="emulate",
            num_locations=12,
            catalog_seed=3,
            hours_per_epoch=1,
            emulation={"sites": ("Nowhere, Atlantis",), "duration_hours": 2, "num_vms": 2},
        )
        good = tiny_spec()
        with pytest.raises(KeyError):
            runner.run(ParameterSweep(base=bad))
        # Every memo future was resolved (exception or result) before run()
        # raised: a fresh run of the good point must not hang on leftovers.
        assert all(future.done() for future in runner._memo.values())
        assert runner.run_point(good).record["feasible"]

