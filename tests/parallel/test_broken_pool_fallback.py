"""A dead process pool degrades a run to slower, never to failed.

A worker killed by a signal or the OOM killer breaks the whole
``ProcessPoolExecutor``: every outstanding future raises
``BrokenProcessPool`` even though the work itself is healthy.  The fan-out
sites must re-run the affected tasks inline in the parent — and running a
task inline must not leave the parent flagged as a pool worker, which would
silently downgrade every later process pool to serial.  Only the process
pool's initializer marks workers; task functions never do.
"""

import os
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core import (
    EnergySources,
    HeuristicSolver,
    SearchSettings,
    SitingProblem,
    StorageMode,
)
from repro.lpsolver import SolverOptions
from repro.parallel import (
    BatchPricingTask,
    ChainTask,
    ExecutorFactory,
    SerialExecutor,
    executors,
    in_process_worker,
    new_token,
    result_with_serial_fallback,
    run_batch_pricing_chunk,
    run_chain_task,
)
from repro.scenarios import ExperimentRunner, ScenarioSpec

TINY_SEARCH = {
    "keep_locations": 4,
    "max_iterations": 3,
    "patience": 3,
    "num_chains": 1,
    "seed": 3,
    "max_datacenters": 3,
}


def tiny_spec() -> ScenarioSpec:
    return ScenarioSpec(
        num_locations=12,
        catalog_seed=3,
        days_per_season=1,
        hours_per_epoch=6,
        total_capacity_kw=20_000.0,
        search=dict(TINY_SEARCH),
    )


def _poison(value):
    """Kill the hosting pool worker; succeed when run inline in the parent."""
    if in_process_worker():
        os._exit(1)
    return ("inline", value)


class TestTasksInTheParent:
    """Pool tasks run on serial or thread executors never mark the parent."""

    @pytest.fixture()
    def tasks(self, all_profiles, params, monkeypatch):
        # Restore the mark after the test even if a task leaks it.
        monkeypatch.setattr(executors, "_IN_PROCESS_WORKER", False)
        problem = SitingProblem(
            profiles=all_profiles,
            params=params.with_updates(total_capacity_kw=50_000.0, min_green_fraction=0.5),
            sources=EnergySources.SOLAR_AND_WIND,
            storage=StorageMode.NET_METERING,
        )
        settings = SearchSettings(
            keep_locations=4, max_iterations=3, patience=3, seed=3, executor="serial"
        )
        solver = HeuristicSolver(problem, settings)
        candidates = solver.filter_locations()
        options = SolverOptions()
        chain = ChainTask(
            token=new_token("test-chains"),
            problem=problem.restricted_to(candidates),
            settings=settings,
            options=options,
            chain=0,
            start_siting=tuple(solver._initial_siting(candidates).items()),
            candidates=tuple(candidates),
        )
        pricing = BatchPricingTask(
            problem=problem.restricted_to(candidates[:2]),
            sitings=tuple((name, "large") for name in candidates[:2]),
            options=options,
        )
        return [(run_chain_task, chain), (run_batch_pricing_chunk, pricing)]

    @pytest.mark.parametrize("kind", ["serial", "thread"])
    def test_worker_mark_stays_off(self, tasks, kind):
        assert not in_process_worker()
        pool = SerialExecutor() if kind == "serial" else ThreadPoolExecutor(max_workers=2)
        with pool:
            futures = [pool.submit(fn, task) for fn, task in tasks]
            results = [future.result() for future in futures]
        assert results[0].chain == 0
        assert [row[0] for row in results[1]] == [name for name, _ in tasks[1][1].sitings]
        assert not in_process_worker()


@pytest.mark.multicore
class TestRealBrokenPool:
    def test_fallback_reruns_the_task_inline(self):
        factory = ExecutorFactory(kind="process", max_workers=2)
        with factory.create(2) as pool:
            future = pool.submit(_poison, 42)
            with pytest.raises(BrokenProcessPool):
                future.result()
            assert result_with_serial_fallback(future, _poison, 42) == ("inline", 42)
        assert not in_process_worker()

    def test_genuine_task_exceptions_propagate_unchanged(self):
        factory = ExecutorFactory(kind="process", max_workers=2)
        with factory.create(2) as pool:
            future = pool.submit(int, "not a number")
            with pytest.raises(ValueError):
                result_with_serial_fallback(future, int, "not a number")


class _DeadPool:
    """A pool whose every future raises BrokenProcessPool, like after an OOM kill."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, /, *args, **kwargs):
        future: Future = Future()
        future.set_running_or_notify_cancel()
        future.set_exception(BrokenProcessPool("worker lost"))
        return future


class _DeadFactory:
    """Stands in for the runner's process factory only — the inline fallback
    builds nested (serial) runners whose factories must stay real."""

    kind = "process"
    effective_kind = "process"

    def create(self, upper):
        return _DeadPool()


class TestRunnerFallback:
    def test_sweep_point_recovers_serially_in_the_parent(self):
        reference = ExperimentRunner(workers=1, executor="serial").run_point(tiny_spec())

        runner = ExperimentRunner(workers=2, executor="process")
        runner._factory = _DeadFactory()
        recovered = runner.run_point(tiny_spec())
        assert runner.process_fallbacks == 1
        assert recovered.record == reference.record
        assert not in_process_worker()
