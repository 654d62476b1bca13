"""A dead process pool degrades a run to slower, never to failed.

A worker killed by a signal or the OOM killer breaks the whole
``ProcessPoolExecutor``: every outstanding future raises
``BrokenProcessPool`` even though the work itself is healthy.  The runner's
point fan-out must re-run the affected points inline in the parent.
"""

import functools
import os
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import run_point_task
from repro.scenarios import ExperimentRunner, ScenarioSpec
from repro.scenarios import runner as runner_module

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


def _poison(parent_pid, task):
    """Kill the hosting pool worker; run the point when called in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return run_point_task(task)


@pytest.mark.multicore
class TestRealBrokenPool:
    def test_killed_worker_reruns_the_point_inline(self, monkeypatch):
        reference = ExperimentRunner(workers=1, executor="serial").run_point(tiny_spec())

        # A partial pickles by reference with its bound parent pid, so the
        # worker that unpickles it dies and the parent's re-run succeeds.
        monkeypatch.setattr(
            runner_module, "run_point_task", functools.partial(_poison, os.getpid())
        )
        runner = ExperimentRunner(workers=2, executor="process")
        recovered = runner.run_point(tiny_spec())
        assert runner.process_fallbacks == 1
        assert recovered.record == reference.record


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
