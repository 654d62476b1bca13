"""The point descriptor, its runner function and the per-process worker memo.

A sweep point or serve request is the only unit that crosses a process
boundary: a frozen :class:`PointTask` goes out, ``(record, from_cache,
worker_stats)`` comes back.  These tests run :func:`run_point_task` in the
test process, which is exactly what a pool worker does with the unpickled
descriptor.
"""

import dataclasses
import os
import pickle
from collections import OrderedDict

import pytest

from repro.core import FrameworkParameters
from repro.lpsolver import SolverOptions
from repro.parallel import PointTask, cache_stats, new_token, run_point_task, worker_stats
from repro.parallel import work as work_module
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


def tiny_task(token=None, cache_dir=None) -> PointTask:
    return PointTask(
        token=token or new_token("test"),
        spec=tiny_spec().to_dict(),
        cache_dir=None if cache_dir is None else str(cache_dir),
        base_params=FrameworkParameters(),
        solver_options=SolverOptions(),
    )


@pytest.fixture(scope="module")
def serial_record():
    return ExperimentRunner(workers=1, executor="serial").run_point(tiny_spec()).record


class TestPointTask:
    def test_pickles_round_trip(self):
        task = tiny_task()
        assert pickle.loads(pickle.dumps(task)) == task

    def test_is_frozen(self):
        task = tiny_task()
        with pytest.raises(dataclasses.FrozenInstanceError):
            task.token = "other"

    def test_spec_dictionary_rebuilds_the_spec(self):
        spec = tiny_spec()
        assert ScenarioSpec.from_dict(tiny_task().spec).content_hash() == spec.content_hash()


class TestRunPointTask:
    def test_record_matches_a_serial_runner(self, serial_record):
        record, from_cache, _ = run_point_task(tiny_task())
        assert record == serial_record
        assert not from_cache

    def test_returns_this_processes_worker_stats(self):
        _, _, stats = run_point_task(tiny_task())
        assert set(stats) == {"pid", "work_memo", "runner"}
        assert stats["pid"] == os.getpid()
        assert stats["work_memo"] == cache_stats()
        # A fresh token: this task's runner built its one catalogue.
        assert stats["runner"]["catalog_builds"] == 1

    def test_one_runner_per_token(self):
        token = new_token("test")
        run_point_task(tiny_task(token))
        before = cache_stats()
        _, _, stats = run_point_task(tiny_task(token))
        after = cache_stats()
        assert after["memo_hits"] == before["memo_hits"] + 1
        assert after["memo_misses"] == before["memo_misses"]
        # The warm runner's point memo served the repeat.
        assert stats["runner"]["memo_hits"] == 1

    def test_a_new_token_builds_a_new_runner(self):
        run_point_task(tiny_task())
        before = cache_stats()
        run_point_task(tiny_task())
        assert cache_stats()["memo_misses"] == before["memo_misses"] + 1

    def test_shared_cache_dir_serves_the_second_run(self, tmp_path, serial_record):
        record, from_cache, _ = run_point_task(tiny_task(cache_dir=tmp_path))
        assert not from_cache
        # A different parent (new token, cold runner) reads the artifact.
        replay, from_cache, _ = run_point_task(tiny_task(cache_dir=tmp_path))
        assert from_cache
        assert replay == record == serial_record


class TestWorkerStats:
    def test_bundles_pid_memo_and_runner_counters(self):
        runner = ExperimentRunner(workers=1, executor="serial")
        assert worker_stats(runner) == {
            "pid": os.getpid(),
            "work_memo": cache_stats(),
            "runner": runner.cache_stats(),
        }


class TestNewToken:
    def test_tokens_are_unique_and_carry_label_and_pid(self):
        first, second = new_token("runner"), new_token("runner")
        assert first != second
        assert first.startswith(f"runner-{os.getpid()}-")
        assert second.startswith(f"runner-{os.getpid()}-")


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh per-process memo, restored afterwards."""
    monkeypatch.setattr(work_module, "_cache", OrderedDict())
    monkeypatch.setattr(work_module, "_cache_hits", 0)
    monkeypatch.setattr(work_module, "_cache_misses", 0)
    monkeypatch.setattr(work_module, "_cache_evictions", 0)


@pytest.mark.usefixtures("empty_memo")
class TestWorkerMemo:
    def test_builds_once_per_key(self):
        builds = []

        def build():
            builds.append(1)
            return object()

        first = work_module._cached(("k",), build)
        assert work_module._cached(("k",), build) is first
        assert len(builds) == 1
        assert cache_stats() == {
            "memo_hits": 1,
            "memo_misses": 1,
            "memo_evictions": 0,
            "memo_entries": 1,
        }

    def test_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(work_module, "_CACHE_LIMIT", 2)
        work_module._cached(("a",), lambda: "A")
        work_module._cached(("b",), lambda: "B")
        work_module._cached(("a",), lambda: "stale")  # touch "a": "b" is now oldest
        work_module._cached(("c",), lambda: "C")
        assert list(work_module._cache) == [("a",), ("c",)]
        assert cache_stats()["memo_evictions"] == 1
        assert work_module._cached(("b",), lambda: "B2") == "B2"

    def test_concurrent_build_keeps_the_first_value(self):
        # A racing build that lands second adopts the value already stored.
        def build():
            work_module._cache[("k",)] = "first"
            return "second"

        assert work_module._cached(("k",), build) == "first"
        assert work_module._cache[("k",)] == "first"
