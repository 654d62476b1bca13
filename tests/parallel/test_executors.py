"""Unit tests for the executor layer: factory, serial executor, worker sizing."""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.parallel import executors as executors_module
from repro.parallel import ExecutorFactory, SerialExecutor, available_cpu_count


class TestSerialExecutor:
    def test_runs_inline_and_returns_result(self):
        with SerialExecutor() as pool:
            future = pool.submit(lambda a, b: a + b, 2, 3)  # reprolint: ok(PKL001) serial executor runs inline; nothing is pickled
        assert future.done()
        assert future.result() == 5

    def test_captures_exceptions_on_the_future(self):
        def boom():
            raise RuntimeError("kaput")

        with SerialExecutor() as pool:
            future = pool.submit(boom)  # reprolint: ok(PKL001) serial executor runs inline; nothing is pickled
        assert future.done()
        # timeout=0: the future is already resolved, a waiter can never hang.
        with pytest.raises(RuntimeError, match="kaput"):
            future.result(timeout=0)

    def test_map_preserves_order(self):
        with SerialExecutor() as pool:
            assert list(pool.map(abs, [-3, -1, -2])) == [3, 1, 2]


class TestExecutorFactory:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown executor"):
            ExecutorFactory(kind="gpu")

    def test_rejects_nonpositive_worker_cap(self):
        with pytest.raises(ValueError, match="max_workers"):
            ExecutorFactory(kind="thread", max_workers=0)

    def test_workers_bounded_by_cap_and_task_count(self):
        factory = ExecutorFactory(kind="thread", max_workers=4)
        assert factory.workers(upper=2) == 2
        assert factory.workers(upper=16) == 4

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_uncapped_workers_follow_the_available_cpus(self, kind, monkeypatch):
        monkeypatch.setattr(executors_module, "available_cpu_count", lambda: 3)
        factory = ExecutorFactory(kind=kind)
        assert factory.workers(upper=16) == 3
        assert factory.workers(upper=2) == 2
        assert factory.workers(upper=0) == 1

    def test_serial_kind_is_single_worker(self):
        factory = ExecutorFactory(kind="serial", max_workers=8)
        assert factory.workers(upper=16) == 1
        assert isinstance(factory.create(16), SerialExecutor)

    def test_thread_with_one_effective_worker_degenerates_to_serial(self):
        factory = ExecutorFactory(kind="thread", max_workers=1)
        assert isinstance(factory.create(8), SerialExecutor)
        assert isinstance(ExecutorFactory(kind="thread", max_workers=8).create(1), SerialExecutor)

    def test_process_kind_builds_a_real_pool(self):
        factory = ExecutorFactory(kind="process", max_workers=2)
        with factory.create(2) as pool:
            assert isinstance(pool, ProcessPoolExecutor)
            assert list(pool.map(abs, [-1, -2])) == [1, 2]


class TestAvailableCpuCount:
    def test_prefers_scheduling_affinity(self, monkeypatch):
        # The affinity mask reflects cgroup cpusets; cpu_count() does not.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert available_cpu_count() == 2

    def test_falls_back_to_cpu_count(self, monkeypatch):
        def unsupported(pid):
            raise OSError("no affinity on this platform")

        monkeypatch.setattr(os, "sched_getaffinity", unsupported, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpu_count() == 3

    def test_never_returns_less_than_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert available_cpu_count() == 1
