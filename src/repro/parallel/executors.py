"""Executor selection for the repo's parallel fan-out points.

Every embarrassingly-parallel stage of the reproduction — the heuristic's
filter-pricing chunks and annealing chains, and the experiment runner's sweep
points — dispatches through one :class:`ExecutorFactory`, selected by an
``executor`` knob:

``"thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap to start and
    able to share in-process caches (compiled skeletons, the per-process
    task memo), but CPU-bound LP *assembly* in pure Python serializes on the
    GIL; the HiGHS solve itself releases it.
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor` for true multi-core
    scaling.  Work is shipped as picklable descriptors (see
    :mod:`repro.parallel.work`) — never live HiGHS handles — and workers
    rebuild solvers lazily with a per-process memo.
``"serial"``
    A :class:`SerialExecutor` that runs submissions inline.  The reference
    trajectory every other mode is required to reproduce bit for bit.

Worker sizing honours container CPU quotas: ``os.cpu_count()`` reports the
host's cores even inside a cgroup-limited container, so
:func:`available_cpu_count` prefers the scheduling affinity mask.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: The supported executor kinds, in the order they appear in help texts.
EXECUTOR_KINDS = ("thread", "process", "serial")

#: Set in process-pool workers, only by the pool initializer (every process
#: pool passes ``initializer=mark_process_worker``; the initializer runs in
#: the child under both fork and spawn start methods).  Task functions never
#: set it, so a task run inline or on a thread leaves the parent unmarked.
#: Nested process pools inside workers are legal on CPython >= 3.9 but only
#: oversubscribe the machine, so factories inside a worker downgrade
#: ``"process"`` to ``"serial"`` — results are identical by construction.
_IN_PROCESS_WORKER = False


def mark_process_worker() -> None:
    """Flag the current process as a pool worker (see ``_IN_PROCESS_WORKER``)."""
    global _IN_PROCESS_WORKER
    _IN_PROCESS_WORKER = True


def in_process_worker() -> bool:
    return _IN_PROCESS_WORKER


def result_with_serial_fallback(future: Future, fn: Callable[..., Any], *args: Any) -> Any:
    """``future.result()``, re-running the task inline if the pool died.

    A worker killed by a signal or the OOM killer breaks the whole
    :class:`~concurrent.futures.ProcessPoolExecutor`: every outstanding
    future raises :class:`~concurrent.futures.process.BrokenProcessPool`
    even though the *work* is perfectly healthy.  Fan-out sites wrap their
    ``result()`` calls with this so one lost worker degrades a run to
    slower (the affected tasks re-run serially in the parent) instead of
    failed.  Genuine task exceptions propagate unchanged.
    """
    try:
        return future.result()
    except BrokenProcessPool:
        return fn(*args)


def available_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` overstates the budget in cgroup-limited containers
    (it reports the host's cores); the scheduling affinity mask reflects
    ``cpuset`` quotas, so prefer it where the platform provides one.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux platforms
        affinity = 0
    return affinity or os.cpu_count() or 1


class SerialExecutor(Executor):
    """An :class:`~concurrent.futures.Executor` that runs work inline.

    ``submit`` executes the callable immediately in the calling thread and
    returns an already-completed future (exceptions are captured on the
    future, exactly like the pooled executors), so call sites need no
    serial-vs-pooled branching and failure propagation behaves identically
    across all three executor kinds.
    """

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as error:
            future.set_exception(error)
        return future

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        pass


@dataclass(frozen=True)
class ExecutorFactory:
    """Builds the executor behind one parallel stage.

    Parameters
    ----------
    kind:
        ``"thread"``, ``"process"`` or ``"serial"``.
    max_workers:
        Worker cap; ``None`` means the CPUs available to this process
        (:func:`available_cpu_count`).
    """

    kind: str = "thread"
    max_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {self.kind!r}; expected one of {EXECUTOR_KINDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")

    @property
    def effective_kind(self) -> str:
        """The kind after the in-worker downgrade (process -> serial)."""
        if self.kind == "process" and in_process_worker():
            return "serial"
        return self.kind

    def workers(self, upper: int) -> int:
        """Concurrency for a stage of ``upper`` independent tasks."""
        if self.effective_kind == "serial":
            return 1
        limit = self.max_workers or available_cpu_count()
        return max(1, min(limit, upper))

    def create(self, upper: int) -> Executor:
        """An executor (context manager) sized for ``upper`` tasks.

        A thread factory with one effective worker — or a single task —
        degenerates to the serial executor: same results, none of the pool
        bookkeeping.  A process factory always builds a real pool so the
        pickling boundary is exercised uniformly.
        """
        kind = self.effective_kind
        workers = self.workers(upper)
        if kind == "process":
            return ProcessPoolExecutor(
                max_workers=workers, initializer=mark_process_worker
            )
        if kind == "thread" and workers > 1 and upper > 1:
            return ThreadPoolExecutor(max_workers=workers)
        return SerialExecutor()
