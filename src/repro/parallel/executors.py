"""Executor selection for the repo's point-level fan-out.

The unit that crosses a process boundary is one *point*: an
:class:`~repro.scenarios.runner.ExperimentRunner` sweep point or one
``repro serve`` request.  Both dispatch through an executor selected by an
``executor`` knob:

``"thread"``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Cheap to start and
    able to share in-process caches (catalogues, profiles, compiled
    skeletons), but CPU-bound LP *assembly* in pure Python serializes on the
    GIL; the HiGHS solve itself releases it.
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor` for true multi-core
    scaling.  Points are shipped as picklable
    :class:`~repro.parallel.work.PointTask` descriptors — never live HiGHS
    handles — and workers keep a warm runner per parent.
``"serial"``
    A :class:`SerialExecutor` that runs submissions inline.  The reference
    trajectory every other mode is required to reproduce bit for bit.

A heuristic search always runs in its caller's process and thread; its
filter prices its candidates in turn on one HiGHS handle
(:func:`~repro.core.single_site.priced_in_chunks`).  Below the point level
two fan-outs use a ``"thread"`` factory, because their work runs mostly with
the GIL released:

* ``ProfileBuilder.build_all`` (:mod:`repro.energy.profiles`) builds its
  profile blocks, whose time is mostly NumPy noise draws.  Each block writes
  its own locations' profiles from their own random streams.
* :func:`~repro.operator.replay.run_replays` runs the independent operating
  replays of one record (forecast, oracle, stressed, per-site outages), whose
  time is mostly HiGHS solves.  Each replay has its own dispatcher, HiGHS
  handle and forecasters.

Either way the results are the same bits on any number of threads.

Worker sizing honours container CPU quotas: ``os.cpu_count()`` reports the
host's cores even inside a cgroup-limited container, so
:func:`available_cpu_count` prefers the scheduling affinity mask.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional

#: The supported executor kinds, in the order they appear in help texts.
EXECUTOR_KINDS = ("thread", "process", "serial")


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
    """Builds the executor behind one fan-out.

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

    def workers(self, upper: int) -> int:
        """Concurrency for a fan-out of ``upper`` independent tasks."""
        if self.kind == "serial":
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
        workers = self.workers(upper)
        if self.kind == "process":
            return ProcessPoolExecutor(max_workers=workers)
        if self.kind == "thread" and workers > 1 and upper > 1:
            return ThreadPoolExecutor(max_workers=workers)
        return SerialExecutor()
