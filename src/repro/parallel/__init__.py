"""Process/thread/serial execution layer for sweep points and serve requests.

See :mod:`repro.parallel.executors` for the :class:`ExecutorFactory` knob and
:mod:`repro.parallel.work` for the picklable point descriptor process
workers consume.
"""

from repro.parallel.executors import (
    EXECUTOR_KINDS,
    ExecutorFactory,
    SerialExecutor,
    available_cpu_count,
)
from repro.parallel.work import (
    PointTask,
    cache_stats,
    new_token,
    run_point_task,
    worker_stats,
)

__all__ = [
    "EXECUTOR_KINDS",
    "ExecutorFactory",
    "SerialExecutor",
    "available_cpu_count",
    "PointTask",
    "cache_stats",
    "new_token",
    "run_point_task",
    "worker_stats",
]
