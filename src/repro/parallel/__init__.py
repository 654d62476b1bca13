"""Process/thread/serial execution layer shared by every parallel stage.

See :mod:`repro.parallel.executors` for the :class:`ExecutorFactory` knob and
:mod:`repro.parallel.work` for the picklable work descriptors process workers
consume.
"""

from repro.parallel.executors import (
    EXECUTOR_KINDS,
    ExecutorFactory,
    SerialExecutor,
    available_cpu_count,
    in_process_worker,
    mark_process_worker,
    result_with_serial_fallback,
)
from repro.parallel.work import (
    BatchPricingTask,
    ChainOutcomePayload,
    ChainTask,
    ServePointTask,
    SweepPointTask,
    cache_stats,
    new_token,
    run_batch_pricing_chunk,
    run_chain_task,
    run_serve_point,
    run_sweep_point,
)

__all__ = [
    "EXECUTOR_KINDS",
    "ExecutorFactory",
    "SerialExecutor",
    "available_cpu_count",
    "in_process_worker",
    "mark_process_worker",
    "result_with_serial_fallback",
    "BatchPricingTask",
    "ChainOutcomePayload",
    "ChainTask",
    "ServePointTask",
    "SweepPointTask",
    "cache_stats",
    "new_token",
    "run_batch_pricing_chunk",
    "run_chain_task",
    "run_serve_point",
    "run_sweep_point",
]
