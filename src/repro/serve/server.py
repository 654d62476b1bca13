"""The planning server: request dedup, warm-pool dispatch, admission control.

:class:`PlanServer` is transport-agnostic — the HTTP front-end
(:mod:`repro.serve.http`) and the newline-delimited-JSON stdin mode
(:mod:`repro.serve.stdio`) both funnel every request through
:meth:`PlanServer.handle`, which implements the whole pipeline:

1. **Parse** the payload into a spec (typed ``spec_error`` on anything
   malformed) and **canonicalise** it to its content hash — the same hash
   the :class:`~repro.scenarios.runner.ExperimentRunner` futures memo and
   the on-disk artifact cache key by, so semantically equal requests
   (e.g. 0 %-green specs with different source lists) collapse.
2. **Dedup**: an identical request already in flight attaches its waiter to
   the existing solve — one solve, N responses — extending the runner's
   in-process futures memo *across* requests and transports.
3. **Admit**: distinct in-flight solves are bounded by ``queue_limit``
   (typed ``overloaded`` response beyond it); each waiter is bounded by
   ``timeout_s`` (typed ``timeout`` response; the solve itself continues, so
   a retry — or a later identical request — can still attach to it).
4. **Dispatch** to a *persistent* pool.  ``executor="process"`` ships a
   :class:`~repro.parallel.work.PointTask` to a long-lived
   ``ProcessPoolExecutor`` whose workers keep warm per-process caches
   (compiled skeletons, problems, catalogues, plus the shared on-disk
   artifact cache); a dead pool is rebuilt and the affected request re-run
   inline, so one lost worker degrades the daemon to slower, not failed.
   ``"thread"``/``"serial"`` share one in-parent runner behind a thread
   pool — same records, bit for bit, as every other executor.
5. **Drain** on SIGTERM: stop admitting (typed ``draining`` response), let
   in-flight solves finish within ``drain_grace_s``, shut the pool down.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.parameters import FrameworkParameters
from repro.lpsolver import SolverOptions
from repro.parallel.executors import EXECUTOR_KINDS, available_cpu_count
from repro.parallel.work import PointTask, new_token, run_point_task, worker_stats
from repro.scenarios.runner import ExperimentRunner
from repro.scenarios.spec import ScenarioSpec
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    SpecError,
    error_response,
    ok_response,
    parse_request,
    request_id_of,
)

#: What one solve returns: the point record, whether the on-disk artifact
#: cache served it, and the solving worker's cumulative cache counters.
SolveOutcome = Tuple[Dict[str, Any], bool, Dict[str, Any]]


@dataclass(frozen=True)
class ServeConfig:
    """Deployment knobs of one :class:`PlanServer`.

    ``queue_limit`` bounds *distinct* in-flight solves — deduped waiters are
    free, so a thundering herd of identical requests never trips admission.
    ``timeout_s`` bounds one waiter, not the solve; ``None`` waits forever.
    """

    executor: str = "thread"
    workers: Optional[int] = None
    queue_limit: int = 64
    timeout_s: Optional[float] = 300.0
    drain_grace_s: float = 30.0
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTOR_KINDS}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None for no timeout)")


class PlanServer:
    """A long-lived planning service over one warm executor pool.

    ``solve_fn`` is a test seam: when given, it replaces the real dispatch
    with ``solve_fn(spec) -> SolveOutcome`` (still run on the pool), so the
    admission/dedup/timeout machinery is testable without LP solves.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        *,
        base_params: Optional[FrameworkParameters] = None,
        solver_options: Optional[SolverOptions] = None,
        solve_fn: Optional[Callable[[ScenarioSpec], SolveOutcome]] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = ServerMetrics()
        self.base_params = base_params or FrameworkParameters()
        self.solver_options = solver_options or SolverOptions()
        self._solve_fn = solve_fn
        # Workers key their per-process runner rebuild by this token; one
        # token for the server's lifetime is what keeps them warm.
        self._token = new_token("serve")
        self._inflight: Dict[str, "asyncio.Task[SolveOutcome]"] = {}
        self._waiters = 0
        self._draining = False
        self._started = False
        self._pool: Any = None
        self._runner: Optional[ExperimentRunner] = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining

    def worker_count(self) -> int:
        if self.config.executor == "serial":
            return 1
        return self.config.workers or available_cpu_count()

    async def start(self) -> None:
        """Create the persistent pool (idempotent; handle() calls it lazily)."""
        if self._started:
            return
        self._started = True
        workers = self.worker_count()
        if self.config.executor == "process":
            self._pool = ProcessPoolExecutor(max_workers=workers)
        else:
            self._pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-serve"
            )
            self._runner = ExperimentRunner(
                cache_dir=self.config.cache_dir,
                workers=1,
                executor="serial",
                base_params=self.base_params,
                solver_options=self.solver_options,
            )

    async def drain(self, grace_s: Optional[float] = None) -> None:
        """Stop admitting, wait for in-flight solves (bounded), shut the pool."""
        self._draining = True
        grace = self.config.drain_grace_s if grace_s is None else grace_s
        pending = [task for task in self._inflight.values() if not task.done()]
        if pending:
            await asyncio.wait(pending, timeout=grace)
        await self._shutdown_pool()

    async def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._runner = None
        self._started = False
        if pool is None:
            return

        def _shutdown() -> None:
            pool.shutdown(wait=True, cancel_futures=True)

        await asyncio.get_running_loop().run_in_executor(None, _shutdown)

    # -- the request pipeline --------------------------------------------------
    async def handle(self, payload: Any) -> Dict[str, Any]:
        """One request in, one response out: the whole admission pipeline."""
        started = time.perf_counter()
        self.metrics.requests_total += 1
        try:
            request = parse_request(payload)
        except SpecError as error:
            self.metrics.count_error("spec_error")
            return error_response("spec_error", str(error), request_id_of(payload))
        if self._draining:
            self.metrics.count_error("draining")
            return error_response(
                "draining", "server is draining; no new work admitted", request.id
            )
        await self.start()

        key = request.spec.content_hash()
        task = self._inflight.get(key)
        dedup = task is not None
        if task is None:
            if len(self._inflight) >= self.config.queue_limit:
                self.metrics.count_error("overloaded")
                return error_response(
                    "overloaded",
                    f"{len(self._inflight)} solves in flight "
                    f"(queue_limit {self.config.queue_limit}); retry later",
                    request.id,
                )
            self.metrics.solves_started += 1
            task = asyncio.get_running_loop().create_task(self._solve(request.spec))
            self._inflight[key] = task
            task.add_done_callback(lambda done, key=key: self._forget(key, done))
        else:
            self.metrics.dedup_hits += 1

        self._waiters += 1
        try:
            # shield(): a waiter timeout must not cancel the shared solve —
            # other waiters (and future identical requests) still want it.
            if self.config.timeout_s is None:
                record, from_cache, stats = await asyncio.shield(task)
            else:
                record, from_cache, stats = await asyncio.wait_for(
                    asyncio.shield(task), self.config.timeout_s
                )
        except asyncio.TimeoutError:
            self.metrics.count_error("timeout")
            return error_response(
                "timeout",
                f"no result within {self.config.timeout_s}s "
                "(the solve continues; an identical retry re-attaches to it)",
                request.id,
            )
        except asyncio.CancelledError:
            raise
        except BaseException as error:
            self.metrics.count_error("internal")
            return error_response(
                "internal", f"{type(error).__name__}: {error}", request.id
            )
        finally:
            self._waiters -= 1

        elapsed = time.perf_counter() - started
        self.metrics.responses_ok += 1
        if from_cache:
            self.metrics.artifact_cache_hits += 1
        self.metrics.observe_latency(elapsed)
        if stats:
            self.metrics.record_worker_stats(stats)
        return ok_response(
            request.id,
            content_hash=key,
            record=record,
            from_cache=from_cache,
            dedup=dedup,
            elapsed_s=elapsed,
        )

    def _forget(self, key: str, task: "asyncio.Task[SolveOutcome]") -> None:
        if self._inflight.get(key) is task:
            del self._inflight[key]
        self.metrics.solves_completed += 1
        if not task.cancelled():
            # Retrieve the exception (if any): when every waiter timed out
            # before the solve failed, nobody else will, and asyncio logs
            # "exception was never retrieved" at shutdown otherwise.
            task.exception()

    async def _solve(self, spec: ScenarioSpec) -> SolveOutcome:
        loop = asyncio.get_running_loop()
        if self._solve_fn is not None:
            return await loop.run_in_executor(self._pool, self._solve_fn, spec)
        if self.config.executor == "process":
            task = PointTask(
                token=self._token,
                spec=spec.to_dict(),
                cache_dir=self.config.cache_dir,
                base_params=self.base_params,
                solver_options=self.solver_options,
            )
            try:
                return await loop.run_in_executor(self._pool, run_point_task, task)
            except BrokenProcessPool:
                # A worker killed by a signal or the OOM killer breaks the
                # whole pool: rebuild it for later requests and run this one
                # inline — degraded to slower, never to failed.
                self.metrics.process_fallbacks += 1
                self._restart_pool()
                return await loop.run_in_executor(None, run_point_task, task)
        return await loop.run_in_executor(self._pool, self._solve_local, spec)

    def _restart_pool(self) -> None:
        broken, self._pool = self._pool, ProcessPoolExecutor(max_workers=self.worker_count())
        if broken is not None:
            broken.shutdown(wait=False, cancel_futures=True)

    def _solve_local(self, spec: ScenarioSpec) -> SolveOutcome:
        runner = self._runner
        if runner is None:  # pragma: no cover - start() precedes dispatch
            raise RuntimeError("server not started")
        point = runner.run_point(spec)
        return point.record, point.from_cache, worker_stats(runner)

    # -- observability ---------------------------------------------------------
    def metrics_snapshot(self) -> Dict[str, Any]:
        """The ``/metrics`` document (deployment knobs included)."""
        if self._runner is not None:
            # Thread/serial pools solve in-parent: report the shared runner's
            # counters through the same worker-stats channel as process mode.
            self.metrics.record_worker_stats(worker_stats(self._runner))
        snapshot = self.metrics.snapshot(
            in_flight=len(self._inflight),
            waiters=self._waiters,
            draining=self._draining,
        )
        snapshot["executor"] = self.config.executor
        snapshot["workers"] = self.worker_count()
        snapshot["queue_limit"] = self.config.queue_limit
        snapshot["cache_dir"] = self.config.cache_dir
        return snapshot

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` document (503 while draining, 200 otherwise)."""
        return {
            "status": "draining" if self._draining else "ok",
            "in_flight": len(self._inflight),
            "waiters": self._waiters,
            "executor": self.config.executor,
        }
