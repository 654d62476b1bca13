"""Picklable work descriptors for process-pool execution.

Process workers cannot share the parent's live solver state: HiGHS handles
(:class:`~repro.lpsolver.highs_backend.MutableHighsModel` instances and the
bases they carry) are process-local.  What *does* cross the
pickling boundary is plain data — :class:`~repro.core.problem.SitingProblem`
objects (numpy series and dataclasses), the compiler's per-site skeletons and
``_SkeletonTemplate`` slot data, :class:`~repro.scenarios.spec.ScenarioSpec`
dictionaries — so each fan-out site ships a small frozen *task* describing
the work and the worker rebuilds whatever solver machinery it needs, lazily,
with a per-process memo:

* :class:`BatchPricingTask` — one contiguous chunk of the filter-pricing /
  single-site sweep, carrying the pricing problem restricted to the chunk's
  locations.  The worker prices it exactly like the in-process chunks of
  :func:`~repro.core.single_site.priced_in_chunks`, so scores are
  bit-identical for any executor.
* :class:`ChainTask` — one annealing chain, carrying the search problem
  (restricted to the filtered candidates), the search settings and the shared
  start siting.  Chains of the same search share a per-process
  problem/compiler rebuild through ``token``; each chain owns a fresh
  evaluation memo so its reported hit stats are deterministic regardless of
  which worker runs it.
* :class:`SweepPointTask` — one experiment-runner sweep point as a spec
  dictionary.  Workers keep one serial :class:`ExperimentRunner` per parent
  runner (keyed by ``token``), so points landing on the same process share
  catalogue/profile/compiler caches just like the thread path does.
* :class:`ServePointTask` — one planning request from the ``repro serve``
  daemon.  Same worker-side machinery as :class:`SweepPointTask` (and the
  same ``token`` keying, so a daemon's workers stay warm across requests),
  plus a snapshot of the worker's warm-vs-cold cache counters in the result
  for the daemon's ``/metrics`` endpoint.

Results flowing back are equally plain: cost tuples, spec records, and a
:class:`ChainOutcomePayload` whose hit stats the parent merges into
:class:`~repro.core.heuristic.HeuristicSolution.stats`.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Upper bound on per-process memo entries (problems, compilers, runners);
#: old entries are evicted least-recently-used so long-lived workers serving
#: many distinct searches do not accumulate every problem they ever saw.
_CACHE_LIMIT = 8

_cache: "OrderedDict[Tuple, Any]" = OrderedDict()
_cache_lock = threading.Lock()

#: Warm-vs-cold accounting for the per-process memo.  Workers are separate
#: processes, so the parent cannot observe these directly; serve-style tasks
#: (:func:`run_serve_point`) snapshot them into their result payload.
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0

_token_counter = itertools.count()


def new_token(label: str) -> str:
    """A token unique across parent processes and calls.

    Workers key their per-process rebuild memo by it, so two different
    parent-side objects (even at the same memory address, across parent
    restarts) never alias one worker-side rebuild.
    """
    return f"{label}-{os.getpid()}-{next(_token_counter)}"


def _cached(key: Tuple, build: Callable[[], Any]) -> Any:
    """Per-process memo: build once per key, evict least-recently-used."""
    global _cache_hits, _cache_misses, _cache_evictions
    with _cache_lock:
        value = _cache.get(key)
        if value is not None:
            _cache_hits += 1
            _cache.move_to_end(key)
            return value
        _cache_misses += 1
    value = build()
    with _cache_lock:
        value = _cache.setdefault(key, value)
        _cache.move_to_end(key)
        while len(_cache) > _CACHE_LIMIT:
            _cache.popitem(last=False)
            _cache_evictions += 1
    return value


def cache_stats() -> Dict[str, int]:
    """Cumulative per-process memo counters (hits, cold builds, evictions)."""
    with _cache_lock:
        return {
            "memo_hits": _cache_hits,
            "memo_misses": _cache_misses,
            "memo_evictions": _cache_evictions,
            "memo_entries": len(_cache),
        }


def reset_worker_caches() -> None:
    """Drop the per-process memo (test hook; workers never need to call it)."""
    global _cache_hits, _cache_misses, _cache_evictions
    with _cache_lock:
        _cache.clear()
        _cache_hits = 0
        _cache_misses = 0
        _cache_evictions = 0


# -- filter pricing / single-site sweeps --------------------------------------


@dataclass(frozen=True)
class BatchPricingTask:
    """One chunk of single-site pricing LPs solved as a block-diagonal stack.

    The two-stage filter's exact-pricing stage: the chunk's LPs are stacked
    into one mega-LP (:func:`~repro.core.screening.price_batch`) so one HiGHS
    solve prices the whole chunk.  The parent decides the chunk split from
    the sweep size alone, so results are bit-identical across executors.
    """

    problem: Any  # SitingProblem, restricted to the chunk's locations
    sitings: Tuple[Tuple[str, str], ...]
    options: Any  # SolverOptions


def run_batch_pricing_chunk(task: BatchPricingTask) -> List[Tuple[str, float, bool]]:
    """Price one chunk as a stack; returns ``(location, cost, feasible)`` rows."""
    from repro.core.provisioning import ProvisioningCompiler
    from repro.core.screening import price_batch

    compiler = ProvisioningCompiler(task.problem)
    return price_batch(task.problem, task.sitings, task.options, compiler=compiler)


# -- annealing chains ----------------------------------------------------------


@dataclass(frozen=True)
class ChainTask:
    """One annealing chain of a heuristic search.

    All chains of one search share ``token`` (and ship identical ``problem``
    payloads); the first chain to land on a process rebuilds the problem and
    its :class:`~repro.core.provisioning.ProvisioningCompiler` — optionally
    seeded with the parent's compiled skeletons/templates — and later chains
    on that process reuse them.  Each chain still owns a fresh evaluation
    memo, so its outcome *and its hit stats* depend only on the chain index,
    never on worker scheduling.
    """

    token: str
    problem: Any  # SitingProblem, restricted to the filtered candidates
    settings: Any  # SearchSettings (executor normalised to "serial")
    options: Any  # SolverOptions
    chain: int
    start_siting: Tuple[Tuple[str, str], ...]
    candidates: Tuple[str, ...]
    compiler_state: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class ChainOutcomePayload:
    """Picklable outcome of one chain (no live LP results cross back).

    ``requests`` is the ordered sequence of canonical siting keys the chain
    asked its evaluation memo for (start evaluation excluded).  The parent
    replays the sequences of all chains, in chain order, against one
    shared memo's accounting, so the reported ``evaluations``, ``cache_hits``
    and cross-chain hits — and the sweep records built from them — never
    depend on which executor ran the chains.
    """

    chain: int
    best_siting: Tuple[Tuple[str, str], ...]
    best_cost: float
    feasible: bool
    message: str
    improvements: Tuple[Tuple[int, float], ...]
    requests: Tuple[Tuple[Tuple[str, str], ...], ...]


def _chain_context(task: ChainTask) -> Tuple[Any, Any]:
    from repro.core.provisioning import ProvisioningCompiler

    def build() -> Tuple[Any, Any]:
        compiler = ProvisioningCompiler(task.problem)
        if task.compiler_state is not None:
            compiler.seed_shared_state(task.compiler_state)
        return task.problem, compiler

    return _cached(("chain", task.token), build)


def release_chain_context(token: str) -> None:
    """Drop this process's problem/compiler rebuild for the chains of ``token``.

    Chains run in the parent on serial and thread executors (and after a
    broken pool), so the parent releases a search's rebuild once its chains
    are collected; process workers keep theirs until it ages out.
    """
    with _cache_lock:
        _cache.pop(("chain", token), None)


def run_chain_task(task: ChainTask) -> ChainOutcomePayload:
    """Run one annealing chain against a per-process rebuilt problem."""
    from repro.core.heuristic import HeuristicSolver

    problem, compiler = _chain_context(task)
    solver = HeuristicSolver(
        problem, settings=task.settings, solver_options=task.options, compiler=compiler
    )
    start_siting = dict(task.start_siting)
    start_result = solver.evaluate(start_siting)
    # Log memo requests from here on: the start evaluation mirrors the
    # parent's (already counted there), everything after is the chain's own.
    request_log: List[Tuple[Tuple[str, str], ...]] = []
    solver._request_log = request_log
    outcome = solver._run_chain(
        task.chain, start_siting, start_result, list(task.candidates)
    )
    return ChainOutcomePayload(
        chain=outcome.chain,
        best_siting=tuple(sorted(outcome.best_siting.items())),
        best_cost=outcome.best_result.monthly_cost,
        feasible=outcome.best_result.feasible,
        message=outcome.best_result.message,
        improvements=tuple(outcome.improvements),
        requests=tuple(request_log),
    )


# -- experiment-runner sweep points --------------------------------------------


@dataclass(frozen=True)
class SweepPointTask:
    """One sweep point: a spec dictionary plus the runner configuration.

    The worker keeps one serial :class:`~repro.scenarios.runner.ExperimentRunner`
    per ``token`` (one per parent runner), so its catalogue/profile/compiler
    caches persist across the points a worker serves; the runner shares the
    parent's on-disk artifact cache directory, whose writes are atomic.
    """

    token: str
    spec: Dict[str, Any]
    cache_dir: Optional[str]
    base_params: Any  # FrameworkParameters
    solver_options: Any  # SolverOptions


def _runner_for(
    token: str, cache_dir: Optional[str], base_params: Any, solver_options: Any
) -> Any:
    """The per-process serial runner for ``token`` (shared sweep/serve memo)."""
    from repro.scenarios.runner import ExperimentRunner

    def build() -> Any:
        return ExperimentRunner(
            cache_dir=cache_dir,
            workers=1,
            executor="serial",
            base_params=base_params,
            solver_options=solver_options,
        )

    return _cached(("runner", token), build)


def run_sweep_point(task: SweepPointTask) -> Tuple[Dict[str, Any], bool]:
    """Evaluate one sweep point; returns ``(record, from_cache)``."""
    from repro.scenarios.spec import ScenarioSpec

    runner = _runner_for(task.token, task.cache_dir, task.base_params, task.solver_options)
    point = runner.run_point(ScenarioSpec.from_dict(task.spec))
    return point.record, point.from_cache


# -- serve-daemon planning requests --------------------------------------------


@dataclass(frozen=True)
class ServePointTask:
    """One planning request from the serve daemon, as a spec dictionary.

    Worker-side this is :class:`SweepPointTask` — the same per-process serial
    :class:`~repro.scenarios.runner.ExperimentRunner` keyed by ``token`` keeps
    catalogues, compiled skeletons and the artifact cache warm across the
    requests a worker serves — but the result additionally carries the
    worker's cumulative warm-vs-cold cache counters, because the daemon's
    ``/metrics`` endpoint cannot observe a child process's in-memory caches
    any other way.
    """

    token: str
    spec: Dict[str, Any]
    cache_dir: Optional[str]
    base_params: Any  # FrameworkParameters
    solver_options: Any  # SolverOptions


def run_serve_point(task: ServePointTask) -> Tuple[Dict[str, Any], bool, Dict[str, Any]]:
    """Evaluate one serve request; returns ``(record, from_cache, worker_stats)``.

    ``worker_stats`` is cumulative for this worker process; the parent keys
    it by ``pid`` and keeps only the latest snapshot per worker, so summing
    across pids never double-counts.
    """
    from repro.scenarios.spec import ScenarioSpec

    runner = _runner_for(task.token, task.cache_dir, task.base_params, task.solver_options)
    point = runner.run_point(ScenarioSpec.from_dict(task.spec))
    stats: Dict[str, Any] = {
        "pid": os.getpid(),
        "work_memo": cache_stats(),
        "runner": runner.cache_stats(),
    }
    return point.record, point.from_cache, stats
