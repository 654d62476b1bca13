"""The picklable point descriptor that crosses the process-pool boundary.

The only unit of work that crosses a process boundary is one *point*: a
sweep point of the :class:`~repro.scenarios.runner.ExperimentRunner` or one
planning request of the ``repro serve`` daemon.  Process workers cannot
share the parent's live solver state — HiGHS handles and the bases they
carry are process-local — so a point ships as a small frozen
:class:`PointTask` holding a :class:`~repro.scenarios.spec.ScenarioSpec`
dictionary.  The worker keeps one serial runner per parent (keyed by the
task's ``token``) in a per-process memo, so points landing on the same
process share catalogue, profile and compiler caches just like the thread
path does, and runs the whole heuristic search in its own process.

Results flowing back are equally plain: the spec record, whether the
on-disk artifact cache served it, and the worker's cache counters
(:func:`worker_stats`) for the daemon's ``/metrics`` endpoint.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

#: Upper bound on per-process memo entries (one runner per parent); old
#: entries are evicted least-recently-used so long-lived workers serving
#: many parents do not accumulate every runner they ever built.
_CACHE_LIMIT = 8

_cache: "OrderedDict[Tuple, Any]" = OrderedDict()
_cache_lock = threading.Lock()

#: Warm-vs-cold accounting for the per-process memo.  Workers are separate
#: processes, so the parent cannot observe these directly; every
#: :func:`run_point_task` result carries a snapshot of them.
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


# -- sweep points and serve requests ------------------------------------------


@dataclass(frozen=True)
class PointTask:
    """One sweep point or serve request: a spec dictionary plus the runner setup.

    The worker keeps one serial :class:`~repro.scenarios.runner.ExperimentRunner`
    per ``token`` (one per parent runner or daemon), so its catalogue,
    profile and compiler caches persist across the points a worker serves;
    the runner shares the parent's on-disk artifact cache directory, whose
    writes are atomic.
    """

    token: str
    spec: Dict[str, Any]
    cache_dir: Optional[str]
    base_params: Any  # FrameworkParameters
    solver_options: Any  # SolverOptions


def worker_stats(runner: Any) -> Dict[str, Any]:
    """This process's cumulative cache counters, as the serve daemon reports them.

    The parent keys the snapshot by ``pid`` and keeps only the latest one
    per worker, so summing across pids never double-counts.
    """
    return {"pid": os.getpid(), "work_memo": cache_stats(), "runner": runner.cache_stats()}


def run_point_task(task: PointTask) -> Tuple[Dict[str, Any], bool, Dict[str, Any]]:
    """Evaluate one point; returns ``(record, from_cache, worker_stats)``.

    The worker stats carry the worker's warm-vs-cold cache counters back to
    the serve daemon's ``/metrics``, which cannot observe a child process's
    in-memory caches any other way; the sweep runner ignores them.
    """
    from repro.scenarios.runner import ExperimentRunner
    from repro.scenarios.spec import ScenarioSpec

    def build() -> Any:
        return ExperimentRunner(
            cache_dir=task.cache_dir,
            workers=1,
            executor="serial",
            base_params=task.base_params,
            solver_options=task.solver_options,
        )

    runner = _cached(("runner", task.token), build)
    point = runner.run_point(ScenarioSpec.from_dict(task.spec))
    return point.record, point.from_cache, worker_stats(runner)
