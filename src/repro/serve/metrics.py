"""In-process metrics for the serve daemon.

Cumulative counters plus a bounded latency reservoir, exposed verbatim as the
``/metrics`` JSON document.  Everything is updated from the event-loop thread
(the server funnels all bookkeeping through coroutines), so no locking is
needed; latencies are ``time.perf_counter`` deltas — the daemon never reads
the wall clock.

Worker processes report their warm-vs-cold cache counters *cumulatively* in
each :func:`~repro.parallel.work.run_point_task` result; the parent keeps
the latest snapshot per pid, so summing across pids (see
:meth:`ServerMetrics.worker_cache_summary`) never double-counts a worker.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Deque, Dict, List, Mapping

#: Latency reservoir size: percentiles cover the most recent window, so a
#: long-lived daemon reports current behaviour, not its cold start forever.
LATENCY_WINDOW = 4096


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (NaN when empty)."""
    if not sorted_values:
        return float("nan")
    rank = int(round(q * (len(sorted_values) - 1)))
    rank = min(len(sorted_values) - 1, max(0, rank))
    return float(sorted_values[rank])


def _rate(hits: int, total: int) -> float:
    return (hits / total) if total else float("nan")


class ServerMetrics:
    """Counters and latency percentiles for one :class:`PlanServer`."""

    def __init__(self) -> None:
        self.requests_total = 0
        self.responses_ok = 0
        self.dedup_hits = 0
        self.artifact_cache_hits = 0
        self.solves_started = 0
        self.solves_completed = 0
        self.process_fallbacks = 0
        self.errors: Dict[str, int] = {}
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._started = time.perf_counter()
        self._worker_stats: Dict[int, Dict[str, Any]] = {}

    # -- updates ---------------------------------------------------------------
    def count_error(self, kind: str) -> None:
        self.errors[kind] = self.errors.get(kind, 0) + 1

    def observe_latency(self, seconds: float) -> None:
        self._latencies.append(float(seconds))

    def record_worker_stats(self, stats: Mapping[str, Any]) -> None:
        """Keep the latest cumulative cache counters of one worker (by pid)."""
        pid = int(stats.get("pid", 0))
        self._worker_stats[pid] = dict(stats)

    # -- summaries -------------------------------------------------------------
    def latency_summary(self) -> Dict[str, Any]:
        values = sorted(self._latencies)
        return {
            "count": len(values),
            "p50_s": percentile(values, 0.50),
            "p95_s": percentile(values, 0.95),
            "p99_s": percentile(values, 0.99),
            "max_s": values[-1] if values else float("nan"),
        }

    def worker_cache_summary(self) -> Dict[str, Any]:
        """Warm-vs-cold hit rates summed over all reporting workers.

        ``skeleton_warm_rate`` counts *derives* as warm: filling a new
        location's values into its size class's cached structure is the
        fast path the caches exist for; *builds*, the misses that first had
        to build their class's structure, are the cold starts.
        """
        totals: Dict[str, int] = {}
        for stats in self._worker_stats.values():
            runner = stats.get("runner", {})
            if isinstance(runner, Mapping):
                for key, value in runner.items():
                    if isinstance(value, int):
                        totals[key] = totals.get(key, 0) + value
        skeleton_warm = totals.get("skeleton_hits", 0) + totals.get("skeleton_derives", 0)
        skeleton_total = skeleton_warm + totals.get("skeleton_builds", 0)
        artifact_hits = totals.get("artifact_hits", 0)
        artifact_total = artifact_hits + totals.get("artifact_misses", 0)
        problem_hits = totals.get("problem_hits", 0)
        problem_total = problem_hits + totals.get("problem_builds", 0)
        catalog_hits = totals.get("catalog_hits", 0)
        catalog_total = catalog_hits + totals.get("catalog_builds", 0)
        return {
            "workers_reporting": len(self._worker_stats),
            "counters": totals,
            "skeleton_warm_rate": _rate(skeleton_warm, skeleton_total),
            "artifact_hit_rate": _rate(artifact_hits, artifact_total),
            "problem_warm_rate": _rate(problem_hits, problem_total),
            "catalog_warm_rate": _rate(catalog_hits, catalog_total),
        }

    def snapshot(self, *, in_flight: int, waiters: int, draining: bool) -> Dict[str, Any]:
        """The ``/metrics`` document."""
        elapsed = time.perf_counter() - self._started
        return {
            "uptime_s": round(elapsed, 3),
            "requests_total": self.requests_total,
            "responses_ok": self.responses_ok,
            "dedup_hits": self.dedup_hits,
            "artifact_cache_hits": self.artifact_cache_hits,
            "solves_started": self.solves_started,
            "solves_completed": self.solves_completed,
            "process_fallbacks": self.process_fallbacks,
            "errors": dict(self.errors),
            "in_flight": in_flight,
            "waiters": waiters,
            "draining": draining,
            "plans_per_second": (self.responses_ok / elapsed) if elapsed > 0 else 0.0,
            "latency": self.latency_summary(),
            "worker_caches": self.worker_cache_summary(),
        }
