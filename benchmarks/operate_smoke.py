"""Operate smoke check: a short rolling-horizon replay must stay incremental.

Wall-clock on shared CI runners is too noisy to gate on, so this pins the
structural counters of the ``operate-smoke`` scenario instead, which are
deterministic for a fixed spec:

* the dispatch loop performs exactly one cold LP load per policy replay and
  slides the window in place for every further step (the acceptance
  criterion of the operator subsystem — no full rebuilds on the hot path);
* the LP-solve count equals the step count (one window solve per step); and
* a second run of the sweep is served entirely from the artifact cache.

Usage::

    PYTHONPATH=src python benchmarks/operate_smoke.py
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios import ExperimentRunner, get_scenario  # noqa: E402


def main() -> int:
    sweep = get_scenario("operate-smoke").build()
    steps = sweep.base.operate["steps"]
    with tempfile.TemporaryDirectory(prefix="operate-smoke-") as cache_dir:
        started = time.perf_counter()
        results = ExperimentRunner(cache_dir=cache_dir).run(sweep)
        elapsed = time.perf_counter() - started
        print(
            f"operate-smoke: {len(results)} points in {elapsed:.2f}s "
            f"({steps} steps each, horizon {sweep.base.operate['horizon_hours']} h)"
        )
        for point in results:
            record = point.record
            label = ", ".join(f"{k}={v}" for k, v in point.overrides.items())
            print(
                f"  [{label}] forecast ${record['forecast_cost_usd']:,.2f} vs "
                f"oracle ${record['oracle_cost_usd']:,.2f} "
                f"({record['regret_cost_pct']:+.2f} % regret); "
                f"{record['lp_solves']} LP solves, {record['cold_loads']} cold, "
                f"{record['slides']} slides, "
                f"{100 * record['warm_start_rate']:.0f} % warm"
            )
            if not record["feasible"]:
                print("FAIL: the operate-smoke plan became infeasible")
                return 1
            for policy in ("forecast", "oracle"):
                stats = record[policy]
                if stats["cold_loads"] != 1:
                    print(
                        f"FAIL: {policy} replay performed {stats['cold_loads']} cold "
                        "LP loads — the horizon slide is loading cold instead of warm"
                    )
                    return 1
                if stats["lp_solves"] != steps or stats["slides"] != steps - 1:
                    print(
                        f"FAIL: {policy} replay solved {stats['lp_solves']} LPs over "
                        f"{stats['slides']} slides; expected {steps} and {steps - 1}"
                    )
                    return 1

        cached = ExperimentRunner(cache_dir=cache_dir).run(sweep)
        if cached.cache_hits != len(results):
            print(
                f"FAIL: second run hit the artifact cache {cached.cache_hits}/"
                f"{len(results)} times — operate records are not cache-stable"
            )
            return 1
        for fresh, replayed in zip(results, cached):
            if fresh.record != replayed.record:
                print("FAIL: cached operate record differs from the computed one")
                return 1
    print("operate smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
