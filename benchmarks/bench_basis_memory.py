"""Measure per-block basis memory on the operator's rolling-horizon dispatch.

Every dispatch step swaps the expiring window step for a fresh one.  Two
warm-start strategies exist for that splice on a mutable HiGHS model:

* **projection**: pad the previous basis across the splice (the appended
  block enters nonbasic);
* **per-block memory**: transplant the *expiring* block's statuses onto the
  *appended* block (steps are structurally identical, so the statuses line
  up) — ``DispatchConfig.carry_block_status``.

Realized costs must agree to 1e-9 between modes — only iterations and
wall-clock may differ.

Usage::

    PYTHONPATH=src python benchmarks/bench_basis_memory.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro.operator import OperateConfig, ReplayHarness, SiteAsset, TrafficModel  # noqa: E402

ROUNDS = 3


def bench_dispatch_modes(steps: int = 96, horizon_hours: int = 24) -> dict:
    needed = steps + horizon_hours + 1
    hours = np.arange(needed, dtype=float)

    def site(name, phase, cap):
        production = np.clip(np.sin(2 * np.pi * (hours + phase) / 24.0), 0, None) * cap * 2.0
        return SiteAsset(
            name=name,
            capacity_kw=cap,
            battery_kwh=0.4 * cap,
            energy_price_per_kwh=0.11,
            pue=1.2 + 0.15 * np.cos(hours / 7.0),
            production_kw=production,
        )

    sites = [site("west", 0.0, 20_000.0), site("east", 8.0, 20_000.0), site("south", 16.0, 20_000.0)]
    trace = TrafficModel(seed=5).synthesize(needed, total_capacity_kw=40_000.0)
    results = {}
    costs = {}
    for carry in (False, True):
        label = "carry-block" if carry else "projected"
        config = OperateConfig(
            steps=steps,
            horizon_hours=horizon_hours,
            forecast_error=0.15,
            energy_forecast="noisy-oracle",
            load_forecast="noisy-oracle",
            carry_block_status=carry,
        )
        best = None
        for _ in range(ROUNDS):
            harness = ReplayHarness(sites, trace, config, total_capacity_kw=40_000.0)
            started = time.perf_counter()
            outcome = harness.run("forecast")
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best["elapsed_s"]:
                best = {
                    "elapsed_s": elapsed,
                    "iterations": outcome.stats["simplex_iterations"],
                    "steps_per_s": steps / elapsed,
                }
            costs[label] = outcome.cost_usd
        results[label] = {
            "elapsed_s": round(best["elapsed_s"], 4),
            "simplex_iterations": int(best["iterations"]),
            "steps_per_s": round(best["steps_per_s"], 1),
        }
        print(
            f"dispatch loop [{label:>12}]: {best['elapsed_s']:.3f}s, "
            f"{best['iterations']} simplex iterations, "
            f"{best['steps_per_s']:.0f} steps/s"
        )
    delta = abs(costs["carry-block"] - costs["projected"]) / max(1.0, abs(costs["projected"]))
    if delta > 1e-9:
        raise AssertionError(f"dispatch basis modes disagree on realized cost: {delta}")
    return results


def main() -> dict:
    record = {"dispatch_slide_mix": bench_dispatch_modes()}
    print(json.dumps(record, indent=2))
    return record


if __name__ == "__main__":
    main()
