"""Perf smoke check: the Section III-D points must stay cheap.

Wall-clock on shared CI runners is too noisy to gate on, so this pins
deterministic *counts*:

* the 60-location point's provisioning-LP evaluations (filter pricing is
  excluded; the counter is the siting-evaluation memo's miss count) — a
  regression means the siting memo, the adaptive epoch-grid scheme or the
  search schedule silently got worse;
* the 1373-location point's exactly-priced filter candidates — a regression
  means the vectorized screen stopped pruning (every candidate would fall
  back to an exact LP solve, the pre-two-stage behaviour).  A generous
  wall-clock ceiling on the filter stage backs the count gate: it only
  trips on order-of-magnitude regressions, not runner jitter.

Usage::

    PYTHONPATH=src python benchmarks/perf_smoke.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sec3d_solver_scaling import run_heuristic  # noqa: E402

#: Ceiling on sec3d 60-location LP evaluations (currently 11: 9 siting
#: evaluations on the coarse grid plus 2 adaptive refinement rounds).
LPS_SOLVED_CEILING = 16

#: The full-catalogue filter point the screen gate runs at.
FILTER_CANDIDATES = 1373

#: Ceiling on the fraction of the catalogue the filter may price exactly
#: (currently 13 of 1373, 0.9 %: the filter prices a candidate only while
#: its admissible bound can still reach the shortlist).
FILTER_PRICED_FRACTION_CEILING = 0.05

#: Generous ceiling on the filter stage's wall-clock at 1373 candidates
#: (currently ~0.025 s in one thread on a 2-vCPU x86-64 VM; the ceiling only
#: catches order-of-magnitude regressions such as losing the screen entirely).
FILTER_SECONDS_CEILING = 2.0


def main() -> int:
    result = run_heuristic(60)
    lps = result["evaluations"]
    print(
        f"sec3d 60 candidates: {lps} LPs solved (ceiling {LPS_SOLVED_CEILING}), "
        f"{result['elapsed_s']:.3f}s, cost ${result['cost_musd']:.2f}M/month, "
        f"feasible={result['feasible']}"
    )
    if not result["feasible"]:
        print("FAIL: the 60-location benchmark instance became infeasible")
        return 1
    if lps > LPS_SOLVED_CEILING:
        print(
            f"FAIL: lps_solved {lps} exceeds the pinned ceiling {LPS_SOLVED_CEILING} — "
            "the search is solving more LPs than the recorded trajectory"
        )
        return 1

    full = run_heuristic(FILTER_CANDIDATES)
    priced = full["filter_priced"]
    priced_ceiling = FILTER_PRICED_FRACTION_CEILING * FILTER_CANDIDATES
    print(
        f"sec3d {FILTER_CANDIDATES} candidates: filter priced {priced:.0f} exactly "
        f"(ceiling {priced_ceiling:.0f}), filter {full['filter_seconds']:.3f}s "
        f"(ceiling {FILTER_SECONDS_CEILING:.1f}s), "
        f"survival {100 * full['filter_screen_rate']:.1f} %"
    )
    if not full["feasible"]:
        print(f"FAIL: the {FILTER_CANDIDATES}-location benchmark instance became infeasible")
        return 1
    if priced > priced_ceiling:
        print(
            f"FAIL: the filter priced {priced:.0f} candidates exactly, above the "
            f"{priced_ceiling:.0f} ceiling — the admissible screen stopped pruning"
        )
        return 1
    if full["filter_seconds"] > FILTER_SECONDS_CEILING:
        print(
            f"FAIL: the filter stage took {full['filter_seconds']:.3f}s, above the "
            f"{FILTER_SECONDS_CEILING:.1f}s ceiling"
        )
        return 1
    print("perf smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
