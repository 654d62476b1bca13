"""Catalogue-scale filter smoke: one 5000-candidate synthetic-grid plan.

Runs the Section III-D configuration over a 5000-location catalogue from the
dense deterministic grid (:mod:`repro.geo.synthetic`) — well past the paper's
1373 — and gates on the two-stage filter's exact-pricing count: the
vectorized admissible screen must keep the number of candidates priced by an
LP to a small, catalogue-size-independent set.  Wall-clock is printed for the
record but not gated (shared runners are too noisy); the count is
deterministic.

Usage::

    PYTHONPATH=src python benchmarks/filter_scale_smoke.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_sec3d_solver_scaling import run_heuristic  # noqa: E402

#: Catalogue size of the smoke point.
NUM_CANDIDATES = 5000

#: Ceiling on exactly-priced filter candidates (currently 13, as at 1373 and
#: 20 000 candidates: walking the candidates in ascending-bound order, the
#: filter prices one only while its bound is within the shortlist thresholds).
FILTER_PRICED_CEILING = 60


def main() -> int:
    result = run_heuristic(NUM_CANDIDATES, synthetic_grid=True)
    priced = result["filter_priced"]
    print(
        f"catalogue {NUM_CANDIDATES} candidates: {result['elapsed_s']:.2f}s "
        f"(filter {result['filter_seconds']:.3f}s, search {result['search_seconds']:.2f}s), "
        f"filter priced {priced:.0f} exactly (ceiling {FILTER_PRICED_CEILING}), "
        f"survival {100 * result['filter_screen_rate']:.2f} %, "
        f"cost ${result['cost_musd']:.2f}M/month, feasible={result['feasible']}"
    )
    if not result["feasible"]:
        print("FAIL: the 5000-location smoke instance became infeasible")
        return 1
    if priced > FILTER_PRICED_CEILING:
        print(
            f"FAIL: the filter priced {priced:.0f} candidates exactly, above the "
            f"{FILTER_PRICED_CEILING} ceiling — the screen stopped pruning at scale"
        )
        return 1
    print("filter scale smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
